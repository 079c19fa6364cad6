"""Independent certificate checking by plain matrix arithmetic.

Nothing in this module solves an optimisation problem: every check below
recomputes linear expressions exactly and raises InternalInvariantError on
the first violation.  The engine routes all emitted certificates through
these functions, and the test suite uses them as the trusted auditor.

The LP checker, ``check_lp_outcome``, works on integers.  It scales each
program row (coefficients and rhs together) by the lcm of that row's
denominators and each certificate vector by the lcm of its own, keeps the
nonzero entries only, and compares integer numerators.  It does this
independently of ``lp``, whose integer compile it audits: from ``lp`` it
takes only the program and outcome types, a few constants and ``frac``.
A certificate vector of the wrong length, or with an entry that is not an
int or a Fraction, fails the check.

The market-level checkers compare integer numerators over nonzeros in the
same way; the generators of the model's gains and cones come in that form
(their cached ``scaled``).  They share two checks, since a single market is
the one-row, no-cone case of each collective certificate:
``_check_dual_rows`` for witness, measure, polar and price-measure rows,
and ``_payoff_rows`` (gains plus an exchange) for arbitrages, hedges and
rays.  ``verify_price_certificate`` checks both sides of a
super-replication price from its program's one outcome, so every price a
report prints is verified.  A certificate entry that is not an int or a
Fraction fails every check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalInvariantError
from .ext import Ext
from .lp import (GE, LE, MIN, Infeasible, LinearProgram, Optimal, Unbounded,
                 ZERO, frac)
from .market import gains_basis


def _fail(msg: str):
    raise InternalInvariantError(msg)


def _check_length(values, n: int, what: str) -> None:
    """A certificate field holds exactly n entries: an extra one must not
    pass unseen through a zip, nor a missing one raise IndexError."""
    if len(values) != n:
        _fail(f"{what} length {len(values)} differs from {n}")


def check_lp_outcome(lp: LinearProgram, outcome) -> None:
    """Re-verify an LPOutcome against its program, exactly."""
    if isinstance(outcome, Optimal):
        _check_optimal(lp, outcome)
    elif isinstance(outcome, Infeasible):
        _check_infeasible(lp, outcome)
    elif isinstance(outcome, Unbounded):
        _check_unbounded(lp, outcome)
    else:
        _fail(f"unknown outcome {outcome!r}")


# Each vector v is held as (D, V): D > 0 is the lcm of the denominators of
# its nonzero entries, and V maps the index of each nonzero entry to the
# integer D * v_i.  Each row j is held as (L_j, A_j, B_j), the same for its
# coefficients and rhs together, so that row j reads  A_j . x  rel  B_j
# after multiplying by L_j > 0.  Positive scale factors keep every sign, so
# each comparison below is the rational one with its denominators multiplied
# out.  Every variable is free (lower None) or nonnegative (lower 0):
# LinearProgram admits no other bound.


def _scaled(values, n: int, what: str):
    """(D, V) for an exact rational vector of length n: ints and Fractions
    only, since a float or a bool is no certificate entry."""
    _check_length(values, n, what)
    den, nonzero = 1, []
    for i, v in enumerate(values):
        if type(v) is not Fraction and (type(v) is bool or not isinstance(v, (int, Fraction))):
            _fail(f"{what} entry {i} is not an int or a Fraction: {v!r}")
        if v:
            q = v.denominator
            nonzero.append((i, v.numerator, q))
            if den % q:
                den = lcm(den, q)
    return den, {i: p * (den // q) for i, p, q in nonzero}


def _scaled_row(lp: LinearProgram, j: int):
    """(L_j, A_j, B_j) of row j."""
    n = lp.n_vars
    L, A = _scaled(lp.row_coeffs[j] + (lp.row_rhs[j],), n + 1, f"row {j}")
    return L, A, A.pop(n, 0)


def _idot(u: dict, v: dict) -> int:
    """Dot product of two integer vectors held as {index: nonzero}."""
    if len(u) > len(v):
        u, v = v, u
    return sum([a * v[i] for i, a in u.items() if i in v])


def _row_combination(rows, D, Y, E):
    """(E', y.A, y.b) for y_j = Y_j / D, the last two times E', the lcm of E
    and of every D * L_j with Y_j != 0; y.A is held as {index: value}."""
    for j in Y:
        E = lcm(E, D * rows[j][0])
    combo, total = {}, 0
    for j, yj in Y.items():
        L, A, B = rows[j]
        w = yj * (E // (D * L))
        total += w * B
        for i, a in A.items():
            combo[i] = combo.get(i, 0) + w * a
    return E, combo, total


def _check_feasible_point(lp: LinearProgram, rows, point) -> list:
    """Check A x rel b and the lower bounds; return each row's integer
    slack A_j . X - B_j * D_x, which has the sign of (a_j . x - b_j)."""
    Dx, X = point
    slack = []
    for j, ((L, A, B), rel) in enumerate(zip(rows, lp.row_rels)):
        lhs, rhs = _idot(A, X), B * Dx
        ok = lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs
        if not ok:
            _fail(f"row {j} violated: {Fraction(lhs, L * Dx)} {rel} {frac(lp.row_rhs[j])}")
        slack.append(lhs - rhs)
    for i, v in X.items():
        if v < 0 and lp.lower[i] is not None:
            _fail(f"lower bound violated on var {i}")
    return slack


def _min_objective(lp: LinearProgram):
    """(D_c, C) of the objective, negated for a max."""
    Dc, C = _scaled(lp.objective, lp.n_vars, "objective")
    if lp.sense != MIN:
        C = {i: -v for i, v in C.items()}
    return Dc, C


def _check_optimal(lp: LinearProgram, out: Optimal) -> None:
    rows = [_scaled_row(lp, j) for j in range(lp.n_rows)]
    Dx, X = point = _scaled(out.point, lp.n_vars, "point")
    Dy, Y = _scaled(out.row_duals, lp.n_rows, "dual vector")
    slack = _check_feasible_point(lp, rows, point)
    Dc, C = _min_objective(lp)
    value_min = _idot(C, X)  # c.x times Dc * Dx
    Dv, V = _scaled((out.value,), 1, "value")
    reported = V.get(0, 0) if lp.sense == MIN else -V.get(0, 0)
    if value_min * Dv != reported * Dc * Dx:
        _fail("objective value mismatch")

    # dual sign conditions and row complementary slackness
    for j, yj in Y.items():
        rel = lp.row_rels[j]
        if rel == GE and yj < 0:
            _fail(f"dual sign on >= row {j}")
        if rel == LE and yj > 0:
            _fail(f"dual sign on <= row {j}")
        if slack[j]:
            _fail(f"complementary slackness fails on row {j}")

    # reduced costs d = c - y.A, column by column over the rows with a
    # nonzero dual, and the dual objective y.b, both times E
    E, yA, dual_value = _row_combination(rows, Dy, Y, Dc)
    d = {i: v * (E // Dc) for i, v in C.items()}
    for i, v in yA.items():
        d[i] = d.get(i, 0) - v
    for i in sorted(d):
        if d[i] > 0:
            # the lower bound is 0, so it adds nothing to the dual value
            if lp.lower[i] is None or i in X:
                _fail(f"positive reduced cost but var {i} not at lower bound")
        elif d[i] < 0:
            _fail(f"negative reduced cost on var {i}, which has no upper bound")
    if dual_value * Dc * Dx != value_min * E:
        _fail("strong duality equality fails")


def _check_infeasible(lp: LinearProgram, out: Infeasible) -> None:
    n = lp.n_vars
    Dw, W = _scaled(out.farkas_rows, lp.n_rows, "farkas rows")
    Dz, Z = _scaled(out.farkas_lower, n, "farkas lower")
    _, Zup = _scaled(out.farkas_upper, n, "farkas upper")
    for j, wj in W.items():
        rel = lp.row_rels[j]
        if rel == GE and wj < 0:
            _fail("farkas sign on >= row")
        if rel == LE and wj > 0:
            _fail("farkas sign on <= row")

    # w.A + zlo and w.b + zlo.lower, times E; the lower bounds are 0
    rows = {j: _scaled_row(lp, j) for j in W}
    E, combo, rhs_total = _row_combination(rows, Dw, W, Dz)
    for i in sorted(Z.keys() | Zup.keys()):
        zl = Z.get(i, 0)
        if zl < 0:
            _fail("farkas bound multiplier sign")
        if zl and lp.lower[i] is None:
            _fail("farkas uses absent lower bound")
        if i in Zup:
            _fail("farkas uses absent upper bound")
        combo[i] = combo.get(i, 0) + zl * (E // Dz)
    if any(combo.values()):
        _fail("farkas combination does not vanish")
    if not rhs_total > 0:
        _fail("farkas aggregate rhs not positive")


def _check_unbounded(lp: LinearProgram, out: Unbounded) -> None:
    rows = [_scaled_row(lp, j) for j in range(lp.n_rows)]
    _check_feasible_point(lp, rows, _scaled(out.point, lp.n_vars, "point"))
    _, R = _scaled(out.ray, lp.n_vars, "ray")
    for j, ((_, A, _), rel) in enumerate(zip(rows, lp.row_rels)):
        lhs = _idot(A, R)
        ok = lhs <= 0 if rel == LE else lhs >= 0 if rel == GE else lhs == 0
        if not ok:
            _fail(f"ray violates row {j}")
    for i, v in R.items():
        if v < 0 and lp.lower[i] is not None:
            _fail(f"ray decreases var {i} with finite lower bound")
    if not _idot(_min_objective(lp)[1], R) < 0:
        _fail("ray does not improve the objective")


# ---------------------------------------------------------------------------
# market / arbitrage / pricing certificates
# ---------------------------------------------------------------------------
# A matrix of N rows over n atoms is held flat: entry (i, w) at i * n + w.


def _gains_bases(market, cone=None, agent=None):
    """The gains bases of a certificate's rows: every agent's under a cone,
    else agent ``agent``'s alone, else the pooled market's."""
    if cone is not None:
        return market.gains
    if agent is not None:
        return [gains_basis(market, agent)]
    return market.full_market.gains


def _combination(D, C, gens):
    """(E, V) of sum_k (C_k / D) * gens[k] over the generators' ``scaled``
    forms; V may hold zeros where terms cancel."""
    return _row_combination({k: (*gens[k].scaled, 0) for k in C}, D, C, 1)[:2]


def _equal(a, b) -> bool:
    """Two (D, V) vectors are the same rational vector."""
    (Da, A), (Db, B) = a, b
    return all(A.get(k, 0) * Db == B.get(k, 0) * Da for k in A.keys() | B.keys())


def _scalar(v, what: str) -> Fraction:
    D, V = _scaled((v,), 1, what)
    return Fraction(V.get(0, 0), D)


def _rdot(a, b) -> Fraction:
    """Exact dot product of two rational vectors of one length."""
    (Da, A), (Db, B) = _scaled(a, len(a), "row"), _scaled(b, len(a), "row")
    return Fraction(_idot(A, B), Da * Db)


def _check_dual_rows(rows, bases, cone, weight, strict, mass, what) -> None:
    """Dual rows polar to the gains and to ``cone`` (None for no cone): one
    row per gains basis, with one entry per atom weight, each entry > 0
    (``strict``) or >= 0.  ``mass`` is "row" when each row sums to one,
    "total" when all rows together have unit mass under ``weight``, and
    None for no mass rule.
    Weighted by ``weight``, each row has zero value against every generator
    of its basis, and the rows together are <= 0 on each ray and = 0 on
    each lineality generator."""
    if len(rows) != len(bases):
        _fail(f"{what} row count mismatch")
    n = len(weight)
    Dw, P = _scaled(weight, n, "atom weights")
    scaled = []
    for row, gens in zip(rows, bases):
        if len(row) != n:
            _fail(f"{what} row length mismatch")
        D, R = _scaled(row, n, what)
        if strict and len(R) < n or any(v < 0 for v in R.values()):
            _fail(f"{what} not strictly positive" if strict else f"{what} has a negative entry")
        if mass == "row" and sum(R.values()) != D:
            _fail(f"{what} row does not sum to one")
        # the weighted row, times D and the weights' common denominator
        Q = {w: v * P[w] for w, v in R.items() if w in P}
        if any(_idot(Q, g.scaled[1]) for g in gens):
            _fail(f"{what} not orthogonal to a gains generator")
        scaled.append((D, R, Q))
    E = 1
    for D, _, _ in scaled:
        E = lcm(E, D)
    if mass == "total" and sum(sum(Q.values()) * (E // D) for D, _, Q in scaled) != E * Dw:
        _fail(f"{what} rows do not sum to one in total")
    if cone is not None:
        flat = {i * n + w: v * (E // D) for i, (D, _, Q) in enumerate(scaled)
                for w, v in Q.items()}

        def value(gen):
            return _idot(flat, gen.scaled[1])

        if any(value(r) > 0 for r in cone.rays):
            _fail(f"{what} positive against a cone ray")
        if any(value(l) for l in cone.lineality):
            _fail(f"{what} not orthogonal to the cone lineality")


def _exchange_rows(cone, ray_coeffs, lin_coeffs, reported, what):
    """The exchange's rows, flat (E, V), from its coefficients, which are
    nonnegative on the rays; the reported rows must equal them."""
    N, n, n_rays = cone.n_agents, cone.n_atoms, len(cone.rays)
    _check_length(ray_coeffs, n_rays, "exchange ray coefficients")
    _check_length(lin_coeffs, len(cone.lineality), "exchange lineality coefficients")
    D, C = _scaled((*ray_coeffs, *lin_coeffs), len(cone.generators), "exchange coefficients")
    if any(v < 0 for k, v in C.items() if k < n_rays):
        _fail("negative coefficient on a cone ray")
    rows = _combination(D, C, cone.generators)
    if (reported is None or len(reported) != N or any(len(r) != n for r in reported)
            or not _equal(_scaled([v for r in reported for v in r], N * n, what), rows)):
        _fail(f"{what} rows differ from their coefficients")
    return rows


def _payoff_rows(bases, coeffs, reported, n_atoms, exchange=None) -> list:
    """Each row's gains from its strategy coefficients, checked against the
    reported gains rows when they are given, plus the exchange's row when
    there is an exchange (flat, as ``_exchange_rows`` returns it); each row
    as (D, V)."""
    _check_length(coeffs, len(bases), "strategy rows")
    if reported is not None:
        _check_length(reported, len(bases), "gains rows")
    rows = []
    for i, gens in enumerate(bases):
        D, V = _combination(*_scaled(coeffs[i], len(gens), "strategy"), gens)
        if reported is not None and (
                len(reported[i]) != n_atoms
                or not _equal(_scaled(reported[i], n_atoms, "gains row"), (D, V))):
            _fail("reported gains row differs from recomputation")
        if exchange is not None:
            Dx, X = exchange
            lo = i * n_atoms
            L = lcm(D, Dx)
            V = {w: v * (L // D) for w, v in V.items()}
            for k, v in X.items():
                if lo <= k < lo + n_atoms:
                    V[k - lo] = V.get(k - lo, 0) + v * (L // Dx)
            D = L
        rows.append((D, V))
    return rows


def _cash(m, shared_m, what):
    """(D, M) of cash m and its cost: the total, or with ``shared_m`` the
    one amount that every m_i must hold."""
    D, M = _scaled(m, len(m), f"{what} cash")
    if shared_m and any(M.get(i, 0) != M.get(0, 0) for i in range(len(m))):
        _fail(f"{what} cash differs between the claim rows")
    return D, M, Fraction(M.get(0, 0) if shared_m else sum(M.values()), D)


def _check_hedge(m, payoff, claim_rows, value, what, shared_m=False) -> None:
    """Cash m at a cost (``_cash``) of ``value``, and m_i + payoff_i >=
    claim_i."""
    Dm, M, cost = _cash(m, shared_m, what)
    if cost != _scalar(value, "value"):
        _fail(f"{what} cost does not match the reported value")
    for i, ((D, P), claim) in enumerate(zip(payoff, claim_rows)):
        n = len(claim)
        Dc, C = _scaled(claim, n, "claim row")
        L = lcm(Dm, D, Dc)
        cash, fp, fc = M.get(i, 0) * (L // Dm), L // D, L // Dc
        if any(cash + P.get(w, 0) * fp < C.get(w, 0) * fc for w in range(n)):
            _fail(f"{what} fails to dominate a claim")


def verify_arbitrage_found(market, cert, cone=None, agent=None) -> None:
    """Recompute the gains (and exchange) from the reported coefficients and
    check: every row nonnegative, total strictly positive."""
    ex = None
    if cone is not None:
        e = cert.exchange
        if e is None:
            _fail("arbitrage under a cone reports no exchange")
        ex = _exchange_rows(cone, e.ray_coeffs, e.lin_coeffs, e.rows, "reported exchange")
    rows = _payoff_rows(_gains_bases(market, cone, agent), cert.strategy_coeffs,
                        cert.gains_rows, market.n_atoms, ex)
    if any(v < 0 for _, V in rows for v in V.values()):
        _fail("arbitrage payoff negative somewhere")
    if not any(v for _, V in rows for v in V.values()):
        _fail("arbitrage payoff not strictly positive anywhere")


def verify_single_market_witness(market, q_row, agent=None) -> None:
    """Strictly positive probability row killing every gains generator."""
    _check_dual_rows((q_row,), _gains_bases(market, agent=agent), None,
                     (1,) * market.n_atoms, True, "row", "witness")


def verify_polar_witness(market, cone, rows, strict=True) -> None:
    """Element of the polar of the super-replicable set: nonnegative (or
    strictly positive) rows, zero value against every agent's gains
    generators, nonpositive against rays, zero against lineality; values
    are taken under the reference probability, under which the rows
    together have unit mass."""
    _check_dual_rows(rows, market.gains, cone, market.space.prob, strict, "total",
                     "polar witness")


def verify_measure_vector(market, cone, mv, strict=True) -> None:
    """Vector of martingale measures satisfying the cone polarity."""
    _check_dual_rows(mv.densities, market.gains, cone, (1,) * market.n_atoms, strict, "row",
                     "measure")


def _hedge_payoff(bases, cone, h, n_atoms, what) -> list:
    """The payoff rows of hedge ``h`` (a ``pricing.PrimalOptimizer``): its
    gains plus, under a cone, its exchange; ``what`` names it."""
    for field in ("m", "strategy_coeffs", "gains_rows"):
        _check_length(getattr(h, field), len(bases), f"{what} {field}")
    ex = None
    if cone is not None:
        ex = _exchange_rows(cone, h.ray_coeffs, h.lin_coeffs, h.exchange_rows, f"{what} exchange")
    return _payoff_rows(bases, h.strategy_coeffs, h.gains_rows, n_atoms, ex)


def verify_primal_optimizer(market, cone, g, opt, value) -> None:
    """Recompute every row of m + gains + exchange and check domination of
    the claims and the reported total cost."""
    payoff = _hedge_payoff(market.gains, cone, opt, market.n_atoms, "optimizer")
    _check_hedge(opt.m, payoff, g.rows, value, "optimizer")


def verify_price_certificate(market, cone, claim_rows, cert, agent=None,
                             shared_m=False) -> None:
    """Both sides of a super-replication price (``pricing.PriceCertificate``)
    on ``claim_rows``: the collective program of ``cone``, or with ``agent``
    that agent's single-market program (one claim row, no cone), with one
    cash amount for every row when ``shared_m``.

    A finite price needs its hedge to dominate the claims at that cost, and
    its measure rows to be martingale measures polar to the cone, of mass
    one per row (in total when ``shared_m``), under which the claims' total
    expectation is the price: by weak duality no hedge costs less.  -inf
    needs its ray, a hedge of the zero claim at negative cost, which any
    hedge may add at every scale."""
    bases = _gains_bases(market, cone, agent)
    h, n = cert.hedge, market.n_atoms
    payoff = _hedge_payoff(bases, cone, h, n, "hedge")
    if cert.value.finite:
        value = cert.value.value
        _check_hedge(h.m, payoff, claim_rows, value, "hedge", shared_m)
        if cert.measures is None:
            _fail("finite price without measure rows")
        _check_dual_rows(cert.measures, bases, cone, (1,) * n, False,
                         "total" if shared_m else "row", "price measure")
        if sum((_rdot(q, c) for q, c in zip(cert.measures, claim_rows)), ZERO) != value:
            _fail("claims' expectation under the price measures differs from the price")
    elif cert.value == Ext.neg_inf():
        cost = _cash(h.m, shared_m, "price ray")[2]
        if not cost < 0:
            _fail("price ray does not lower the cash")
        _check_hedge(h.m, payoff, [(ZERO,) * n] * len(bases), cost, "price ray", shared_m)
    else:
        _fail(f"super-replication price {cert.value} has no certificate")


def verify_fairness(market, cone, g, fr) -> None:
    """Re-check every fairness identity from raw data."""
    N = market.n_agents
    for field in ("m_tilde", "allocations", "per_agent_prices", "k_tilde_coeffs", "shift"):
        _check_length(getattr(fr, field), N, f"fairness {field}")
    verify_measure_vector(market, cone, fr.q_hat, strict=False)
    verify_primal_optimizer(market, cone, g, fr.raw, fr.value)
    q = fr.q_hat.densities
    if sum(_scaled(fr.shift, N, "fairness shift")[1].values()) != 0:
        _fail("raw exchange dual costs do not net to zero")
    for i in range(N):
        if _rdot(q[i], fr.raw.exchange_rows[i]) != _scalar(fr.shift[i], "fairness shift"):
            _fail("shift differs from the exchange's dual cost")
        expectation = _rdot(q[i], g.rows[i])
        for field in ("m_tilde", "allocations", "per_agent_prices"):
            if _scalar(getattr(fr, field)[i], f"fairness {field}") != expectation:
                _fail(f"fairness {field} differs from the dual expectation of the claim")

    # the canonical exchange: a cone element, zero dual cost per agent, and
    # together with its strategies it dominates the claims at the fair costs
    ex = _exchange_rows(cone, fr.y_tilde_ray_coeffs, fr.y_tilde_lin_coeffs, fr.y_tilde_rows,
                        "canonical exchange")
    if any(_rdot(q_i, ex_i) for q_i, ex_i in zip(q, fr.y_tilde_rows)):
        _fail("canonical exchange has nonzero cost under the dual measure")
    payoff = _payoff_rows(market.gains, fr.k_tilde_coeffs, None, market.n_atoms, ex)
    _check_hedge(fr.m_tilde, payoff, g.rows, fr.value, "canonical optimizer")
