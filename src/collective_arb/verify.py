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

The market-level checkers share two checks, since a single market is the
one-row, no-cone case of each collective certificate: ``_check_dual_rows``
for witness, measure and polar rows, and ``_payoff_rows`` (gains plus an
exchange) for arbitrages and hedges.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalInvariantError
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


def _dot(a, b) -> Fraction:
    return sum((frac(x) * frac(y) for x, y in zip(a, b)), ZERO)


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


def _gains_bases(market, cone=None, agent=None):
    """The gains bases of a certificate's rows: every agent's under a cone,
    else agent ``agent``'s alone, else the pooled market's."""
    if cone is not None:
        return market.gains
    if agent is not None:
        return [gains_basis(market, agent)]
    return market.full_market.gains


def _check_dual_rows(rows, bases, cone, weight, strict, mass_one, what) -> None:
    """Dual rows polar to the gains and to ``cone`` (None for no cone): one
    row per gains basis, with one entry per atom weight, each entry > 0
    (``strict``) or >= 0, each row summing to one under ``mass_one``.
    Weighted by ``weight``, each row has zero value against every generator
    of its basis, and the rows together are <= 0 on each ray and = 0 on
    each lineality generator."""
    if len(rows) != len(bases):
        _fail(f"{what} row count mismatch")
    weighted = []
    for row, gens in zip(rows, bases):
        if len(row) != len(weight):
            _fail(f"{what} row length mismatch")
        row = [frac(v) for v in row]
        if any(v <= 0 if strict else v < 0 for v in row):
            _fail(f"{what} not strictly positive" if strict else f"{what} has a negative entry")
        if mass_one and sum(row) != 1:
            _fail(f"{what} row does not sum to one")
        row = [p * v for p, v in zip(weight, row)]
        if any(_dot(row, g.vector) for g in gens):
            _fail(f"{what} not orthogonal to a gains generator")
        weighted.append(row)
    if cone is not None:
        def value(gen):
            return sum((_dot(row, r) for row, r in zip(weighted, gen.rows)), ZERO)

        if any(value(r) > 0 for r in cone.rays):
            _fail(f"{what} positive against a cone ray")
        if any(value(l) for l in cone.lineality):
            _fail(f"{what} not orthogonal to the cone lineality")


def _exchange_rows(cone, ray_coeffs, lin_coeffs, reported, what):
    """The exchange's rows from its coefficients, which are nonnegative on
    the rays; the reported rows must equal them."""
    _check_length(ray_coeffs, len(cone.rays), "exchange ray coefficients")
    _check_length(lin_coeffs, len(cone.lineality), "exchange lineality coefficients")
    if any(frac(c) < 0 for c in ray_coeffs):
        _fail("negative coefficient on a cone ray")
    rows = [[ZERO] * cone.n_atoms for _ in range(cone.n_agents)]
    for c, g in zip((*ray_coeffs, *lin_coeffs), cone.generators):
        c = frac(c)
        if c:
            for row, gen_row in zip(rows, g.rows):
                for w, v in enumerate(gen_row):
                    row[w] += c * v
    rows = tuple(tuple(r) for r in rows)
    if tuple(tuple(r) for r in reported) != rows:
        _fail(f"{what} rows differ from their coefficients")
    return rows


def _payoff_rows(bases, coeffs, reported, n_atoms, exchange=None) -> list:
    """Each row's gains from its strategy coefficients, checked against the
    reported gains rows when they are given, plus the exchange's row when
    there is an exchange."""
    _check_length(coeffs, len(bases), "strategy rows")
    if reported is not None:
        _check_length(reported, len(bases), "gains rows")
    rows = []
    for i, gens in enumerate(bases):
        _check_length(coeffs[i], len(gens), "strategy")
        row = [ZERO] * n_atoms
        for g, c in zip(gens, coeffs[i]):
            if c:
                for w in range(n_atoms):
                    row[w] += frac(c) * g.vector[w]
        if reported is not None and tuple(reported[i]) != tuple(row):
            _fail("reported gains row differs from recomputation")
        if exchange is not None:
            row = [v + e for v, e in zip(row, exchange[i])]
        rows.append(row)
    return rows


def _check_hedge(m, payoff, claims, value, what) -> None:
    """Cash m at a total cost of ``value``, and m_i + payoff_i >= claim_i."""
    if sum(map(frac, m), ZERO) != frac(value):
        _fail(f"{what} cost does not match the reported value")
    for m_i, row, claim in zip(m, payoff, claims.rows):
        m_i = frac(m_i)
        if any(m_i + v < frac(c) for v, c in zip(row, claim)):
            _fail(f"{what} fails to dominate a claim")


def verify_arbitrage_found(market, cert, cone=None, agent=None) -> None:
    """Recompute the gains (and exchange) from the reported coefficients and
    check: every row nonnegative, total strictly positive."""
    ex = None
    if cone is not None:
        e = cert.exchange
        ex = _exchange_rows(cone, e.ray_coeffs, e.lin_coeffs, e.rows, "reported exchange")
    rows = _payoff_rows(_gains_bases(market, cone, agent), cert.strategy_coeffs,
                        cert.gains_rows, market.n_atoms, ex)
    if any(v < 0 for row in rows for v in row):
        _fail("arbitrage payoff negative somewhere")
    if not sum(map(sum, rows)) > 0:
        _fail("arbitrage payoff not strictly positive anywhere")


def verify_single_market_witness(market, q_row, agent=None) -> None:
    """Strictly positive probability row killing every gains generator."""
    _check_dual_rows((q_row,), _gains_bases(market, agent=agent), None,
                     (1,) * market.n_atoms, True, True, "witness")


def verify_polar_witness(market, cone, rows, strict=True) -> None:
    """Element of the polar of the super-replicable set: nonnegative (or
    strictly positive) rows, zero value against every agent's gains
    generators, nonpositive against rays, zero against lineality; values
    are taken under the reference probability."""
    _check_dual_rows(rows, market.gains, cone, market.space.prob, strict, False,
                     "polar witness")


def verify_measure_vector(market, cone, mv, strict=True) -> None:
    """Vector of martingale measures satisfying the cone polarity."""
    _check_dual_rows(mv.densities, market.gains, cone, (1,) * market.n_atoms, strict, True,
                     "measure")


def verify_primal_optimizer(market, cone, g, opt, value) -> None:
    """Recompute every row of m + gains + exchange and check domination of
    the claims and the reported total cost."""
    for field in ("m", "strategy_coeffs", "gains_rows"):
        _check_length(getattr(opt, field), market.n_agents, f"optimizer {field}")
    ex = _exchange_rows(cone, opt.ray_coeffs, opt.lin_coeffs, opt.exchange_rows, "exchange")
    payoff = _payoff_rows(market.gains, opt.strategy_coeffs, opt.gains_rows, market.n_atoms, ex)
    _check_hedge(opt.m, payoff, g, value, "optimizer")


def verify_fairness(market, cone, g, fr) -> None:
    """Re-check every fairness identity from raw data."""
    for field in ("m_tilde", "k_tilde_coeffs", "shift"):
        _check_length(getattr(fr, field), market.n_agents, f"fairness {field}")
    verify_measure_vector(market, cone, fr.q_hat, strict=False)
    verify_primal_optimizer(market, cone, g, fr.raw, fr.value)
    q = fr.q_hat.densities
    if sum(map(frac, fr.shift), ZERO) != 0:
        _fail("raw exchange dual costs do not net to zero")
    for i in range(market.n_agents):
        if _dot(q[i], fr.raw.exchange_rows[i]) != frac(fr.shift[i]):
            _fail("shift differs from the exchange's dual cost")
        if frac(fr.m_tilde[i]) != _dot(q[i], g.rows[i]):
            _fail("allocation differs from the dual expectation of the claim")

    # the canonical exchange: a cone element, zero dual cost per agent, and
    # together with its strategies it dominates the claims at the fair costs
    ex = _exchange_rows(cone, fr.y_tilde_ray_coeffs, fr.y_tilde_lin_coeffs, fr.y_tilde_rows,
                        "canonical exchange")
    if any(_dot(q_i, ex_i) for q_i, ex_i in zip(q, ex)):
        _fail("canonical exchange has nonzero cost under the dual measure")
    payoff = _payoff_rows(market.gains, fr.k_tilde_coeffs, None, market.n_atoms, ex)
    _check_hedge(fr.m_tilde, payoff, g, fr.value, "canonical optimizer")
