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
    if len(values) != n:
        _fail(f"{what} length {len(values)} differs from {n}")
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
    E = Dc
    for j in Y:
        E = lcm(E, Dy * rows[j][0])
    d = {i: v * (E // Dc) for i, v in C.items()}
    dual_value = 0
    for j, yj in Y.items():
        L, A, B = rows[j]
        w = yj * (E // (Dy * L))
        dual_value += w * B
        for i, a in A.items():
            d[i] = d.get(i, 0) - w * a
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
    E = Dz
    for j, (L, _, _) in rows.items():
        E = lcm(E, Dw * L)
    combo, rhs_total = {}, 0
    for j, wj in W.items():
        L, A, B = rows[j]
        w = wj * (E // (Dw * L))
        for i, a in A.items():
            combo[i] = combo.get(i, 0) + w * a
        rhs_total += w * B
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


def _check_length(values, n: int, what: str) -> None:
    """A certificate field holds exactly n entries: an extra one must not
    pass unseen through a zip, nor a missing one raise IndexError."""
    if len(values) != n:
        _fail(f"{what} length {len(values)} differs from {n}")


def _combine(gens, coeffs, n_atoms):
    _check_length(coeffs, len(gens), "strategy")
    row = [ZERO] * n_atoms
    for g, c in zip(gens, coeffs):
        if c:
            for w in range(n_atoms):
                row[w] += frac(c) * g.vector[w]
    return tuple(row)


def _exchange_rows(cone, ray_coeffs, lin_coeffs):
    n, N = cone.n_atoms, cone.n_agents
    _check_length(ray_coeffs, len(cone.rays), "exchange ray coefficients")
    _check_length(lin_coeffs, len(cone.lineality), "exchange lineality coefficients")
    rows = [[ZERO] * n for _ in range(N)]
    for c, g in zip(ray_coeffs, cone.rays):
        if frac(c) < 0:
            _fail("negative coefficient on a cone ray")
        for i in range(N):
            for w in range(n):
                rows[i][w] += frac(c) * g.rows[i][w]
    for c, g in zip(lin_coeffs, cone.lineality):
        for i in range(N):
            for w in range(n):
                rows[i][w] += frac(c) * g.rows[i][w]
    return tuple(tuple(r) for r in rows)


def verify_arbitrage_found(market, cert, cone=None, agent=None) -> None:
    """Recompute the gains (and exchange) from the reported coefficients and
    check: every row nonnegative, total strictly positive."""
    if agent is None and cone is None:
        bases = market.full_market.gains
    elif cone is None:
        bases = [gains_basis(market, agent)]
    else:
        bases = market.gains
    _check_length(cert.strategy_coeffs, len(bases), "strategy rows")
    if cert.gains_rows is not None:
        _check_length(cert.gains_rows, len(bases), "gains rows")
    rows = []
    for i, gens in enumerate(bases):
        row = _combine(gens, cert.strategy_coeffs[i], market.n_atoms)
        if cert.gains_rows is not None and tuple(cert.gains_rows[i]) != row:
            _fail("reported gains row differs from recomputation")
        rows.append(list(row))
    if cone is not None:
        ex = _exchange_rows(cone, cert.exchange.ray_coeffs, cert.exchange.lin_coeffs)
        if tuple(tuple(r) for r in cert.exchange.rows) != ex:
            _fail("reported exchange rows differ from recomputation")
        for i in range(len(rows)):
            for w in range(market.n_atoms):
                rows[i][w] += ex[i][w]
    total = ZERO
    for row in rows:
        for v in row:
            if v < 0:
                _fail("arbitrage payoff negative somewhere")
            total += v
    if not total > 0:
        _fail("arbitrage payoff not strictly positive anywhere")


def verify_single_market_witness(market, q_row, agent=None) -> None:
    """Strictly positive probability row killing every gains generator."""
    gens = market.full_market.gains[0] if agent is None else gains_basis(market, agent)
    if len(q_row) != market.n_atoms:
        _fail("witness length mismatch")
    if any(frac(v) <= 0 for v in q_row):
        _fail("witness not strictly positive")
    if sum(map(frac, q_row)) != 1:
        _fail("witness does not sum to one")
    for g in gens:
        if _dot(q_row, g.vector) != 0:
            _fail("witness expectation of a zero-cost gain is nonzero")


def verify_polar_witness(market, cone, rows, strict=True) -> None:
    """Element of the polar of the super-replicable set: nonnegative (or
    strictly positive) rows, zero value against every agent's gains
    generators, nonpositive against rays, zero against lineality."""
    P = market.space.prob
    N, n = market.n_agents, market.n_atoms
    if len(rows) != N:
        _fail("polar witness row count mismatch")
    for row in rows:
        if len(row) != n:
            _fail("polar witness row length mismatch")
        for v in row:
            if strict and frac(v) <= 0:
                _fail("polar witness not strictly positive")
            if not strict and frac(v) < 0:
                _fail("polar witness negative")

    def weighted(i, vec):
        return sum((P[w] * frac(rows[i][w]) * frac(vec[w]) for w in range(n)), ZERO)

    for i, gens in enumerate(market.gains):
        for g in gens:
            if weighted(i, g.vector) != 0:
                _fail("polar witness not orthogonal to a gains generator")
    for r in cone.rays:
        if sum((weighted(i, r.rows[i]) for i in range(N)), ZERO) > 0:
            _fail("polar witness positive against a cone ray")
    for l in cone.lineality:
        if sum((weighted(i, l.rows[i]) for i in range(N)), ZERO) != 0:
            _fail("polar witness not orthogonal to the cone lineality")


def verify_measure_vector(market, cone, mv, strict=True) -> None:
    """Vector of martingale measures satisfying the cone polarity."""
    N, n = market.n_agents, market.n_atoms
    rows = mv.densities
    if len(rows) != N:
        _fail("measure vector row count mismatch")
    for row in rows:
        if len(row) != n:
            _fail("measure row length mismatch")
        for v in row:
            if strict and frac(v) <= 0:
                _fail("measure not strictly positive")
            if not strict and frac(v) < 0:
                _fail("measure has a negative probability")
        if sum(map(frac, row)) != 1:
            _fail("measure row does not sum to one")
    for i, gens in enumerate(market.gains):
        for g in gens:
            if _dot(rows[i], g.vector) != 0:
                _fail("martingale equality fails for a gains generator")
    for r in cone.rays:
        total = sum((_dot(rows[i], r.rows[i]) for i in range(N)), ZERO)
        if total > 0:
            _fail("polarity inequality fails on a ray")
    for l in cone.lineality:
        total = sum((_dot(rows[i], l.rows[i]) for i in range(N)), ZERO)
        if total != 0:
            _fail("polarity equality fails on a lineality generator")


def verify_primal_optimizer(market, cone, g, opt, value) -> None:
    """Recompute every row of m + gains + exchange and check domination of
    the claims and the reported total cost."""
    n, N = market.n_atoms, market.n_agents
    for field in ("m", "strategy_coeffs", "gains_rows"):
        _check_length(getattr(opt, field), N, f"optimizer {field}")
    if sum(map(frac, opt.m), ZERO) != frac(value):
        _fail("optimizer cost does not match the reported value")
    ex = _exchange_rows(cone, opt.ray_coeffs, opt.lin_coeffs)
    if tuple(tuple(r) for r in opt.exchange_rows) != ex:
        _fail("exchange rows differ from their coefficients")
    for i, gens in enumerate(market.gains):
        gains = _combine(gens, opt.strategy_coeffs[i], n)
        if tuple(opt.gains_rows[i]) != gains:
            _fail("gains rows differ from their coefficients")
        for w in range(n):
            if frac(opt.m[i]) + gains[w] + ex[i][w] < frac(g.rows[i][w]):
                _fail("optimizer fails to dominate a claim")


def verify_fairness(market, cone, g, fr) -> None:
    """Re-check every fairness identity from raw data."""
    N, n = market.n_agents, market.n_atoms
    for field in ("m_tilde", "k_tilde_coeffs", "shift"):
        _check_length(getattr(fr, field), N, f"fairness {field}")
    verify_measure_vector(market, cone, fr.q_hat, strict=False)
    verify_primal_optimizer(market, cone, g, fr.raw, fr.value)
    if sum(map(frac, fr.shift), ZERO) != 0:
        _fail("raw exchange dual costs do not net to zero")
    for i in range(N):
        if _dot(fr.q_hat.densities[i], fr.raw.exchange_rows[i]) != frac(fr.shift[i]):
            _fail("shift differs from the exchange's dual cost")
        if frac(fr.m_tilde[i]) != _dot(fr.q_hat.densities[i], g.rows[i]):
            _fail("allocation differs from the dual expectation of the claim")
    if sum(map(frac, fr.m_tilde), ZERO) != frac(fr.value):
        _fail("allocations do not sum to the collective price")

    # the canonical exchange: a cone element, zero dual cost per agent, and
    # together with its strategies it dominates the claims at the fair costs
    ex = _exchange_rows(cone, fr.y_tilde_ray_coeffs, fr.y_tilde_lin_coeffs)
    if tuple(tuple(r) for r in fr.y_tilde_rows) != ex:
        _fail("canonical exchange rows differ from their coefficients")
    for i in range(N):
        if _dot(fr.q_hat.densities[i], ex[i]) != 0:
            _fail("canonical exchange has nonzero cost under the dual measure")
        gains = _combine(market.gains[i], fr.k_tilde_coeffs[i], n)
        for w in range(n):
            if frac(fr.m_tilde[i]) + gains[w] + ex[i][w] < frac(g.rows[i][w]):
                _fail("canonical optimizer fails to dominate a claim")
