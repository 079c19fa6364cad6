"""Independent certificate checking by plain matrix arithmetic.

Nothing in this module solves an optimisation problem: every check below
recomputes linear expressions exactly and raises InternalInvariantError on
the first violation.  The engine routes all emitted certificates through
these functions, and the test suite uses them as the trusted auditor.
"""

from __future__ import annotations

from fractions import Fraction

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


def _check_feasible_point(lp: LinearProgram, x) -> None:
    for j in range(lp.n_rows):
        lhs = _dot(lp.row_coeffs[j], x)
        rhs = frac(lp.row_rhs[j])
        rel = lp.row_rels[j]
        ok = lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs
        if not ok:
            _fail(f"row {j} violated: {lhs} {rel} {rhs}")
    for i in range(lp.n_vars):
        if lp.lower[i] is not None and x[i] < lp.lower[i]:
            _fail(f"lower bound violated on var {i}")


def _min_objective(lp: LinearProgram):
    sgn = 1 if lp.sense == MIN else -1
    return [sgn * frac(c) for c in lp.objective]


def _check_optimal(lp: LinearProgram, out: Optimal) -> None:
    x, y = out.point, out.row_duals
    _check_feasible_point(lp, x)
    c = _min_objective(lp)
    value_min = _dot(c, x)
    reported = out.value if lp.sense == MIN else -out.value
    if value_min != reported:
        _fail("objective value mismatch")

    # dual sign conditions and row complementary slackness
    for j in range(lp.n_rows):
        rel, yj = lp.row_rels[j], frac(y[j])
        if rel == GE and yj < 0:
            _fail(f"dual sign on >= row {j}")
        if rel == LE and yj > 0:
            _fail(f"dual sign on <= row {j}")
        if yj != 0:
            if _dot(lp.row_coeffs[j], x) != frac(lp.row_rhs[j]):
                _fail(f"complementary slackness fails on row {j}")

    # reduced costs vs bound status; also accumulate the dual objective
    dual_value = sum((frac(y[j]) * frac(lp.row_rhs[j]) for j in range(lp.n_rows)), ZERO)
    for i in range(lp.n_vars):
        d = c[i] - sum((frac(y[j]) * frac(lp.row_coeffs[j][i])
                        for j in range(lp.n_rows)), ZERO)
        if d > 0:
            if lp.lower[i] is None or x[i] != lp.lower[i]:
                _fail(f"positive reduced cost but var {i} not at lower bound")
            dual_value += d * lp.lower[i]
        elif d < 0:
            _fail(f"negative reduced cost on var {i}, which has no upper bound")
    if dual_value != value_min:
        _fail("strong duality equality fails")


def _check_infeasible(lp: LinearProgram, out: Infeasible) -> None:
    w, zlo, zup = out.farkas_rows, out.farkas_lower, out.farkas_upper
    combo = [ZERO] * lp.n_vars
    rhs_total = ZERO
    for j in range(lp.n_rows):
        wj = frac(w[j])
        rel = lp.row_rels[j]
        if rel == GE and wj < 0:
            _fail("farkas sign on >= row")
        if rel == LE and wj > 0:
            _fail("farkas sign on <= row")
        if wj:
            for i, a in enumerate(lp.row_coeffs[j]):
                combo[i] += wj * frac(a)
            rhs_total += wj * frac(lp.row_rhs[j])
    for i in range(lp.n_vars):
        zl = frac(zlo[i])
        if zl < 0:
            _fail("farkas bound multiplier sign")
        if zl and lp.lower[i] is None:
            _fail("farkas uses absent lower bound")
        if frac(zup[i]):
            _fail("farkas uses absent upper bound")
        combo[i] += zl
        if zl:
            rhs_total += zl * lp.lower[i]
    if any(v != 0 for v in combo):
        _fail("farkas combination does not vanish")
    if not rhs_total > 0:
        _fail("farkas aggregate rhs not positive")


def _check_unbounded(lp: LinearProgram, out: Unbounded) -> None:
    _check_feasible_point(lp, out.point)
    d = out.ray
    for j in range(lp.n_rows):
        lhs = _dot(lp.row_coeffs[j], d)
        rel = lp.row_rels[j]
        ok = lhs <= 0 if rel == LE else lhs >= 0 if rel == GE else lhs == 0
        if not ok:
            _fail(f"ray violates row {j}")
    for i in range(lp.n_vars):
        if lp.lower[i] is not None and d[i] < 0:
            _fail(f"ray decreases var {i} with finite lower bound")
    c = _min_objective(lp)
    if not _dot(c, d) < 0:
        _fail("ray does not improve the objective")


# ---------------------------------------------------------------------------
# market / arbitrage / pricing certificates
# ---------------------------------------------------------------------------


def _combine(gens, coeffs, n_atoms):
    row = [ZERO] * n_atoms
    for g, c in zip(gens, coeffs):
        if c:
            for w in range(n_atoms):
                row[w] += frac(c) * g.vector[w]
    return tuple(row)


def _exchange_rows(cone, ray_coeffs, lin_coeffs):
    n, N = cone.n_atoms, cone.n_agents
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
    rows = []
    for i, gens in enumerate(bases):
        if len(cert.strategy_coeffs[i]) != len(gens):
            _fail("strategy length differs from gains basis")
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
    n = market.n_atoms
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
