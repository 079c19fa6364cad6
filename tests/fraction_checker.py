"""The dense ``Fraction`` certificate checkers, kept as a test-only reference.

This is ``collective_arb.verify`` as it was before it moved to integer
arithmetic over nonzeros, the LP half (``check_lp_outcome`` and its
``_check_*`` helpers) and the market-level half (the ``verify_*``
checkers): every dot product walks the whole dense row in ``Fraction``
arithmetic.  ``tests/test_verify_mutations.py`` runs both versions of each
checker on engine certificates and on mutants of them and requires the same
verdict.
"""

from fractions import Fraction

from collective_arb.errors import InternalInvariantError
from collective_arb.ext import Ext
from collective_arb.lp import GE, LE, MIN, Infeasible, LinearProgram, Optimal, Unbounded, ZERO
from collective_arb.market import frac, gains_basis


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
# The market-level half of ``collective_arb.verify`` before it moved to
# integers over nonzeros: every check walks whole dense rows in ``Fraction``
# arithmetic.  Two things were added with the price certificates, in the
# same arithmetic: the "total" mass rule of ``_check_dual_rows`` (for the
# shared-cash pi programs, and under the reference probability for the
# polar witness) with ``_check_hedge``'s shared cash, and
# ``verify_price_certificate``, composed of these checks as in ``verify``.


def _gains_bases(market, cone=None, agent=None):
    if cone is not None:
        return market.gains
    if agent is not None:
        return [gains_basis(market, agent)]
    return market.full_market.gains


def _check_length(values, n: int, what: str) -> None:
    if len(values) != n:
        _fail(f"{what} length {len(values)} differs from {n}")


def _check_dual_rows(rows, bases, cone, weight, strict, mass, what) -> None:
    if len(rows) != len(bases):
        _fail(f"{what} row count mismatch")
    weighted, total = [], ZERO
    for row, gens in zip(rows, bases):
        if len(row) != len(weight):
            _fail(f"{what} row length mismatch")
        row = [frac(v) for v in row]
        if any(v <= 0 if strict else v < 0 for v in row):
            _fail(f"{what} not strictly positive" if strict else f"{what} has a negative entry")
        if mass == "row" and sum(row) != 1:
            _fail(f"{what} row does not sum to one")
        row = [p * v for p, v in zip(weight, row)]
        total += sum(row)
        if any(_dot(row, g.vector) for g in gens):
            _fail(f"{what} not orthogonal to a gains generator")
        weighted.append(row)
    if mass == "total" and total != 1:
        _fail(f"{what} rows do not sum to one in total")
    if cone is not None:
        def value(gen):
            return sum((_dot(row, r) for row, r in zip(weighted, gen.rows)), ZERO)

        if any(value(r) > 0 for r in cone.rays):
            _fail(f"{what} positive against a cone ray")
        if any(value(l) for l in cone.lineality):
            _fail(f"{what} not orthogonal to the cone lineality")


def _exchange_rows(cone, ray_coeffs, lin_coeffs, reported, what):
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


def _cash(m, shared_m, what) -> Fraction:
    m = [frac(v) for v in m]
    if shared_m and any(v != m[0] for v in m):
        _fail(f"{what} cash differs between the claim rows")
    return m[0] if shared_m else sum(m, ZERO)


def _check_hedge(m, payoff, claim_rows, value, what, shared_m=False) -> None:
    if _cash(m, shared_m, what) != frac(value):
        _fail(f"{what} cost does not match the reported value")
    for m_i, row, claim in zip(m, payoff, claim_rows):
        m_i = frac(m_i)
        if any(m_i + v < frac(c) for v, c in zip(row, claim)):
            _fail(f"{what} fails to dominate a claim")


def verify_arbitrage_found(market, cert, cone=None, agent=None) -> None:
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
    _check_dual_rows((q_row,), _gains_bases(market, agent=agent), None,
                     (1,) * market.n_atoms, True, "row", "witness")


def verify_polar_witness(market, cone, rows, strict=True) -> None:
    _check_dual_rows(rows, market.gains, cone, market.space.prob, strict, "total",
                     "polar witness")


def verify_measure_vector(market, cone, mv, strict=True) -> None:
    _check_dual_rows(mv.densities, market.gains, cone, (1,) * market.n_atoms, strict, "row",
                     "measure")


def _hedge_payoff(bases, cone, h, n_atoms, what) -> list:
    for field in ("m", "strategy_coeffs", "gains_rows"):
        _check_length(getattr(h, field), len(bases), f"{what} {field}")
    ex = None
    if cone is not None:
        ex = _exchange_rows(cone, h.ray_coeffs, h.lin_coeffs, h.exchange_rows, f"{what} exchange")
    return _payoff_rows(bases, h.strategy_coeffs, h.gains_rows, n_atoms, ex)


def verify_primal_optimizer(market, cone, g, opt, value) -> None:
    payoff = _hedge_payoff(market.gains, cone, opt, market.n_atoms, "optimizer")
    _check_hedge(opt.m, payoff, g.rows, value, "optimizer")


def verify_price_certificate(market, cone, claim_rows, cert, agent=None,
                             shared_m=False) -> None:
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
        if sum((_dot(q, c) for q, c in zip(cert.measures, claim_rows)), ZERO) != value:
            _fail("claims' expectation under the price measures differs from the price")
    elif cert.value == Ext.neg_inf():
        cost = _cash(h.m, shared_m, "price ray")
        if not cost < 0:
            _fail("price ray does not lower the cash")
        _check_hedge(h.m, payoff, [(ZERO,) * n] * len(bases), cost, "price ray", shared_m)
    else:
        _fail(f"super-replication price {cert.value} has no certificate")


def verify_fairness(market, cone, g, fr) -> None:
    for field in ("m_tilde", "allocations", "per_agent_prices", "k_tilde_coeffs", "shift"):
        _check_length(getattr(fr, field), market.n_agents, f"fairness {field}")
    verify_measure_vector(market, cone, fr.q_hat, strict=False)
    verify_primal_optimizer(market, cone, g, fr.raw, fr.value)
    q = fr.q_hat.densities
    if sum(map(frac, fr.shift), ZERO) != 0:
        _fail("raw exchange dual costs do not net to zero")
    for i in range(market.n_agents):
        if _dot(q[i], fr.raw.exchange_rows[i]) != frac(fr.shift[i]):
            _fail("shift differs from the exchange's dual cost")
        for field in ("m_tilde", "allocations", "per_agent_prices"):
            if frac(getattr(fr, field)[i]) != _dot(q[i], g.rows[i]):
                _fail(f"fairness {field} differs from the dual expectation of the claim")
    ex = _exchange_rows(cone, fr.y_tilde_ray_coeffs, fr.y_tilde_lin_coeffs, fr.y_tilde_rows,
                        "canonical exchange")
    if any(_dot(q_i, ex_i) for q_i, ex_i in zip(q, ex)):
        _fail("canonical exchange has nonzero cost under the dual measure")
    payoff = _payoff_rows(market.gains, fr.k_tilde_coeffs, None, market.n_atoms, ex)
    _check_hedge(fr.m_tilde, payoff, g.rows, fr.value, "canonical optimizer")
