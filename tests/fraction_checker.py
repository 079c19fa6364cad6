"""The dense ``Fraction`` LP certificate checker, kept as a test-only reference.

This is the LP half of ``collective_arb.verify`` (``check_lp_outcome`` and
its ``_check_*`` helpers) as it was before that module moved to integer
arithmetic over nonzeros: every dot product walks the whole dense row in
``Fraction`` arithmetic.  ``tests/test_verify_mutations.py`` runs both
checkers on kernel certificates and on mutants of them and requires the
same verdict.
"""

from fractions import Fraction

from collective_arb.errors import InternalInvariantError
from collective_arb.lp import (GE, LE, MIN, Infeasible, LinearProgram, Optimal, Unbounded,
                               ZERO, frac)


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
