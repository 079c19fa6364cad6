"""The checker must reject tampered certificates of every kind."""

import ast
import dataclasses
from fractions import Fraction

import pytest

from collective_arb import verify
from collective_arb.arbitrage import (MeasureVector, detect_NA_agent, detect_NCA,
                                      find_emm_vector, polar_witness)
from collective_arb.cones import make_rays, make_span, make_Y0
from collective_arb.errors import InternalInvariantError
from collective_arb.lp import (GE, LE, MAX, MIN, Infeasible, LinearProgram, Optimal,
                               Unbounded, solve)
from collective_arb.market import build_market
from collective_arb.pricing import (claim_vector, fairness_allocation, price_certificate,
                                    rho_Y_plus)
from collective_arb.verify import (check_lp_outcome, verify_arbitrage_found,
                                   verify_fairness, verify_measure_vector,
                                   verify_polar_witness, verify_price_certificate,
                                   verify_primal_optimizer,
                                   verify_single_market_witness)

from conftest import TREE_CLAIMS, toy_market_spec
from test_cones import span_cone

F = Fraction


def test_lp_checker_rejects_wrong_value():
    program = LinearProgram(sense=MIN, objective=(F(1),),
                            row_coeffs=((F(1),),), row_rels=(GE,),
                            row_rhs=(F(2),), lower=(None,))
    out = solve(program)
    bad = Optimal(value=out.value - 1, point=out.point, row_duals=out.row_duals)
    with pytest.raises(InternalInvariantError):
        check_lp_outcome(program, bad)


def test_lp_checker_rejects_infeasible_point():
    program = LinearProgram(sense=MIN, objective=(F(1),),
                            row_coeffs=((F(1),),), row_rels=(GE,),
                            row_rhs=(F(2),), lower=(None,))
    out = solve(program)
    bad = Optimal(value=F(1), point=(F(1),), row_duals=out.row_duals)
    with pytest.raises(InternalInvariantError):
        check_lp_outcome(program, bad)


def test_lp_checker_rejects_bad_dual_sign():
    program = LinearProgram(sense=MIN, objective=(F(1),),
                            row_coeffs=((F(1),), (F(-1),)), row_rels=(GE, LE),
                            row_rhs=(F(2), F(5)), lower=(None,))
    out = solve(program)
    bad = Optimal(value=out.value, point=out.point, row_duals=(F(-1), F(0)))
    with pytest.raises(InternalInvariantError):
        check_lp_outcome(program, bad)


def test_witness_checker_rejects_zero_entry(toy_market):
    with pytest.raises(InternalInvariantError):
        verify_single_market_witness(toy_market, (F(0), F(1)), agent=0)


def test_witness_checker_rejects_non_martingale(toy_market):
    with pytest.raises(InternalInvariantError):
        verify_single_market_witness(toy_market, (F(1, 3), F(2, 3)), agent=0)


def test_arbitrage_checker_rejects_zeroed_strategy(toy_market):
    cert = detect_NCA(toy_market, make_Y0(toy_market, 1))
    assert cert.found
    crippled = dataclasses.replace(
        cert,
        strategy_coeffs=tuple(tuple(F(0) for _ in s) for s in cert.strategy_coeffs),
        gains_rows=None)
    with pytest.raises(InternalInvariantError):
        verify_arbitrage_found(toy_market, crippled, cone=make_Y0(toy_market, 1))


def test_measure_checker_rejects_bad_row_sum(toy_market):
    cone = make_Y0(toy_market, 0)
    mv = find_emm_vector(toy_market, cone)
    bad = MeasureVector(densities=(mv.densities[0], (F(1, 6), F(1, 2))))
    with pytest.raises(InternalInvariantError):
        verify_measure_vector(toy_market, cone, bad)


def test_measure_checker_rejects_polarity_violation(toy_market):
    cone = make_Y0(toy_market, 1)  # forces equal rows; M1 and M2 disagree
    bad = MeasureVector(densities=((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6))))
    with pytest.raises(InternalInvariantError):
        verify_measure_vector(toy_market, cone, bad)


def test_polar_checker_rejects_scaled_row(toy_market):
    cone = span_cone(toy_market)
    z = polar_witness(toy_market, cone)
    bad = (tuple(2 * v for v in z.rows[0]), z.rows[1])
    with pytest.raises(InternalInvariantError):
        verify_polar_witness(toy_market, cone, bad)


def test_polar_checker_rejects_a_row_with_an_extra_entry(toy_market):
    cone = span_cone(toy_market)
    z = polar_witness(toy_market, cone)
    bad = (z.rows[0] + (F(1),), z.rows[1])
    with pytest.raises(InternalInvariantError, match="row length mismatch"):
        verify_polar_witness(toy_market, cone, bad)


def test_polar_checker_rejects_a_short_row(toy_market):
    # a short row is a failed certificate check (exit code 2), not an IndexError
    cone = span_cone(toy_market)
    z = polar_witness(toy_market, cone)
    bad = (z.rows[0][:-1], z.rows[1])
    with pytest.raises(InternalInvariantError, match="row length mismatch"):
        verify_polar_witness(toy_market, cone, bad)


def test_optimizer_checker_rejects_cost_mismatch(tree_market):
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    _, opt = rho_Y_plus(tree_market, cone, g)
    with pytest.raises(InternalInvariantError):
        verify_primal_optimizer(tree_market, cone, g, opt, F(31))


def test_fairness_checker_rejects_tampered_allocation(tree_market):
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    fr = fairness_allocation(tree_market, cone, g)
    bad = dataclasses.replace(fr, m_tilde=(F(15), F(17)))
    with pytest.raises(InternalInvariantError):
        verify_fairness(tree_market, cone, g, bad)


@pytest.mark.parametrize("tamper", [{"allocations": (0, 99)}, {"per_agent_prices": (7,)}],
                         ids=["allocations", "per-agent-prices"])
def test_fairness_checker_rejects_tampered_printed_fields(tree_market, tamper):
    # report.analyze prints both fields, so the checker must hold each to E_{q_i}[g_i]
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    fr = fairness_allocation(tree_market, cone, g)
    with pytest.raises(InternalInvariantError):
        verify_fairness(tree_market, cone, g, dataclasses.replace(fr, **tamper))


def _extend_first(rows, value):
    return (tuple(rows[0]) + (value,),) + tuple(rows[1:])


def _drop_last(rows):
    return tuple(rows[:-1])


# (certificate field, tamper, message) on the tree market's rho_Y_plus
# optimizer and fairness result; each was accepted, or raised IndexError,
# before the checker compared every length with the agents and generators
MISSHAPEN_OPTIMIZERS = {
    "extra-strategy-coefficient": ("strategy_coeffs", lambda v: _extend_first(v, F(7)),
                                   "strategy length 5 differs from 4"),
    "missing-agent-row": (("strategy_coeffs", "gains_rows"), _drop_last,
                          "optimizer strategy_coeffs length 1 differs from 2"),
    "missing-cash": ("m", _drop_last, "optimizer m length 1 differs from 2"),
    "extra-lineality-coefficient": ("lin_coeffs", lambda v: tuple(v) + (F(0),),
                                    "exchange lineality coefficients length"),
}
MISSHAPEN_FAIRNESS = {
    "extra-strategy-coefficient": ("k_tilde_coeffs", lambda v: _extend_first(v, F(0)),
                                   "strategy length 5 differs from 4"),
    "missing-shift": ("shift", _drop_last, "fairness shift length 1 differs from 2"),
    "extra-exchange-coefficient": ("y_tilde_lin_coeffs", lambda v: tuple(v) + (F(0),),
                                   "exchange lineality coefficients length"),
}


def _tamper(cert, fields, change):
    fields = (fields,) if isinstance(fields, str) else fields
    return dataclasses.replace(cert, **{f: change(getattr(cert, f)) for f in fields})


@pytest.mark.parametrize("case", MISSHAPEN_OPTIMIZERS)
def test_optimizer_checker_rejects_a_misshapen_optimizer(tree_market, case):
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    value, opt = rho_Y_plus(tree_market, cone, g)
    verify_primal_optimizer(tree_market, cone, g, opt, value.value)
    fields, change, message = MISSHAPEN_OPTIMIZERS[case]
    with pytest.raises(InternalInvariantError, match=message):
        verify_primal_optimizer(tree_market, cone, g, _tamper(opt, fields, change), value.value)


@pytest.mark.parametrize("case", MISSHAPEN_FAIRNESS)
def test_fairness_checker_rejects_a_misshapen_result(tree_market, case):
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    fr = fairness_allocation(tree_market, cone, g)
    verify_fairness(tree_market, cone, g, fr)
    fields, change, message = MISSHAPEN_FAIRNESS[case]
    with pytest.raises(InternalInvariantError, match=message):
        verify_fairness(tree_market, cone, g, _tamper(fr, fields, change))


def test_arbitrage_checker_rejects_a_missing_strategy_row(toy_market):
    # an IndexError before, which the CLI does not map to exit code 2
    cone = make_Y0(toy_market, 1)
    cert = detect_NCA(toy_market, cone)
    assert cert.found
    bad = _tamper(cert, "strategy_coeffs", _drop_last)
    with pytest.raises(InternalInvariantError, match="strategy rows length 1 differs from 2"):
        verify_arbitrage_found(toy_market, bad, cone=cone)


def test_arbitrage_checker_rejects_a_missing_exchange(toy_market):
    # an AttributeError before, which the CLI does not map to exit code 2
    cone = make_Y0(toy_market, 1)
    cert = detect_NCA(toy_market, cone)
    assert cert.found and cert.exchange is not None
    with pytest.raises(InternalInvariantError, match="reports no exchange"):
        verify_arbitrage_found(toy_market, dataclasses.replace(cert, exchange=None), cone=cone)


def _inexact_entries(tree_market):
    """(checker call, message) with one float or bool certificate entry; each
    raised TypeError, not InternalInvariantError, before."""
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    value, opt = rho_Y_plus(tree_market, cone, g)
    cert = price_certificate(tree_market, cone, g.rows)
    row = cert.measures[0]
    return {
        "witness-float": (lambda: verify_single_market_witness(
            tree_market, (0.5,) + row[1:], agent=0), "witness entry 0"),
        "witness-bool": (lambda: verify_single_market_witness(
            tree_market, (True,) + row[1:], agent=0), "witness entry 0"),
        "measure-float": (lambda: verify_measure_vector(
            tree_market, cone, MeasureVector(densities=(row, (0.25,) + row[1:])), strict=False),
            "measure entry 0"),
        "optimizer-cash-float": (lambda: verify_primal_optimizer(
            tree_market, cone, g, dataclasses.replace(opt, m=(float(opt.m[0]),) + opt.m[1:]),
            value.value), "optimizer cash entry 0"),
        "optimizer-value-float": (lambda: verify_primal_optimizer(
            tree_market, cone, g, opt, float(value.value)), "value entry 0"),
        "price-strategy-bool": (lambda: verify_price_certificate(
            tree_market, cone, g.rows, dataclasses.replace(cert, hedge=dataclasses.replace(
                cert.hedge, strategy_coeffs=((True,) + cert.hedge.strategy_coeffs[0][1:],)
                + cert.hedge.strategy_coeffs[1:]))), "strategy entry 0"),
    }


@pytest.mark.parametrize("case", ["witness-float", "witness-bool", "measure-float",
                                  "optimizer-cash-float", "optimizer-value-float",
                                  "price-strategy-bool"])
def test_market_checkers_reject_an_inexact_entry(tree_market, case):
    call, message = _inexact_entries(tree_market)[case]
    with pytest.raises(InternalInvariantError, match=f"{message} is not an int or a Fraction"):
        call()


def test_witness_checker_rejects_a_float_row(toy_market):
    with pytest.raises(InternalInvariantError, match="not an int or a Fraction: 0.5"):
        verify_single_market_witness(toy_market, (0.5, 0.5), agent=0)


# The toy market's dual rows: each agent's unique martingale measure, and
# the same rows as densities over the reference probability (1/2, 1/2),
# halved so that together they have unit mass, as a polar witness does.
# Both are polar to the deterministic transfers Y0(0), but not to the
# transfer ((1, 0), (-1, 0)) as a ray or as a line: 1/2 - 1/6 > 0.
TOY_MEASURES = ((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6)))
TOY_DENSITIES = ((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6)))
_TRANSFER = [["1", "0"], ["-1", "0"]]

# checker(market, cone, rows, strict) and its untampered rows on Y0(0)
DUAL_ROW_CHECKERS = {
    "witness": (lambda m, cone, rows, strict:
                verify_single_market_witness(m, rows[0], agent=0), TOY_MEASURES),
    "measure": (lambda m, cone, rows, strict:
                verify_measure_vector(m, cone, MeasureVector(densities=rows), strict=strict),
                TOY_MEASURES),
    "polar": (lambda m, cone, rows, strict:
              verify_polar_witness(m, cone, rows, strict=strict), TOY_DENSITIES),
}


def _first_row(change):
    return lambda rows: (tuple(change(rows[0])),) + tuple(rows[1:])


# (checkers, tamper of the rows, strict, cone, message); every message
# names the property that fails and nothing else does
DUAL_ROW_TAMPERS = {
    "zero-entry": ("witness measure polar", _first_row(lambda r: (F(0),) + r[1:]),
                   True, "Y0", "not strictly positive"),
    "negative-entry": ("measure polar", _first_row(lambda r: (-r[0],) + r[1:]),
                       False, "Y0", "negative"),
    "mass-not-one": ("witness measure", _first_row(lambda r: [2 * v for v in r]),
                     True, "Y0", "does not sum to one"),
    "doubled": ("polar", lambda rows: tuple(tuple(2 * v for v in r) for r in rows),
                True, "Y0", "do not sum to one in total"),
    "missing-row": ("measure polar", lambda rows: tuple(rows[:-1]),
                    True, "Y0", "row count mismatch"),
    "short-row": ("witness measure polar", _first_row(lambda r: r[:-1]),
                  True, "Y0", "length mismatch"),
    "long-row": ("witness measure polar", _first_row(lambda r: r + (F(1),)),
                 True, "Y0", "length mismatch"),
    "nonzero-on-gains": ("witness measure polar",
                         _first_row(lambda r: (r[0] * F(2, 3), r[1] * F(4, 3))),
                         True, "Y0", "gain"),
    "positive-on-a-ray": ("measure polar", lambda rows: rows, True, "ray", "ray"),
    "nonzero-on-lineality": ("measure polar", lambda rows: rows, True, "line", "lineality"),
}


@pytest.mark.parametrize("checker, tamper", [
    (checker, tamper) for tamper, (names, *_) in DUAL_ROW_TAMPERS.items()
    for checker in names.split()])
def test_dual_row_checkers_reject_tampered_rows(toy_market, checker, tamper):
    check, rows = DUAL_ROW_CHECKERS[checker]
    _, change, strict, cone, message = DUAL_ROW_TAMPERS[tamper]
    cones = {"Y0": make_Y0(toy_market, 0), "ray": make_rays(toy_market, [_TRANSFER]),
             "line": make_span(toy_market, [_TRANSFER])}
    check(toy_market, cones["Y0"], rows, strict)
    with pytest.raises(InternalInvariantError, match=message):
        check(toy_market, cones[cone], change(rows), strict)


def test_polar_witness_respects_reference_weights():
    """Non-uniform reference probabilities reweight the polar ray; the unit
    mass point is ((3/5, 3/10), (3/10, 3/4))."""
    spec = toy_market_spec()
    spec["prob"] = ["1/3", "2/3"]
    market = build_market(spec)
    cone = make_span(market, [
        [["3", "1"], ["-3", "-1"]],
        [["9", "3"], ["-9", "-3"]],
    ])
    z = polar_witness(market, cone)
    assert z.rows == ((F(3, 5), F(3, 10)), (F(3, 10), F(3, 4)))
    verify_polar_witness(market, cone, z.rows)


def test_single_agent_pipeline():
    """One agent: collective notions collapse to the classical ones and the
    zero cone still contains the (trivial) deterministic transfers."""
    spec = {
        "atoms": ["u", "d"], "prob": ["1/2", "1/2"], "times": 1,
        "global_filtration": [[["u", "d"]], [["u"], ["d"]]],
        "assets": {"X": ["2", ["3", "1"]]},
        "agents": [{"assets": ["X"]}],
    }
    market = build_market(spec)
    from collective_arb.cones import make_zero

    cone = make_zero(market)
    assert cone.meta.contains_RN0  # vacuously: the zero vector is the space
    assert not detect_NCA(market, cone).found
    assert not detect_NA_agent(market, 0).found
    g = claim_vector(market, [["4", "0"]])
    value, _ = rho_Y_plus(market, cone, g)
    assert value.value == F(2)  # replication under the unique measure
    fr = fairness_allocation(market, cone, g)
    assert fr.allocations == (F(2),)


def _one_var_program(rel, rhs, lower):
    """min x subject to one row ``x rel rhs``, x free or x >= ``lower``."""
    return LinearProgram(sense=MIN, objective=(F(1),), row_coeffs=((F(1),),),
                         row_rels=(rel,), row_rhs=(F(rhs),), lower=(lower,))


def test_lp_checker_rejects_negative_farkas_lower_multiplier():
    # x >= 1 with x >= 0 is feasible; only the sign of the bound multiplier
    # is wrong: the combination vanishes and the aggregate rhs is 1
    program = _one_var_program(GE, 1, F(0))
    bad = Infeasible(farkas_rows=(F(1),), farkas_lower=(F(-1),))
    with pytest.raises(InternalInvariantError, match="farkas bound multiplier sign"):
        check_lp_outcome(program, bad)


def test_lp_checker_rejects_ray_below_a_lower_bound():
    # min x subject to x <= 5, x >= 0: the ray -1 keeps the row and improves
    # the objective, but leaves the nonnegative orthant
    program = _one_var_program(LE, 5, F(0))
    bad = Unbounded(point=(F(0),), ray=(F(-1),))
    with pytest.raises(InternalInvariantError, match="ray decreases var 0"):
        check_lp_outcome(program, bad)


def test_lp_checker_rejects_negative_reduced_cost():
    # min x subject to x >= 2, x >= 0: the dual 2 keeps its sign and slackness
    # but prices x at 1 - 2 < 0, and x has no upper bound to sit at
    program = _one_var_program(GE, 2, F(0))
    out = solve(program)
    assert out.point == (F(2),) and out.row_duals == (F(1),)
    bad = Optimal(value=out.value, point=out.point, row_duals=(F(2),))
    with pytest.raises(InternalInvariantError, match="negative reduced cost"):
        check_lp_outcome(program, bad)


def _two_var_program(sense, rel, rhs):
    """``sense`` x + y subject to x + y ``rel`` ``rhs``, x, y >= 0."""
    return LinearProgram(sense=sense, objective=(F(1), F(1)), row_coeffs=((F(1), F(1)),),
                         row_rels=(rel,), row_rhs=(F(rhs),), lower=(F(0), F(0)))


OPTIMAL = _two_var_program(MIN, GE, 1)
INFEASIBLE = _two_var_program(MIN, LE, -1)
UNBOUNDED = _two_var_program(MAX, GE, 1)


def extra(v):
    return v + (F(0),)


def short(v):
    return v[:-1]


def first(new):
    return lambda v: (new,) + v[1:]


MISSHAPEN = {
    "point-extra": (OPTIMAL, "point", extra, "point length 3 differs from 2"),
    "point-short": (OPTIMAL, "point", short, "point length 1 differs from 2"),
    "duals-extra": (OPTIMAL, "row_duals", extra, "dual vector length 2 differs from 1"),
    "duals-short": (OPTIMAL, "row_duals", short, "dual vector length 0 differs from 1"),
    "farkas-rows-extra": (INFEASIBLE, "farkas_rows", extra, "farkas rows length 2 differs"),
    "farkas-rows-short": (INFEASIBLE, "farkas_rows", short, "farkas rows length 0 differs"),
    "farkas-lower-extra": (INFEASIBLE, "farkas_lower", extra, "farkas lower length 3 differs"),
    "farkas-lower-short": (INFEASIBLE, "farkas_lower", short, "farkas lower length 1 differs"),
    "ray-extra": (UNBOUNDED, "ray", extra, "ray length 3 differs from 2"),
    "ray-short": (UNBOUNDED, "ray", short, "ray length 1 differs from 2"),
    "unbounded-point-short": (UNBOUNDED, "point", short, "point length 1 differs from 2"),
    "point-float": (OPTIMAL, "point", lambda v: tuple(map(float, v)),
                    "point entry 0 is not an int or a Fraction: 1.0"),
    "point-bool": (OPTIMAL, "point", lambda v: tuple(map(bool, v)),
                   "point entry 0 is not an int or a Fraction: True"),
    "duals-float": (OPTIMAL, "row_duals", first(1.0), "dual vector entry 0 is not"),
    "duals-bool": (OPTIMAL, "row_duals", first(True), "dual vector entry 0 is not"),
    "value-float": (OPTIMAL, "value", float, "value entry 0 is not an int or a Fraction"),
    "farkas-rows-float": (INFEASIBLE, "farkas_rows", first(-1.0), "farkas rows entry 0 is not"),
    "farkas-lower-bool": (INFEASIBLE, "farkas_lower", first(True), "farkas lower entry 0 is not"),
    "ray-float": (UNBOUNDED, "ray", first(1.0), "ray entry 0 is not"),
    "ray-bool": (UNBOUNDED, "ray", first(True), "ray entry 0 is not"),
}


@pytest.mark.parametrize("case", MISSHAPEN)
def test_lp_checker_rejects_a_misshapen_certificate(case):
    # a wrong length or a float or bool entry is a failed certificate check
    # (exit code 2); before, an extra entry passed, and a short vector or a
    # float raised IndexError or TypeError
    program, field, change, message = MISSHAPEN[case]
    out = solve(program)
    bad = dataclasses.replace(out, **{field: change(getattr(out, field))})
    with pytest.raises(InternalInvariantError, match=message):
        check_lp_outcome(program, bad)


# what verify.py may take from lp: the program and outcome types and the
# constants it compares against; never the kernel
LP_NAMES_ALLOWED = {"LinearProgram", "Optimal", "Infeasible", "Unbounded", "LPOutcome",
                    "LE", "GE", "MIN", "ZERO"}
KERNEL_NAMES = {"_solve_general", "_solve_standard", "_RevisedSimplex", "solve_equalities"}


def _kernel_dependencies(source):
    """Every way ``source`` reaches into lp beyond ``LP_NAMES_ALLOWED``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {a.name for a in node.names}
            if module in (".lp", "collective_arb.lp"):
                found += sorted(names - LP_NAMES_ALLOWED)
            elif module in (".", "collective_arb") and "lp" in names:
                found.append(f"{module} import lp")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "collective_arb.lp"]
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in KERNEL_NAMES:
            found.append(name)
    return found


def test_checker_is_independent_of_the_kernel_it_audits():
    with open(verify.__file__, encoding="utf-8") as fh:
        assert _kernel_dependencies(fh.read()) == []
    # the guard itself sees each way in
    assert _kernel_dependencies("from .lp import EQ, frac, _solve_general") == \
        ["EQ", "_solve_general", "frac"]
    assert _kernel_dependencies("from . import lp\nlp._RevisedSimplex") == [". import lp", "_RevisedSimplex"]
    assert _kernel_dependencies("import collective_arb.lp") == ["collective_arb.lp"]
    # nor the exact elimination that reads points off equality rows
    assert _kernel_dependencies("from .lp import ZERO, solve_equalities") == ["solve_equalities"]
    assert _kernel_dependencies("lp.solve_equalities(1, [])") == ["solve_equalities"]
