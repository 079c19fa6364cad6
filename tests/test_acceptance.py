"""Acceptance suite: one test per criterion, one pass/fail line each.

Every assertion is an exact rational equality or inequality -- there are no
tolerances anywhere in this module.
"""

import functools
import random
from fractions import Fraction

from collective_arb import lp, verify
from collective_arb.arbitrage import (detect_NA_agent, detect_NA_global,
                                      detect_NCA, find_emm_vector,
                                      install_emm_system, polar_witness)
from collective_arb.cones import cone_add, make_Y0
from collective_arb.ext import Ext
from collective_arb.lp import LPBuilder, MAX
from collective_arb.market import agents_join_partition, build_market
from collective_arb.model_io import parse_model
from collective_arb.examples_builtin import example_document
from collective_arb.pricing import (claim_vector, dual_rho_Y,
                                    fairness_allocation, pi_Y_plus,
                                    rho_agent_plus, rho_N_plus, rho_Y_plus,
                                    value_of_cooperation)
from collective_arb.randgen import random_claims, random_cone, random_market, seeded_rng
from collective_arb.report import analyze

from conftest import TREE_CLAIMS, toy_market_spec
from instance_checks import check_instance
from test_cones import span_cone

F = Fraction


def criterion(number, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  ({summary})")
                raise
            print(f"criterion {number}: PASS  ({summary})")
        return wrapper
    return deco


def _toy_expectations(g):
    e1 = F(1, 2) * F(g.rows[0][0]) + F(1, 2) * F(g.rows[0][1])
    e2 = F(1, 6) * F(g.rows[1][0]) + F(5, 6) * F(g.rows[1][1])
    return e1, e2


def _random_toy_claims(rng, market):
    rows = [[F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(2)]
            for _ in range(2)]
    return claim_vector(market, rows)


@criterion(1, "one-period benchmark: measures, detection, half-half pricing")
def test_criterion_1_one_period_benchmark(toy_market):
    cone = make_Y0(toy_market, 0)
    r1 = detect_NA_agent(toy_market, 0)
    r2 = detect_NA_agent(toy_market, 1)
    assert not r1.found and r1.dual_witness[0] == (F(1, 2), F(1, 2))
    assert not r2.found and r2.dual_witness[0] == (F(1, 6), F(5, 6))
    assert detect_NA_global(toy_market).found
    assert not detect_NCA(toy_market, cone).found
    mv = find_emm_vector(toy_market, cone)
    assert mv.densities == ((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6)))

    rng = random.Random(101)
    for _ in range(25):
        g = _random_toy_claims(rng, toy_market)
        e1, e2 = _toy_expectations(g)
        pi, _ = pi_Y_plus(toy_market, cone, g)
        assert pi == Ext.of(F(1, 2) * e1 + F(1, 2) * e2)
        rho, _ = rho_Y_plus(toy_market, cone, g)
        assert rho == rho_N_plus(toy_market, g) == Ext.of(e1 + e2)


@criterion(2, "terminal zero-sum transfers create a collective arbitrage")
def test_criterion_2_terminal_transfers(toy_market):
    cone = make_Y0(toy_market, 1)
    cert = detect_NCA(toy_market, cone)
    assert cert.found
    verify.verify_arbitrage_found(toy_market, cert, cone=cone)
    assert find_emm_vector(toy_market, cone) is None


@criterion(3, "span cone: positive polar ray, empty measure set, -inf, 2/5 weights")
def test_criterion_3_swap_cone_degeneracies(toy_market):
    cone = span_cone(toy_market)
    z = polar_witness(toy_market, cone)
    assert z is not None
    verify.verify_polar_witness(toy_market, cone, z.rows, strict=True)
    assert find_emm_vector(toy_market, cone) is None
    assert not detect_NCA(toy_market, cone).found

    rng = random.Random(103)
    for _ in range(25):
        g = _random_toy_claims(rng, toy_market)
        rho, opt = rho_Y_plus(toy_market, cone, g)
        assert rho == Ext.neg_inf() and opt is None
        dual_value, _ = dual_rho_Y(toy_market, cone, g)
        assert dual_value == Ext.neg_inf()
        e1, e2 = _toy_expectations(g)
        pi, _ = pi_Y_plus(toy_market, cone, g)
        assert pi == Ext.of(F(2, 5) * e1 + F(3, 5) * e2)

    widened = cone_add(toy_market, cone, make_Y0(toy_market, 0))
    assert detect_NCA(toy_market, widened).found

    # Table-1 row for this configuration, via the reporting pipeline
    table = analyze(parse_model(example_document("toy71-span")))["table"]
    assert table == {"NA": False, "NCA(Y)": True, "NCA(Y+RN0)": False,
                     "NA_i_all": True, "M_Y_nonempty": False,
                     "pi_Y<pi_N": True, "rho_Y<rho_N": True}


@criterion(4, "two-period benchmark: 22/16/38/32, cooperation 6, middle-node transfer")
def test_criterion_4_two_period_pricing(tree_market):
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, TREE_CLAIMS)
    v1, _ = rho_agent_plus(tree_market, 0, g.rows[0])
    v2, _ = rho_agent_plus(tree_market, 1, g.rows[1])
    assert v1 == Ext.of(22) and v2 == Ext.of(16)
    assert rho_N_plus(tree_market, g) == Ext.of(38)

    rho, opt = rho_Y_plus(tree_market, cone, g)
    dual_value, dual_mv = dual_rho_Y(tree_market, cone, g)
    assert rho == Ext.of(32) and dual_value == Ext.of(32)
    verify.verify_primal_optimizer(tree_market, cone, g, opt, F(32))
    verify.verify_measure_vector(tree_market, cone, dual_mv, strict=False)

    coop = value_of_cooperation(tree_market, cone, g)
    assert coop["selling"] == Ext.of(6)

    # the reported canonical exchange is zero on the outer nodes and moves
    # exactly six units on the middle node
    fr = fairness_allocation(tree_market, cone, g)
    verify.verify_fairness(tree_market, cone, g, fr)
    assert fr.y_tilde_rows[0] == (F(0), F(0), F(6), F(6), F(0), F(0))
    assert fr.y_tilde_rows[1] == (F(0), F(0), F(-6), F(-6), F(0), F(0))

    # up to alternative optimizers: fixing that exchange still reaches total
    # cost exactly 32, so it is feasible with the optimal value
    transfer = (0, 0, 6, 6, 0, 0)
    shifted = claim_vector(tree_market, [
        [F(v) - x for v, x in zip(g.rows[0], transfer)],
        [F(v) + x for v, x in zip(g.rows[1], transfer)],
    ])
    assert rho_N_plus(tree_market, shifted) == Ext.of(32)
    # and the exchange is feasible for the cone (measurable at t=1, zero-sum)
    from collective_arb.cones import cone_contains
    from collective_arb.market import payoff_matrix
    y = payoff_matrix(tree_market, [[x for x in transfer],
                                    [-x for x in transfer]])
    assert cone_contains(cone, y).contains


@criterion(5, "two-period detection regimes and block-equality of measure vectors")
def test_criterion_5_detection_regimes(tree_market):
    assert not detect_NCA(tree_market, make_Y0(tree_market, 0)).found
    cert = detect_NCA(tree_market, make_Y0(tree_market, 2))
    assert cert.found
    verify.verify_arbitrage_found(tree_market, cert, cone=make_Y0(tree_market, 2))

    cone = make_Y0(tree_market, 1)
    part = agents_join_partition(tree_market, 1)

    def assert_block_equal(mv):
        for block in part:
            masses = [sum(mv.densities[i][w] for w in block) for i in range(2)]
            assert masses[0] == masses[1]

    canonical = find_emm_vector(tree_market, cone)
    assert canonical is not None
    assert_block_equal(canonical)

    g = claim_vector(tree_market, TREE_CLAIMS)
    _, dual_mv = dual_rho_Y(tree_market, cone, g)
    assert_block_equal(dual_mv)

    # sweep the polytope with random objectives; every optimizer returned
    # satisfies the same block equalities
    from collective_arb.arbitrage import MeasureVector
    rng = random.Random(105)
    for _ in range(10):
        b = LPBuilder(MAX)
        names = install_emm_system(b, tree_market.n_atoms, tree_market.gains, cone)
        for row in names:
            for v in row:
                b.add_objective(v, rng.randint(-5, 5))
        out = b.solve()
        assert out.status == "optimal"
        mv = MeasureVector(densities=tuple(tuple(out.point[v] for v in row) for row in names))
        verify.verify_measure_vector(tree_market, cone, mv, strict=False)
        assert_block_equal(mv)


@criterion(6, "randomized battery, >= 500 instances, all equivalences exact")
def test_criterion_6_property_battery():
    lp.set_audit(True)
    try:
        rng = seeded_rng()
        cover = {}
        n_instances = 500
        for _ in range(n_instances):
            market = random_market(rng)
            cone, info = random_cone(rng, market)
            claims = random_claims(rng, market)
            hit = check_instance(market, cone, info, claims, rng)
            for k, v in hit.items():
                cover[k] = cover.get(k, 0) + bool(v)
        # both sides of each equivalence must be exercised
        assert 0 < cover["nca_holds"] < n_instances
        assert cover["emm_equiv"] > 0
        assert cover["rho_finite"] > 0
        assert cover["t0_cone"] > 0
        assert cover["terminal_y0"] > 0
        assert cover["singleton"] > 0
        assert cover["reflected"] > 0
        assert cover["cash_groups"] > 0
    finally:
        lp.set_audit(False)

    # seeded counterexamples: both converse implications fail (Table-1 rows)
    toy = build_market(toy_market_spec())
    assert detect_NA_global(toy).found
    assert not detect_NCA(toy, make_Y0(toy, 0)).found          # NA <= NCA fails
    assert all(not detect_NA_agent(toy, i).found for i in range(2))
    assert detect_NCA(toy, make_Y0(toy, 1)).found              # NCA <= NA_i fails


@criterion(7, "all emitted certificates re-verify under the matrix-only checker")
def test_criterion_7_certificate_audit():
    lp.set_audit(True)
    try:
        for name in ("toy71", "toy71-y0T", "toy71-span", "toy71-span-rn0",
                     "tree72", "tree72-y00", "tree72-y0T"):
            model = parse_model(example_document(name))
            report = analyze(model)  # re-verifies every emitted certificate
            assert report["validation"]["status"] == "ok"
    finally:
        lp.set_audit(False)

    # the checker itself must never call the solver
    import collective_arb.verify as v
    import inspect
    source = inspect.getsource(v)
    assert "solve(" not in source
