import random
from fractions import Fraction

import pytest

from collective_arb.cones import (cone_add, make_grouping, make_rays, make_span,
                                  make_Y0, make_zero)
from collective_arb.errors import FairnessUnavailable, ValidationError
from collective_arb.examples_builtin import example_document
from collective_arb.ext import Ext
from collective_arb.market import PayoffMatrix, build_market
from collective_arb.model_io import parse_model
from collective_arb.pricing import (claim_vector, dual_rho_Y, fairness_allocation,
                                    pi_N_plus, pi_Y_minus, pi_Y_plus,
                                    price_compatibility, rho_agent_plus,
                                    rho_agent_plus_dual, rho_full_market,
                                    rho_N_minus, rho_N_plus, rho_Y_minus,
                                    rho_Y_plus, rho_under_measure,
                                    value_of_cooperation)
from collective_arb.verify import (verify_fairness, verify_primal_optimizer)

from conftest import TREE_CLAIMS, toy_market_spec, tree_market_spec
from test_cones import span_cone
from test_market import coarse_agent_spec

F = Fraction


def toy_expectations(claims):
    """Expectations under the two unique pricing measures (1/2,1/2), (1/6,5/6)."""
    g1, g2 = claims
    e1 = F(1, 2) * F(g1[0]) + F(1, 2) * F(g1[1])
    e2 = F(1, 6) * F(g2[0]) + F(5, 6) * F(g2[1])
    return e1, e2


@pytest.fixture
def tree_claims(tree_market):
    return claim_vector(tree_market, TREE_CLAIMS)


def test_rho_agent_tree_values(tree_market, tree_claims):
    v1, opt1 = rho_agent_plus(tree_market, 0, tree_claims.rows[0])
    v2, opt2 = rho_agent_plus(tree_market, 1, tree_claims.rows[1])
    assert v1 == Ext.of(22) and v2 == Ext.of(16)
    assert rho_agent_plus_dual(tree_market, 0, tree_claims.rows[0]) == Ext.of(22)
    assert rho_agent_plus_dual(tree_market, 1, tree_claims.rows[1]) == Ext.of(16)
    for w in range(6):
        assert opt1["m"] + opt1["gains_row"][w] >= tree_claims.rows[0][w]


def test_rho_agent_zero_claim(toy_market):
    v, opt = rho_agent_plus(toy_market, 0, ["0", "0"])
    assert v == Ext.of(0) and opt["m"] == 0


def test_rho_N_tree(tree_market, tree_claims):
    assert rho_N_plus(tree_market, tree_claims) == Ext.of(38)


def test_rho_N_toy_claims_on_assets(toy_market):
    g = claim_vector(toy_market, [["3", "1"], ["9", "3"]])
    assert rho_N_plus(toy_market, g) == Ext.of(6)
    assert pi_N_plus(toy_market, g) == Ext.of(4)


def test_pi_N_tree(tree_market, tree_claims):
    assert pi_N_plus(tree_market, tree_claims) == Ext.of(22)


def test_pi_N_identical_claims(toy_market):
    spec = toy_market_spec()
    spec["agents"][1]["assets"] = ["X1"]
    del spec["assets"]["X2"]
    market = build_market(spec)
    g = claim_vector(market, [["3", "1"], ["3", "1"]])
    v, _ = rho_agent_plus(market, 0, g.rows[0])
    assert pi_N_plus(market, g) == v


def test_rho_Y_tree_32(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    value, opt = rho_Y_plus(tree_market, cone, tree_claims)
    assert value == Ext.of(32)
    verify_primal_optimizer(tree_market, cone, tree_claims, opt, F(32))


def test_rho_Y_zero_cone_equals_rho_N(tree_market, tree_claims):
    value, _ = rho_Y_plus(tree_market, make_zero(tree_market), tree_claims)
    assert value == rho_N_plus(tree_market, tree_claims)


def test_middle_node_transfer_supports_an_optimizer(tree_market, tree_claims):
    """Fixing the exchange to transfer 6 to agent 1 on the middle node (zero
    elsewhere) still achieves total cost 32, confirming it is optimal."""
    shifted = PayoffMatrix(rows=(
        tuple(F(v) - x for v, x in zip(tree_claims.rows[0], (0, 0, 6, 6, 0, 0))),
        tuple(F(v) + x for v, x in zip(tree_claims.rows[1], (0, 0, 6, 6, 0, 0))),
    ))
    assert rho_N_plus(tree_market, shifted) == Ext.of(32)


def test_rho_Y_deterministic_cone_equals_rho_N(toy_market):
    cone = make_Y0(toy_market, 0)
    rng = random.Random(5)
    for _ in range(10):
        claims = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        g = claim_vector(toy_market, claims)
        e1, e2 = toy_expectations(claims)
        value, _ = rho_Y_plus(toy_market, cone, g)
        assert value == Ext.of(e1 + e2)
        assert value == rho_N_plus(toy_market, g)
        pi, _ = pi_Y_plus(toy_market, cone, g)
        assert pi == Ext.of(F(1, 2) * e1 + F(1, 2) * e2)


def test_rho_Y_span_cone_minus_inf(toy_market):
    cone = span_cone(toy_market)
    rng = random.Random(11)
    for _ in range(5):
        claims = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        g = claim_vector(toy_market, claims)
        value, opt = rho_Y_plus(toy_market, cone, g)
        assert value == Ext.neg_inf() and opt is None
        dual_value, _ = dual_rho_Y(toy_market, cone, g)
        assert dual_value == Ext.neg_inf()


def test_pi_Y_span_cone_two_fifths(toy_market):
    """Single-claim cooperative price with the ratio-matched span cone:
    weight 2/5 on the first market's measure and 3/5 on the second's."""
    cone = span_cone(toy_market)
    rng = random.Random(13)
    for _ in range(10):
        claims = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        g = claim_vector(toy_market, claims)
        e1, e2 = toy_expectations(claims)
        value, _ = pi_Y_plus(toy_market, cone, g)
        assert value == Ext.of(F(2, 5) * e1 + F(3, 5) * e2)


def test_pi_Y_zero_cone_equals_pi_N(tree_market, tree_claims):
    value, _ = pi_Y_plus(tree_market, make_zero(tree_market), tree_claims)
    assert value == pi_N_plus(tree_market, tree_claims)


def test_rho_is_N_times_pi_under_rn0(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    rho, _ = rho_Y_plus(tree_market, cone, tree_claims)
    pi, _ = pi_Y_plus(tree_market, cone, tree_claims)
    assert rho == pi * 2


def test_dual_tree_value_and_argmax(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    value, mv = dual_rho_Y(tree_market, cone, tree_claims)
    assert value == Ext.of(32)
    assert mv.densities == (
        (F(1, 4), F(1, 4), F(0), F(0), F(1, 6), F(1, 3)),
        (F(1, 4), F(1, 4), F(0), F(0), F(1, 3), F(1, 6)),
    )


def test_dual_constant_claims_cash_additivity(tree_market):
    cone = make_Y0(tree_market, 1)
    g = claim_vector(tree_market, [["3"] * 6, ["-2"] * 6])
    value, _ = dual_rho_Y(tree_market, cone, g)
    assert value == Ext.of(1)
    primal, _ = rho_Y_plus(tree_market, cone, g)
    assert primal == Ext.of(1)


def test_dual_without_rn0_matches_primal(toy_market, tree_market):
    """For cones without the deterministic transfers the compatible-measure
    dual equals the primal value, and no measure vector is reported: a span
    with price -inf, a two-group grouping and a one-ray cone with finite
    prices."""
    spec = tree_market_spec()
    spec["agents"].append({"assets": ["X1"], "filtration": "global"})
    market3 = build_market(spec)
    # agent 2 hands agent 1 one unit on the middle node
    ray = [["0", "0", "1", "1", "0", "0"], ["0", "0", "-1", "-1", "0", "0"]]
    cases = [
        (toy_market, make_span(toy_market, [[["1", "-1"], ["-1", "1"]]]),
         claim_vector(toy_market, [["2", "0"], ["1", "3"]]), Ext.neg_inf()),
        (market3, make_grouping(market3, [[0, 1], [2]], 1),
         claim_vector(market3, TREE_CLAIMS + TREE_CLAIMS[:1]), Ext.of(54)),
        (tree_market, make_rays(tree_market, [ray]), claim_vector(tree_market, TREE_CLAIMS),
         Ext.of(32)),
    ]
    for market, cone, g, value in cases:
        assert not cone.meta.contains_RN0
        primal, _ = rho_Y_plus(market, cone, g)
        dual, mv = dual_rho_Y(market, cone, g)
        assert primal == dual == value and mv is None


def test_sub_replication_identities(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    assert rho_Y_minus(tree_market, cone, tree_claims) == Ext.of(28)
    assert rho_N_minus(tree_market, tree_claims) == Ext.of(22)
    zero = claim_vector(tree_market, [["0"] * 6, ["0"] * 6])
    assert rho_Y_minus(tree_market, cone, zero) == Ext.of(0)
    assert pi_Y_minus(tree_market, cone, zero) == Ext.of(0)


def test_sub_replication_zero_cone(tree_market, tree_claims):
    assert (rho_Y_minus(tree_market, make_zero(tree_market), tree_claims)
            == rho_N_minus(tree_market, tree_claims))


def test_cooperation_value_tree(tree_market, tree_claims):
    out = value_of_cooperation(tree_market, make_Y0(tree_market, 1), tree_claims)
    assert out["selling"] == Ext.of(6)
    assert out["buying"] == Ext.of(6)
    assert out["total"] == Ext.of(12)


def test_cooperation_value_zero_cone(tree_market, tree_claims):
    out = value_of_cooperation(tree_market, make_zero(tree_market), tree_claims)
    assert out["selling"] == Ext.of(0) and out["total"] == Ext.of(0)


def test_cooperation_value_toy_zero_selling(toy_market):
    g = claim_vector(toy_market, [["3", "1"], ["9", "3"]])
    out = value_of_cooperation(toy_market, make_Y0(toy_market, 0), g)
    assert out["selling"] == Ext.of(0)


def test_cooperation_value_infinite_for_span_cone(toy_market):
    g = claim_vector(toy_market, [["3", "1"], ["9", "3"]])
    out = value_of_cooperation(toy_market, span_cone(toy_market), g)
    assert out["selling"] == Ext.pos_inf()


def test_fairness_tree(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    fr = fairness_allocation(tree_market, cone, tree_claims)
    assert fr.value == 32
    assert fr.allocations == (F(16), F(16))
    verify_fairness(tree_market, cone, tree_claims, fr)


def test_fairness_zero_claims(tree_market):
    cone = make_Y0(tree_market, 1)
    zero = claim_vector(tree_market, [["0"] * 6, ["0"] * 6])
    fr = fairness_allocation(tree_market, cone, zero)
    assert fr.allocations == (F(0), F(0))
    for i in range(2):
        q = fr.q_hat.densities[i]
        assert sum(a * b for a, b in zip(q, fr.y_tilde_rows[i])) == 0


def test_fairness_toy_deterministic_cone(toy_market):
    cone = make_Y0(toy_market, 0)
    claims = [[3, 1], [9, 3]]
    g = claim_vector(toy_market, claims)
    fr = fairness_allocation(toy_market, cone, g)
    e1, e2 = toy_expectations(claims)
    assert fr.allocations == (e1, e2)
    verify_fairness(toy_market, cone, g, fr)
    pi, _ = pi_Y_plus(toy_market, cone, g)
    assert pi == Ext.of(F(e1 + e2, 2))


def test_fairness_unavailable_without_rn0(toy_market):
    g = claim_vector(toy_market, [["3", "1"], ["9", "3"]])
    with pytest.raises(FairnessUnavailable):
        fairness_allocation(toy_market, span_cone(toy_market), g)


def test_rho_under_measure_equals_expectation(tree_market, tree_claims, monkeypatch):
    from collective_arb import lp

    solves = []
    monkeypatch.setattr(lp, "_solve_general", solves.append)
    q = (F(1, 4), F(1, 4), F(0), F(0), F(1, 6), F(1, 3))
    value = rho_under_measure(tree_market, 0, q, tree_claims.rows[0])
    assert value == sum(a * b for a, b in zip(q, map(F, tree_claims.rows[0])))
    assert solves == []  # read off the identity, no program


@pytest.mark.parametrize("q", [("0", "1/2", "1/2", "0"), ("1/4", "1/4", "1/4", "1/4"),
                               ("1/2", "0", "0", "1/2")])
def test_rho_under_measure_matches_its_lp(q):
    """Agent 1 sees only {a,b} | {c,d}; the first and the last q give one
    atom of each block probability zero."""
    from instance_checks import rho_under_measure_by_its_lp

    market = build_market(coarse_agent_spec())
    claim = ("5", "5", "1", "1")
    value = rho_under_measure(market, 1, q, claim)
    assert value == rho_under_measure_by_its_lp(market, 1, q, claim)
    assert value == sum(F(a) * F(b) for a, b in zip(q, claim)) == 3


def test_fairness_from_prices_solves_only_its_canonical_exchange(tree_market, tree_claims,
                                                                 monkeypatch):
    from collective_arb import lp
    from collective_arb.pricing import fairness_from_prices

    cone = make_Y0(tree_market, 1)
    dual = dual_rho_Y(tree_market, cone, tree_claims)
    primal = rho_Y_plus(tree_market, cone, tree_claims)
    individual = [rho_agent_plus(tree_market, i, tree_claims.rows[i])[0] for i in range(2)]
    solves, real = [], lp._solve_general
    monkeypatch.setattr(lp, "_solve_general", lambda prog: solves.append(prog) or real(prog))
    fr = fairness_from_prices(tree_market, cone, tree_claims, dual=lambda: dual,
                              primal=lambda: primal, individual=individual.__getitem__)
    verify_fairness(tree_market, cone, tree_claims, fr)
    assert len(solves) == 1


def test_price_compatibility_tree(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    verdict = price_compatibility(tree_market, cone, tree_claims, ["22", "16"])
    assert not verdict.compatible
    assert verdict.scalar_cost_compatible is False
    # Unreachable price levels admit no dominating play at all: compatible.
    verdict2 = price_compatibility(tree_market, cone, tree_claims, ["0", "0"])
    assert verdict2.compatible
    assert verdict2.scalar_cost_compatible is True


def test_price_compatibility_fair_prices_with_equivalent_dual(toy_market):
    """When the dual optimizer has full support, the fairness prices admit
    no strict riskless surplus."""
    cone = make_Y0(toy_market, 0)
    g = claim_vector(toy_market, [["3", "1"], ["9", "3"]])
    fr = fairness_allocation(toy_market, cone, g)
    assert fr.q_hat.equivalent
    verdict = price_compatibility(toy_market, cone, g, fr.m_tilde)
    assert verdict.compatible and verdict.scalar_cost_compatible is True


def test_price_compatibility_fair_prices_degenerate_dual(tree_market, tree_claims):
    """With a boundary dual optimizer the fairness prices can still leave a
    strict surplus on measure-null atoms; the witness must re-verify."""
    cone = make_Y0(tree_market, 1)
    fr = fairness_allocation(tree_market, cone, tree_claims)
    verdict = price_compatibility(tree_market, cone, tree_claims, fr.m_tilde)
    assert not verdict.compatible
    total = [F(0)] * 6
    for i in range(2):
        gains = verdict.witness["strategies"][i]
        from collective_arb.market import gains_basis
        gens = gains_basis(tree_market, i)
        for w in range(6):
            k = sum(c * g.vector[w] for c, g in zip(gains, gens))
            pos = k + verdict.witness["exchange_rows"][i][w] \
                + fr.m_tilde[i] - F(tree_claims.rows[i][w])
            assert pos >= 0
            total[w] += pos
    assert sum(total) > 0


def test_price_compatibility_witness_total_positive(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    verdict = price_compatibility(tree_market, cone, tree_claims, ["30", "16"])
    assert not verdict.compatible and verdict.witness is not None


@pytest.mark.parametrize("case", ["long-row", "short-row", "agent-past-end",
                                  "agent-negative", "agent-true", "agent-false",
                                  "not-measurable"])
@pytest.mark.parametrize("price", [rho_agent_plus, rho_agent_plus_dual])
def test_single_market_prices_check_the_claim_row(price, case):
    market = build_market(coarse_agent_spec())  # 4 atoms; agent 1 sees {a,b} | {c,d}
    agent, row = {
        "long-row": (0, ["1", "2", "3", "4", "100"]),
        "short-row": (0, ["1", "2", "3"]),
        "agent-past-end": (2, ["1", "1", "1", "1"]),
        "agent-negative": (-1, ["1", "1", "1", "1"]),
        "agent-true": (True, ["1", "1", "1", "1"]),  # a bool would read as agent 1
        "agent-false": (False, ["1", "1", "1", "1"]),
        "not-measurable": (1, ["1", "2", "3", "3"]),
    }[case]
    with pytest.raises(ValidationError) as err:
        price(market, agent, row)
    assert err.value.where == "claim"


@pytest.mark.parametrize("row", [["3", "1", "100"], ["3"]])
def test_full_market_price_checks_the_claim_row(toy_market, row):
    with pytest.raises(ValidationError) as err:
        rho_full_market(toy_market, row)
    assert err.value.where == "claim"


def test_full_market_collapse(tree_market, tree_claims):
    """With one shared filtration and all terminal zero-sum exchanges, the
    collective price of the claim vector is the full-market price of the
    pooled claim."""
    cone = make_Y0(tree_market, 2)
    value, _ = rho_Y_plus(tree_market, cone, tree_claims)
    pooled = [sum(map(F, col)) for col in zip(*tree_claims.rows)]
    assert value == rho_full_market(tree_market, pooled)


def test_cash_additivity_and_monotonicity(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    base, _ = rho_Y_plus(tree_market, cone, tree_claims)
    shifted = claim_vector(tree_market, [
        [F(v) + 3 for v in tree_claims.rows[0]],
        [F(v) - 1 for v in tree_claims.rows[1]],
    ])
    v2, _ = rho_Y_plus(tree_market, cone, shifted)
    assert v2 == base + Ext.of(2)
    bigger = claim_vector(tree_market, [
        [F(v) + 1 for v in tree_claims.rows[0]],
        tree_claims.rows[1],
    ])
    v3, _ = rho_Y_plus(tree_market, cone, bigger)
    assert base <= v3


def test_rho_invariant_under_adding_rn0(tree_market, tree_claims):
    cone = make_Y0(tree_market, 1)
    widened = cone_add(tree_market, cone, make_Y0(tree_market, 0))
    a, _ = rho_Y_plus(tree_market, cone, tree_claims)
    b, _ = rho_Y_plus(tree_market, widened, tree_claims)
    assert a == b


def test_rho_Y_zero_claim_is_zero_under_nca(tree_market):
    cone = make_Y0(tree_market, 1)
    zero = claim_vector(tree_market, [["0"] * 6, ["0"] * 6])
    value, _ = rho_Y_plus(tree_market, cone, zero)
    assert value == Ext.of(0)


def test_fairness_with_weak_arbitrage_boundary_measure():
    """A weak arbitrage leaves prices finite; the dual optimum sits on the
    polytope boundary and the fairness identities still close exactly."""
    from collective_arb.arbitrage import detect_NCA
    from collective_arb.verify import verify_fairness

    spec = {
        "atoms": ["u", "d"], "prob": ["1/2", "1/2"], "times": 1,
        "global_filtration": [[["u", "d"]], [["u"], ["d"]]],
        "assets": {"X1": ["1", ["2", "1"]], "X2": ["5", "5"]},
        "agents": [{"assets": ["X1"]}, {"assets": ["X2"]}],
    }
    market = build_market(spec)
    cone = make_Y0(market, 0)
    assert detect_NCA(market, cone).found  # the first market has an arbitrage
    g = claim_vector(market, [["4", "1"], ["3", "7"]])
    value, _ = rho_Y_plus(market, cone, g)
    # agent 1 prices under the unique boundary measure (0,1); agent 2 under
    # the worst case of the full simplex
    assert value == Ext.of(1 + 7)
    fr = fairness_allocation(market, cone, g)
    verify_fairness(market, cone, g, fr)
    assert fr.allocations == (F(1), F(7))


@pytest.mark.parametrize("q_row, claim_row, where", [
    (["1/2", "1/2"], ["3", "1", "100"], "claim"),
    (["1/2", "1/2"], ["3"], "claim"),
    (["1"], ["3", "1"], "measure"),
    (["2", "-1"], ["3", "1"], "measure"),     # sums to 1 but has a negative entry
    (["1/2", "1/4"], ["3", "1"], "measure"),  # nonnegative but sums to 3/4
    (["1", "0"], ["3", "1"], "measure"),      # a probability row but no martingale measure
])
def test_measure_price_checks_both_rows(q_row, claim_row, where):
    market = parse_model(example_document("toy71")).market  # 2 atoms
    with pytest.raises(ValidationError) as err:
        rho_under_measure(market, 0, q_row, claim_row)
    assert err.value.where == where


@pytest.mark.parametrize("bad", [0.5, True, "x", "1/0"])
@pytest.mark.parametrize("entry, where", [
    ("rho_agent_plus", "claim"), ("rho_agent_plus_dual", "claim"),
    ("rho_under_measure-claim", "claim"), ("rho_under_measure-measure", "measure"),
    ("rho_full_market", "claim"), ("price_compatibility", "prices")])
def test_caller_rationals_are_validated(toy_market, entry, where, bad):
    """A float, a bool or a string that is no rational is a caller's input
    error, as in claim_vector, not a TypeError, ValueError or
    ZeroDivisionError."""
    call = {
        "rho_agent_plus": lambda: rho_agent_plus(toy_market, 0, [bad, "1"]),
        "rho_agent_plus_dual": lambda: rho_agent_plus_dual(toy_market, 0, [bad, "1"]),
        "rho_under_measure-claim":
            lambda: rho_under_measure(toy_market, 0, ["1/2", "1/2"], [bad, "1"]),
        "rho_under_measure-measure":
            lambda: rho_under_measure(toy_market, 0, [bad, "1/2"], ["3", "1"]),
        "rho_full_market": lambda: rho_full_market(toy_market, [bad, "1"]),
        "price_compatibility": lambda: price_compatibility(
            toy_market, make_Y0(toy_market, 0), claim_vector(toy_market, [["3", "1"], ["9", "3"]]),
            [bad, "1"]),
    }[entry]
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.where == where


@pytest.mark.parametrize("entry, where", [
    ("rho_agent_plus", "claim"), ("rho_under_measure", "measure"),
    ("price_compatibility", "prices")])
def test_caller_rows_must_be_lists(toy_market, entry, where):
    """A caller's claim, measure or price row that is not a list is an input
    error, as in claim_vector, not a TypeError."""
    call = {
        "rho_agent_plus": lambda: rho_agent_plus(toy_market, 0, 5),
        "rho_under_measure": lambda: rho_under_measure(toy_market, 0, None, ["3", "1"]),
        "price_compatibility": lambda: price_compatibility(
            toy_market, make_Y0(toy_market, 0), claim_vector(toy_market, [["3", "1"], ["9", "3"]]),
            7),
    }[entry]
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.where == where
