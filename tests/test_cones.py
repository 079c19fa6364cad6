import random
from fractions import Fraction

import pytest

from collective_arb import cones
from collective_arb.cones import (cone_add, cone_contains, combination_rows,
                                  make_grouping, make_rays, make_span, make_Y0,
                                  make_zero, spans_equal)
from collective_arb.errors import InternalInvariantError
from collective_arb.market import PayoffMatrix, build_market, payoff_matrix

from conftest import toy_market_spec
from test_market import rank

F = Fraction


def span_cone(market):
    """Vector space spanned by (X1_1, -X1_1) and (X2_1, -X2_1)."""
    return make_span(market, [
        [["3", "1"], ["-3", "-1"]],
        [["9", "3"], ["-9", "-3"]],
    ])


def test_Y0_at_zero_is_deterministic_transfers(toy_market):
    cone = make_Y0(toy_market, 0)
    assert len(cone.lineality) == 1 and not cone.rays
    assert cone.lineality[0].rows == ((F(1), F(1)), (F(-1), F(-1)))
    assert cone.meta.is_zero_sum and cone.meta.contains_RN0
    assert cone.meta.measurable_at == 0


def test_Y0_single_atom_market():
    spec = {
        "atoms": ["w"], "prob": ["1"], "times": 1,
        "global_filtration": [[["w"]], [["w"]]],
        "assets": {"X": ["1", "1"]},
        "agents": [{"assets": ["X"]}, {"assets": ["X"]}],
    }
    market = build_market(spec)
    c0 = make_Y0(market, 0)
    cT = make_Y0(market, 1)
    assert cT.lineality[0].rows == ((F(1),), (F(-1),))
    assert spans_equal(c0, cT)


def test_Y0_tree_t1_dimension(tree_market):
    cone = make_Y0(tree_market, 1)
    assert len(cone.lineality) == 3
    flat = [tuple(v for row in g.rows for v in row) for g in cone.lineality]
    assert rank(flat) == 3
    assert cone.meta.measurable_at == 1


def test_grouping_single_group_matches_Y0(tree_market):
    assert spans_equal(make_grouping(tree_market, [[0, 1]], 1),
                       make_Y0(tree_market, 1))


def test_grouping_isolated_agent():
    spec = toy_market_spec()
    spec["agents"].append({"assets": ["X1"], "filtration": "global"})
    market = build_market(spec)
    cone = make_grouping(market, [[0], [1, 2]], 1)
    for g in cone.lineality:
        assert all(v == 0 for v in g.rows[0])
        assert all(a + b == 0 for a, b in zip(g.rows[1], g.rows[2]))
    assert not cone.meta.contains_RN0


def test_grouping_dimension_one_atom():
    spec = {
        "atoms": ["w"], "prob": ["1"], "times": 1,
        "global_filtration": [[["w"]], [["w"]]],
        "assets": {"X": ["1", "1"]},
        "agents": [{"assets": ["X"]} for _ in range(4)],
    }
    market = build_market(spec)
    cone = make_grouping(market, [[0, 1], [2, 3]], 1)
    flat = [tuple(v for row in g.rows for v in row) for g in cone.lineality]
    assert rank(flat) == 2  # sum of (group size - 1)


def test_span_cone_flags(toy_market):
    cone = span_cone(toy_market)
    assert cone.meta.is_zero_sum
    assert not cone.meta.contains_RN0
    assert cone.meta.measurable_at == 1


def test_empty_span_is_zero_cone(toy_market):
    cone = make_span(toy_market, [])
    assert cone.is_trivial()
    zero = payoff_matrix(toy_market, [["0", "0"], ["0", "0"]])
    assert cone_contains(cone, zero).contains


def test_span_with_constant_transfer_contains_rn0(toy_market):
    cone = make_span(toy_market, [
        [["1", "1"], ["-1", "-1"]],
        [["0", "0"], ["0", "0"]],
    ])
    assert cone.meta.contains_RN0


def test_cone_add_identity(toy_market):
    a = make_Y0(toy_market, 1)
    assert spans_equal(cone_add(toy_market, a, make_zero(toy_market)), a)


def test_cone_add_span_plus_rn0(toy_market):
    widened = cone_add(toy_market, span_cone(toy_market), make_Y0(toy_market, 0))
    assert widened.meta.contains_RN0


def test_cone_add_Y0_absorbs_coarser(toy_market):
    both = cone_add(toy_market, make_Y0(toy_market, 0), make_Y0(toy_market, 1))
    assert spans_equal(both, make_Y0(toy_market, 1))


def test_membership_zero_in_every_cone(toy_market):
    zero = payoff_matrix(toy_market, [["0", "0"], ["0", "0"]])
    for cone in (make_zero(toy_market), make_Y0(toy_market, 0), span_cone(toy_market)):
        hit = cone_contains(cone, zero)
        assert hit.contains
        assert all(c == 0 for c in hit.ray_coeffs + hit.lin_coeffs)


def test_membership_generator_itself(toy_market):
    cone = make_Y0(toy_market, 0)
    e12 = payoff_matrix(toy_market, [["1", "1"], ["-1", "-1"]])
    assert cone_contains(cone, e12).contains


def test_membership_separator_for_non_zero_sum(toy_market):
    cone = make_Y0(toy_market, 1)
    ones = payoff_matrix(toy_market, [["1", "1"], ["1", "1"]])
    hit = cone_contains(cone, ones)
    assert not hit.contains
    sep = hit.separator
    # orthogonal to every zero-sum generator means equal weight per column
    for w in range(2):
        assert sep[0][w] == sep[1][w]
    assert sum(sep[0]) + sum(sep[1]) > 0


def test_zero_sum_flag_random_combinations(toy_market):
    cone = make_Y0(toy_market, 1)
    rng = random.Random(7)
    for _ in range(100):
        mu = [F(rng.randint(0, 5)) for _ in cone.rays]
        nu = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in cone.lineality]
        rows = combination_rows(cone, mu, nu)
        for w in range(2):
            assert sum(r[w] for r in rows) == 0


def test_ray_cone_membership(toy_market):
    cone = make_rays(toy_market, [[["1", "0"], ["-1", "0"]]])
    inside = payoff_matrix(toy_market, [["2", "0"], ["-2", "0"]])
    outside = payoff_matrix(toy_market, [["-1", "0"], ["1", "0"]])
    assert cone_contains(cone, inside).contains
    assert not cone_contains(cone, outside).contains


def test_grouping_mask_property(tree_market):
    """Masking a member by a group's indicator keeps it in the cone."""
    spec = {
        "atoms": ["w1", "w2"], "prob": ["1/2", "1/2"], "times": 1,
        "global_filtration": [[["w1", "w2"]], [["w1"], ["w2"]]],
        "assets": {"X": ["1", ["2", "1"]]},
        "agents": [{"assets": ["X"]} for _ in range(3)],
    }
    market = build_market(spec)
    groups = [[0], [1, 2]]
    cone = make_grouping(market, groups, 1)
    rng = random.Random(17)
    for _ in range(25):
        mu = [F(0)] * len(cone.rays)
        nu = [F(rng.randint(-4, 4)) for _ in cone.lineality]
        member = combination_rows(cone, mu, nu)
        for group in groups:
            masked = tuple(row if i in group else tuple(F(0) for _ in row)
                           for i, row in enumerate(member))
            assert cone_contains(cone, PayoffMatrix(rows=masked)).contains


def _transfer(market, i, j):
    """The deterministic transfer e_i - e_j: one unit from agent j to i."""
    rows = [["0"] * market.n_atoms for _ in range(market.n_agents)]
    rows[i], rows[j] = ["1"] * market.n_atoms, ["-1"] * market.n_atoms
    return payoff_matrix(market, rows)


def test_rn0_flag_matches_all_pairs_definition():
    # Y0, grouping and zero cones know the flag by construction, a sum
    # knows it when a summand contains RN0, and the rest probe only
    # +-(e_k - e_{k+1}); every answer must agree with cone membership of
    # every e_i - e_j
    for n_agents in (3, 4):
        spec = toy_market_spec()
        spec["agents"] += [{"assets": [f"X{1 + k % 2}"], "filtration": "global"}
                           for k in range(n_agents - 2)]
        market = build_market(spec)
        pairs = [(i, j) for i in range(n_agents) for j in range(n_agents) if i != j]
        chain = make_rays(market, [_transfer(market, k, k + 1) for k in range(n_agents - 1)]
                          + [_transfer(market, n_agents - 1, n_agents - 2)])
        assert not chain.meta.contains_RN0
        # two groupings without RN0 whose groups together connect every agent
        halves = [make_grouping(market, [[0, 1], list(range(2, n_agents))], 1),
                  make_grouping(market, [[0], list(range(1, n_agents))], 1)]
        assert not any(c.meta.contains_RN0 for c in halves)
        cones = [
            make_Y0(market, 1),
            make_grouping(market, [[0, 1], list(range(2, n_agents))], 1),
            make_grouping(market, [[2, 0, 1] + list(range(3, n_agents))], 1),
            make_grouping(market, [list(range(n_agents)), []], 0),
            make_zero(market),
            cone_add(market, *halves),
            make_span(market, [_transfer(market, k, k + 1) for k in range(n_agents - 1)]),
            make_span(market, [_transfer(market, 0, 2)]),
            make_rays(market, [_transfer(market, 0, 1), _transfer(market, 1, 0),
                               _transfer(market, 1, 2)]),
            # RN0 by construction: the Y0(0) summand contains it
            cone_add(market, make_span(market, [_transfer(market, 0, 2)]), make_Y0(market, 0)),
            # neither summand contains RN0, so the probes decide
            cone_add(market, make_span(market, [_transfer(market, 0, 2)]), chain),
            cone_add(market, make_span(market, [_transfer(market, 0, 2)]), make_zero(market)),
        ]
        flags = [c.meta.contains_RN0 for c in cones]
        assert flags == [True, False, True, True, False, True,
                         True, False, False, True, True, False]
        for cone, flag in zip(cones, flags):
            assert flag == all(cone_contains(cone, _transfer(market, i, j)).contains
                               for i, j in pairs)


def test_one_agent_cones_contain_rn0_without_probes(monkeypatch):
    # with one agent RN0 = {0}, which every cone contains
    def no_probe(cone, y):
        raise AssertionError("membership probe run for a flag known by construction")

    monkeypatch.setattr(cones, "cone_contains", no_probe)
    spec = toy_market_spec()
    spec["agents"] = spec["agents"][:1]
    del spec["assets"]["X2"]
    market = build_market(spec)
    for cone in (make_Y0(market, 0), make_Y0(market, 1), make_zero(market)):
        assert cone.is_trivial() and cone.meta.contains_RN0


def test_cash_groups_by_construction():
    # the zero cone's agents are singletons, a grouping cone's groups are
    # its own, and a cone containing RN0 is one group; the groups of other
    # cones are unknown.  RN0 is the one-group case on every constructor
    spec = toy_market_spec()
    spec["agents"].append({"assets": ["X1"], "filtration": "global"})
    market = build_market(spec)
    span = make_span(market, [_transfer(market, 0, 2)])
    probed = make_span(market, [_transfer(market, 0, 1), _transfer(market, 1, 2)])
    one = ((0, 1, 2),)
    expected = [(make_zero(market), ((0,), (1,), (2,))), (make_Y0(market, 1), one),
                (make_grouping(market, [[2, 0], [1]], 1), ((0, 2), (1,))),
                (make_grouping(market, [[2, 1, 0]], 0), one), (span, None), (probed, one),
                (cone_add(market, span, make_Y0(market, 0)), one),
                (cone_add(market, span, make_zero(market)), None)]
    spec["agents"] = spec["agents"][:1]
    del spec["assets"]["X2"]
    expected.append((make_zero(build_market(spec)), ((0,),)))
    for cone, groups in expected:
        assert cone.meta.groups == groups
        assert cone.meta.contains_RN0 == (groups is not None and len(groups) == 1)


def test_a_generator_crossing_the_cash_groups_is_refused(toy_market):
    # an InternalInvariantError, not an assert, so it fires under python -O
    with pytest.raises(InternalInvariantError, match="crosses its cash groups"):
        cones._make(toy_market, (), [_transfer(toy_market, 0, 1)], groups=((0,), (1,)))
