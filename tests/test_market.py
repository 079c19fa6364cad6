from fractions import Fraction

import pytest

from collective_arb.errors import ValidationError
from collective_arb.examples_builtin import example_document, example_names
from collective_arb.market import (build_market, coarsest_adapted_filtration, frac,
                                   gains_basis, payoff_matrix,
                                   partition_join, refines)

from conftest import toy_market_spec, tree_market_spec

F = Fraction


def rank(vectors):
    """Exact Gaussian-elimination rank, independent of the library."""
    rows = [list(map(F, v)) for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_frac_makes_exact_rationals_and_refuses_the_rest():
    assert [frac(x) for x in ("5/6", -3, F(1, 2))] == [F(5, 6), F(-3), F(1, 2)]
    assert all(type(frac(x)) is Fraction for x in ("5/6", -3))
    for x in (True, 0.5, None):
        with pytest.raises(TypeError, match="not an exact rational"):
            frac(x)


def test_build_toy_market(toy_market):
    assert toy_market.n_agents == 2 and toy_market.T == 1
    assert toy_market.assets[0].values[1] == (F(3), F(1))


def test_zero_probability_rejected():
    spec = toy_market_spec()
    spec["prob"] = ["0", "1"]
    with pytest.raises(ValidationError) as e:
        build_market(spec)
    assert "positive" in str(e.value)


def test_probabilities_must_sum_to_one():
    spec = toy_market_spec()
    spec["prob"] = ["1/2", "1"]
    with pytest.raises(ValidationError) as e:
        build_market(spec)
    assert "sum" in str(e.value)


def test_non_adapted_price_rejected():
    spec = toy_market_spec()
    spec["assets"]["X1"] = [["2", "5"], ["3", "1"]]
    with pytest.raises(ValidationError) as e:
        build_market(spec)
    assert "adapted" in str(e.value)


def test_non_refining_partition_rejected():
    spec = tree_market_spec()
    spec["global_filtration"][2] = spec["global_filtration"][1]
    spec["global_filtration"][1] = [["w1"], ["w2"], ["w3", "w4"], ["w5", "w6"]]
    with pytest.raises(ValidationError):
        build_market(spec)


def test_tree_market_partition(tree_market):
    assert tree_market.global_filtration.at(1) == ((0, 1), (2, 3), (4, 5))


def test_gains_basis_toy_agent1(toy_market):
    gens = gains_basis(toy_market, 0)
    assert len(gens) == 1
    assert gens[0].vector == (F(1), F(-1))


def test_full_gains_toy(toy_market):
    vecs = [g.vector for g in toy_market.full_market.gains[0]]
    assert vecs == [(F(1), F(-1)), (F(5), F(-1))]


def test_constant_asset_zero_generators():
    spec = toy_market_spec()
    spec["assets"]["X3"] = ["7", "7"]
    spec["agents"][0]["assets"] = ["X1", "X3"]
    market = build_market(spec)
    gens = gains_basis(market, 0)
    assert any(all(v == 0 for v in g.vector) for g in gens)


def test_tree_gains_rank(tree_market):
    gens = gains_basis(tree_market, 0)
    assert len(gens) == 4  # one first-period trade plus one per middle node
    assert rank([g.vector for g in gens]) == 4
    assert rank([g.vector for g in tree_market.full_market.gains[0]]) == 5


def test_span_monotonicity(tree_market):
    markets = [tree_market, build_market(coarse_agent_spec())]
    for market in markets:
        full = [g.vector for g in market.full_market.gains[0]]
        base = rank(full)
        for i in range(market.n_agents):
            for g in gains_basis(market, i):
                assert rank(full + [g.vector]) == base


@pytest.mark.parametrize("agent", [2, -1, True, False])
def test_gains_basis_takes_only_agent_indices(toy_market, agent):
    with pytest.raises(ValidationError) as e:
        gains_basis(toy_market, agent)  # a bool would otherwise read as agent 1 or 0
    assert e.value.where == "agent"


def test_payoff_matrix_measurability(tree_market):
    with pytest.raises(ValidationError):
        payoff_matrix(tree_market, [["1"] * 6, ["1"] * 5])
    ok = payoff_matrix(tree_market, [["1"] * 6, ["2"] * 6])
    assert ok.column_sums() == tuple(F(3) for _ in range(6))


def test_partition_helpers():
    p = ((0, 1), (2, 3))
    q = ((0,), (1, 2, 3))
    assert partition_join(p, q) == ((0,), (1,), (2, 3))
    assert refines(p, ((0,), (1,), (2, 3))) is False
    assert refines(((0,), (1,), (2,), (3,)), p)


def test_coarsest_adapted_filtration(tree_market):
    rows_by_t = [[a.values[t] for a in tree_market.assets] for t in range(3)]
    parts = coarsest_adapted_filtration(6, rows_by_t)
    assert parts[0] == ((0, 1, 2, 3, 4, 5),)
    assert parts[1] == ((0, 1), (2, 3), (4, 5))


def coarse_agent_spec():
    """Agent 2 observes only the coarse split {a,b} vs {c,d}; its asset and
    claim must be constant on those blocks."""
    return {
        "atoms": ["a", "b", "c", "d"],
        "prob": ["1/4", "1/4", "1/4", "1/4"],
        "times": 1,
        "global_filtration": [[["a", "b", "c", "d"]],
                              [["a"], ["b"], ["c"], ["d"]]],
        "assets": {
            "X1": ["2", ["4", "1", "2", "2"]],
            "X2": ["3", ["4", "4", "2", "2"]],
        },
        "agents": [
            {"assets": ["X1"], "filtration": "global"},
            {"assets": ["X2"],
             "filtration": [[["a", "b", "c", "d"]], [["a", "b"], ["c", "d"]]]},
        ],
    }


def test_heterogeneous_filtrations_gains(tree_market):
    market = build_market(coarse_agent_spec())
    assert len(gains_basis(market, 0)) == 1
    g2 = gains_basis(market, 1)
    assert len(g2) == 1 and g2[0].vector == (F(1), F(1), F(-1), F(-1))


@pytest.mark.parametrize("name", example_names())
def test_analysis_builds_each_gains_basis_once(name, monkeypatch):
    """One analysis builds the N agents' bases and the whole market's, then
    reads the same objects again."""
    from collective_arb import market as market_mod
    from collective_arb.model_io import parse_model
    from collective_arb.report import analyze

    builds = []
    real = market_mod._generators

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(market_mod, "_generators", counted)
    model = parse_model(example_document(name))
    analyze(model)
    market = model.market
    assert len(builds) == market.n_agents + 1
    for i in range(market.n_agents):
        assert gains_basis(market, i) is gains_basis(market, i)
    assert market.full_market is market.full_market
    assert len(builds) == market.n_agents + 1


def test_generators_measurable_at_terminal_partition(tree_market):
    from collective_arb.market import constant_on

    markets = [tree_market, build_market(coarse_agent_spec())]
    for market in markets:
        for i in range(market.n_agents):
            part = market.terminal_partition(i)
            for g in gains_basis(market, i):
                assert constant_on(g.vector, part)


def test_heterogeneous_filtration_requires_adapted_assets():
    spec = coarse_agent_spec()
    spec["agents"][1]["assets"] = ["X1", "X2"]  # X1 not coarse-adapted
    with pytest.raises(ValidationError) as e:
        build_market(spec)
    assert "adapted" in str(e.value)
