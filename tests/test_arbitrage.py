from fractions import Fraction

import pytest

from collective_arb import lp
from collective_arb.arbitrage import (detect_NA_agent, detect_NA_global,
                                      detect_NCA, emm_coordinate_range,
                                      emm_is_singleton, find_emm_vector,
                                      install_emm_system, interior_program,
                                      martingale_polytope,
                                      polar_witness)
from collective_arb.cones import cone_add, make_rays, make_span, make_Y0, make_zero
from collective_arb.errors import InternalInvariantError, ValidationError
from collective_arb.examples_builtin import example_document
from collective_arb.lp import EQ, LPBuilder, MAX, MIN
from collective_arb.market import PayoffMatrix, build_market
from collective_arb.model_io import parse_model
from collective_arb.pricing import optimal_face_measures
from collective_arb.randgen import random_cone, random_market, seeded_rng
from collective_arb.verify import (verify_arbitrage_found, verify_measure_vector,
                                   verify_polar_witness,
                                   verify_single_market_witness)

from conftest import toy_market_spec
from instance_checks import (interior_point_by_its_lp, least_entry, reference_polar_optimum,
                             reference_polar_rows)
from test_cones import span_cone

F = Fraction


def polytope_member(market, agent):
    polytope = martingale_polytope(market, agent)
    b = LPBuilder(MIN)
    q, = install_emm_system(b, polytope.n_atoms, [polytope.generators], None)
    out = b.solve()
    return None if out.status != "optimal" else tuple(out.point[v] for v in q)


# The coordinate-range programs as they were written by hand before
# ``install_emm_system`` built every dual-row program; the seeded test below
# holds the library's optima to theirs, and the polar witness's least entry
# to ``instance_checks.reference_polar_optimum``.

def reference_coordinate_range(market, cone, agent, atom):
    """(min, max) of q_agent(atom) over the compatible measure vectors, one
    MIN and one MAX program; None when there are none."""
    n, out = market.n_atoms, []
    for sense in (MIN, MAX):
        b = LPBuilder(sense)
        names = [[b.var(f"q{i}_{w}", lo=0) for w in range(n)] for i in range(market.n_agents)]
        for i, gens in enumerate(market.gains):
            b.row(f"q{i}_mass", {v: F(1) for v in names[i]}, EQ, 1)
            for k, g in enumerate(gens):
                b.row(f"q{i}_mart{k}", {names[i][w]: g.vector[w] for w in range(n)
                                        if g.vector[w]}, EQ, 0)
        reference_polar_rows(b, names, cone, (F(1),) * n)
        b.add_objective(names[agent][atom], 1)
        outcome = b.solve()
        if outcome.status != "optimal":
            return None
        out.append(outcome.value)
    return tuple(out)


def test_dual_optima_match_the_hand_built_programs():
    """On seeded random markets and cones: the least entry of the polar
    witness is the hand-built program's optimum, and every coordinate range
    is its MIN and MAX programs' values."""
    rng = seeded_rng()
    seen = {"witness": 0, "no witness": 0, "range": 0, "wide range": 0, "empty": 0}
    for _ in range(40):
        market = random_market(rng)
        cone, _ = random_cone(rng, market)
        z, best = polar_witness(market, cone), reference_polar_optimum(market, cone)
        if best is None:
            assert z is None
        else:
            assert z is not None and min(min(row) for row in z.rows) == best
        seen["no witness" if best is None else "witness"] += 1
        for agent in range(market.n_agents):
            for atom in range(market.n_atoms):
                bounds = emm_coordinate_range(market, cone, agent, atom)
                assert bounds == reference_coordinate_range(market, cone, agent, atom)
                seen["empty" if bounds is None else "range"] += 1
                seen["wide range"] += bounds is not None and bounds[0] < bounds[1]
    assert all(seen.values()), seen


def test_interior_points_match_the_program_without_shift():
    """On seeded random markets and cones: each agent's interior-point
    program and the measure-vector one have the optimum of the program with
    a free eps and one row q_iw - eps >= 0 per entry, optima of zero
    included (those print no point), and the point's least entry is it."""
    rng = seeded_rng()
    seen = {"positive": 0, "zero": 0, "none": 0}
    for _ in range(40):
        market = random_market(rng)
        cone, _ = random_cone(rng, market)
        programs = [(market.n_atoms, [gens], None) for gens in market.gains]
        for args in programs + [(market.n_atoms, market.gains, cone)]:
            hit, best = interior_program(*args)[1](), interior_point_by_its_lp(*args)
            assert (hit is None) == (best is None)
            if hit is not None:
                assert hit[0] == best == least_entry(hit[1])
            seen["none" if best is None else "positive" if best > 0 else "zero"] += 1
    assert all(seen.values()), seen


def test_an_empty_optimal_face_raises(toy_market, tree_market):
    """An optimal face is never empty.  A face row that no measure vector
    meets raises, whether the elimination of the equality rows finds the
    face empty (the toy market is complete, so they fix the measure vector)
    or the program does (the tree market's agents are not complete); also
    under python -O."""
    solved = []
    with lp.observe(lambda program, outcome: solved.append(program)):
        for market, programs in ((toy_market, 0), (tree_market, 1)):
            cone = make_Y0(market, 0)
            # the first agent's first atom has probability 2
            rows = [[F(k == w == 0) for w in range(market.n_atoms)] for k in range(2)]
            assert interior_program(market.n_atoms, market.gains, cone, face=(rows, 2))[0] is None
            with pytest.raises(InternalInvariantError, match="optimal face"):
                optimal_face_measures(market, cone, PayoffMatrix(rows=rows), 2)
            assert len(solved) == programs


def test_a_fixed_point_outside_a_ray_row_is_no_point(toy_market):
    """Both toy agents are complete, so the equality rows fix the measure
    vector ((1/2, 1/2), (1/6, 5/6)); against the ray moving one unit at w1
    from agent 2 to agent 1 it has the value 1/2 - 1/6 > 0, so no measure
    vector is polar to the cone, as the program finds too."""
    cone = make_rays(toy_market, [[["1", "0"], ["-1", "0"]]])
    args = (toy_market.n_atoms, toy_market.gains, cone)
    assert interior_program(*args)[0] is None
    assert interior_program(*args)[1]() is None and interior_point_by_its_lp(*args) is None
    assert interior_program(toy_market.n_atoms, toy_market.gains, None)[0] == (
        F(1, 6), ((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6))))


def test_na_agents_toy(toy_market):
    r1 = detect_NA_agent(toy_market, 0)
    assert not r1.found
    assert r1.dual_witness[0] == (F(1, 2), F(1, 2))
    verify_single_market_witness(toy_market, r1.dual_witness[0], agent=0)

    r2 = detect_NA_agent(toy_market, 1)
    assert not r2.found
    assert r2.dual_witness[0] == (F(1, 6), F(5, 6))


def test_monotone_price_is_arbitrage():
    spec = {
        "atoms": ["u", "d"], "prob": ["1/2", "1/2"], "times": 1,
        "global_filtration": [[["u", "d"]], [["u"], ["d"]]],
        "assets": {"X": ["1", ["2", "1"]]},
        "agents": [{"assets": ["X"]}],
    }
    market = build_market(spec)
    r = detect_NA_agent(market, 0)
    assert r.found
    verify_arbitrage_found(market, r, agent=0)


def test_na_global_toy_found(toy_market):
    r = detect_NA_global(toy_market)
    assert r.found
    verify_arbitrage_found(toy_market, r)


def test_na_global_tree_found(tree_market):
    r = detect_NA_global(tree_market)
    assert r.found
    verify_arbitrage_found(tree_market, r)


def test_na_global_single_agent_matches_agent():
    spec = toy_market_spec()
    spec["agents"] = [{"assets": ["X1"], "filtration": "global"}]
    del spec["assets"]["X2"]
    market = build_market(spec)
    assert not detect_NA_global(market).found
    assert not detect_NA_agent(market, 0).found


def test_na_agent_tree_witness_verifies(tree_market):
    r = detect_NA_agent(tree_market, 1)
    assert not r.found
    verify_single_market_witness(tree_market, r.dual_witness[0], agent=1)


def test_nca_toy_deterministic_cone_holds(toy_market):
    r = detect_NCA(toy_market, make_Y0(toy_market, 0))
    assert not r.found
    verify_polar_witness(toy_market, make_Y0(toy_market, 0), r.dual_witness)


def test_nca_toy_terminal_cone_fails(toy_market):
    r = detect_NCA(toy_market, make_Y0(toy_market, 1))
    assert r.found
    verify_arbitrage_found(toy_market, r, cone=make_Y0(toy_market, 1))


def test_nca_zero_cone_reduces_to_componentwise_na(toy_market, tree_market):
    for market in (toy_market, tree_market):
        collective = detect_NCA(market, make_zero(market))
        individual = any(detect_NA_agent(market, i).found
                         for i in range(market.n_agents))
        assert collective.found == individual


def test_martingale_polytope_toy_unique(toy_market):
    assert polytope_member(toy_market, 0) == (F(1, 2), F(1, 2))
    cone = make_zero(toy_market)
    # coordinate ranges collapse for complete single markets
    lo, hi = emm_coordinate_range(toy_market, cone, 0, 0)
    assert lo == hi == F(1, 2)


def test_martingale_polytope_tree_family(tree_market):
    """The family (q/4, q/4, (1-q)/2, (1-q)/2, q/6, q/3) over q in [0,1]."""
    cone = make_zero(tree_market)
    assert emm_coordinate_range(tree_market, cone, 0, 0) == (F(0), F(1, 4))
    assert emm_coordinate_range(tree_market, cone, 0, 4) == (F(0), F(1, 6))
    assert emm_coordinate_range(tree_market, cone, 0, 5) == (F(0), F(1, 3))
    # second agent swaps the terminal weights on the down node
    assert emm_coordinate_range(tree_market, cone, 1, 4) == (F(0), F(1, 3))
    assert emm_coordinate_range(tree_market, cone, 1, 5) == (F(0), F(1, 6))


def test_constant_asset_polytope_is_simplex():
    spec = {
        "atoms": ["a", "b"], "prob": ["1/2", "1/2"], "times": 1,
        "global_filtration": [[["a", "b"]], [["a"], ["b"]]],
        "assets": {"X": ["5", "5"]},
        "agents": [{"assets": ["X"]}],
    }
    market = build_market(spec)
    cone = make_zero(market)
    assert emm_coordinate_range(market, cone, 0, 0) == (F(0), F(1))


def test_emm_vector_toy_deterministic_cone(toy_market):
    mv = find_emm_vector(toy_market, make_Y0(toy_market, 0))
    assert mv is not None and mv.equivalent
    assert mv.densities == ((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6)))
    verify_measure_vector(toy_market, make_Y0(toy_market, 0), mv)


def test_emm_vector_toy_terminal_empty(toy_market):
    assert find_emm_vector(toy_market, make_Y0(toy_market, 1)) is None


def test_emm_vector_tree_equal_on_middle_partition(tree_market):
    cone = make_Y0(tree_market, 1)
    mv = find_emm_vector(tree_market, cone)
    assert mv is not None and mv.equivalent
    verify_measure_vector(tree_market, cone, mv)
    for block in tree_market.global_filtration.at(1):
        s0 = sum(mv.densities[0][w] for w in block)
        s1 = sum(mv.densities[1][w] for w in block)
        assert s0 == s1


def test_span_cone_no_emm_but_nca_holds(toy_market):
    cone = span_cone(toy_market)
    assert find_emm_vector(toy_market, cone) is None
    assert not detect_NCA(toy_market, cone).found


def test_polar_witness_span_cone_ray(toy_market):
    """With equal up/down ratios the polar is the single ray through
    ((2,2),(1,5)) scaled; unit mass pins ((2/5,2/5),(1/5,1))."""
    cone = span_cone(toy_market)
    z = polar_witness(toy_market, cone)
    assert z is not None
    assert z.rows == ((F(2, 5), F(2, 5)), (F(1, 5), F(1)))
    verify_polar_witness(toy_market, cone, z.rows)


def test_polar_witness_absent_under_arbitrage():
    spec = {
        "atoms": ["u", "d"], "prob": ["1/2", "1/2"], "times": 1,
        "global_filtration": [[["u", "d"]], [["u"], ["d"]]],
        "assets": {"X": ["1", ["2", "1"]]},
        "agents": [{"assets": ["X"]}],
    }
    market = build_market(spec)
    assert polar_witness(market, make_zero(market)) is None


def test_polar_witness_absent_when_ratios_differ():
    """Perturbing the second asset so the up/down ratios differ turns the
    span cone into a collective arbitrage opportunity."""
    spec = toy_market_spec()
    spec["assets"]["X2"] = ["4", ["10", "3"]]
    market = build_market(spec)
    cone = make_span(market, [
        [["3", "1"], ["-3", "-1"]],
        [["10", "3"], ["-10", "-3"]],
    ])
    assert polar_witness(market, cone) is None
    r = detect_NCA(market, cone)
    assert r.found
    verify_arbitrage_found(market, r, cone=cone)


def test_nca_span_plus_rn0_fails(toy_market):
    widened = cone_add(toy_market, span_cone(toy_market), make_Y0(toy_market, 0))
    r = detect_NCA(toy_market, widened)
    assert r.found
    verify_arbitrage_found(toy_market, r, cone=widened)


def test_zero_cost_invariant(tree_market):
    """Any polytope member gives zero expectation to every gains generator
    (cross-check of the constraint system against the witness)."""
    from collective_arb.market import gains_basis

    for agent in range(2):
        member = polytope_member(tree_market, agent)
        for g in gains_basis(tree_market, agent):
            assert sum(q * v for q, v in zip(member, g.vector)) == 0


def test_emm_singleton_detection(toy_market):
    mv = emm_is_singleton(toy_market, make_Y0(toy_market, 0))
    assert mv is not None
    assert mv.densities == ((F(1, 2), F(1, 2)), (F(1, 6), F(5, 6)))
    assert emm_is_singleton(toy_market, make_Y0(toy_market, 1)) is None


def test_heterogeneous_filtrations_detection():
    """An agent with coarser information: deterministic transfers keep the
    collective condition equivalent to the componentwise one, and the
    terminal transfer space is not representable when the joint partition
    outruns the coarse agent's terminal information."""
    from collective_arb.errors import ValidationError
    from collective_arb.pricing import claim_vector, rho_Y_plus
    from test_market import coarse_agent_spec

    market = build_market(coarse_agent_spec())
    assert not detect_NA_agent(market, 0).found
    assert not detect_NA_agent(market, 1).found
    cone = make_Y0(market, 0)
    assert not detect_NCA(market, cone).found
    mv = find_emm_vector(market, cone)
    assert mv is not None
    verify_measure_vector(market, cone, mv)

    g = claim_vector(market, [["4", "1", "2", "2"], ["4", "4", "2", "2"]])
    value, _ = rho_Y_plus(market, cone, g)
    assert value.finite

    with pytest.raises(ValidationError):
        make_Y0(market, 1)  # joint time-1 blocks exceed agent 2's information


@pytest.mark.parametrize("agent, atom", [(5, 0), (0, 7), (-1, 0), (0, -1), (True, 0), (0, False)])
def test_coordinate_range_checks_agent_and_atom(agent, atom):
    market = parse_model(example_document("toy71")).market  # 2 agents, 2 atoms
    with pytest.raises(ValidationError) as err:
        emm_coordinate_range(market, make_zero(market), agent, atom)
    assert err.value.where == ("agent" if agent != 0 else "atom")


def _cone_of_another_shape(kind):
    if kind == "atoms":  # tree72's cone: 2 agents on 6 atoms
        return parse_model(example_document("tree72")).exchange
    spec = toy_market_spec()
    spec["agents"], spec["assets"] = spec["agents"][:1], {"X1": spec["assets"]["X1"]}
    return make_Y0(build_market(spec), 0)  # 1 agent on the same 2 atoms


@pytest.mark.parametrize("kind", ["atoms", "agents"])
@pytest.mark.parametrize("entry", [
    "rho_Y_plus", "price_compatibility", "find_emm_vector", "polar_witness",
    "dual_rho_Y", "emm_coordinate_range", "fairness_allocation", "detect_NCA"])
def test_cone_of_another_shape_is_rejected(entry, kind):
    """A cone built on another market is rejected where it meets a program,
    instead of pricing with it or failing on an index."""
    from collective_arb import pricing

    doc = parse_model(example_document("toy71"))  # 2 agents, 2 atoms
    market, g, cone = doc.market, doc.claims, _cone_of_another_shape(kind)
    call = {
        "rho_Y_plus": lambda: pricing.rho_Y_plus(market, cone, g),
        "price_compatibility": lambda: pricing.price_compatibility(market, cone, g, ["0", "0"]),
        "find_emm_vector": lambda: find_emm_vector(market, cone),
        "polar_witness": lambda: polar_witness(market, cone),
        "dual_rho_Y": lambda: pricing.dual_rho_Y(market, cone, g),
        "emm_coordinate_range": lambda: emm_coordinate_range(market, cone, 0, 0),
        "fairness_allocation": lambda: pricing.fairness_allocation(market, cone, g),
        "detect_NCA": lambda: detect_NCA(market, cone),
    }[entry]
    with pytest.raises(ValidationError) as err:
        call()
    assert (err.value.where, err.value.message) == ("cone", "cone shape does not match the market")
