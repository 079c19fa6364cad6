"""Shared invariant battery run on randomized market/cone/claim instances.

Used by the property tests (moderate sample) and the acceptance suite
(full >= 500-instance battery).  Every check is an exact rational equality
or inequality; every certificate is re-verified by the independent checker.
"""

from fractions import Fraction

from collective_arb import verify
from collective_arb.arbitrage import (detect_NA_agent, detect_NA_global,
                                      detect_NCA, emm_is_singleton,
                                      find_emm_vector, polar_witness)
from collective_arb.cones import cone_add, cone_contains, make_Y0
from collective_arb.ext import Ext
from collective_arb.lp import EQ, GE, LPBuilder, MIN
from collective_arb.market import PayoffMatrix, agents_join_partition, gains_basis
from collective_arb.pricing import (claim_vector, dual_rho_Y, fairness_allocation,
                                    pi_N_plus, pi_Y_minus, pi_Y_plus, price_certificate,
                                    rho_agent_plus,
                                    rho_agent_plus_dual, rho_full_market,
                                    rho_N_minus, rho_N_plus, rho_Y_minus,
                                    rho_Y_plus, value_of_cooperation)

F = Fraction


def pi_N_by_its_lp(market, claims):
    """The single-claim price without cooperation by its defining LP: the
    least m such that m plus some gain of agent i dominates claim i, for
    every agent i at once (-inf when the LP is unbounded)."""
    b = LPBuilder(MIN)
    m = b.var("m", obj=1)
    gens = [gains_basis(market, i) for i in range(market.n_agents)]
    h = [[b.var(f"h{i}_{k}") for k in range(len(gens[i]))] for i in range(market.n_agents)]
    for i in range(market.n_agents):
        for w in range(market.n_atoms):
            gains = {v: g.vector[w] for v, g in zip(h[i], gens[i]) if g.vector[w]}
            b.row(f"dom{i}_{w}", {m: F(1), **gains}, GE, claims.rows[i][w])
    out = b.solve()
    if out.status == "unbounded":
        return Ext.neg_inf()
    assert out.status == "optimal"
    return Ext.of(out.value)


def rho_under_measure_by_its_lp(market, agent, q_row, claim_row):
    """The agent's replication cost under a fixed martingale measure q by its
    defining LP: the least m such that m, plus a gain of the agent, plus an
    instrument y constant on each of its terminal blocks with zero cost
    under q, dominates the claim."""
    gens = gains_basis(market, agent)
    blocks = market.terminal_partition(agent)
    b = LPBuilder(MIN)
    m = b.var("m", obj=1)
    h = [b.var(f"h{k}") for k in range(len(gens))]
    y = [b.var(f"y{k}") for k in range(len(blocks))]
    cost = {y[k]: sum(F(q_row[w]) for w in blk) for k, blk in enumerate(blocks)}
    b.row("zero_cost", {v: c for v, c in cost.items() if c}, EQ, 0)
    for w in range(market.n_atoms):
        k_w = next(k for k, blk in enumerate(blocks) if w in blk)
        coeffs = {m: F(1), y[k_w]: F(1)}
        coeffs.update({v: g.vector[w] for v, g in zip(h, gens) if g.vector[w]})
        b.row(f"dom{w}", coeffs, GE, F(claim_row[w]))
    out = b.solve()
    assert out.status == "optimal"
    return out.value


def contains_every_transfer(market, cone):
    """RN0 by its definition: every deterministic e_i - e_j lies in the cone
    (one membership LP per ordered agent pair)."""
    N, n = market.n_agents, market.n_atoms

    def transfer(i, j):
        return PayoffMatrix(rows=tuple((F(1) if k == i else F(-1) if k == j else F(0),) * n
                                       for k in range(N)))

    return all(cone_contains(cone, transfer(i, j)).contains
               for i in range(N) for j in range(N) if i != j)


def check_instance(market, cone, info, claims, rng):
    """Run the full invariant battery; returns a dict of which theorem-level
    branches were exercised (for coverage accounting)."""
    hit = {"emm_equiv": False, "nca_holds": False, "rho_finite": False,
           "t0_cone": False, "terminal_y0": False, "singleton": False}

    # the stored RN0 flag, known by construction or probed, is the definition
    assert cone.meta.contains_RN0 == contains_every_transfer(market, cone)

    # -- detection with two-sided certificates ------------------------------
    na_agents = []
    for i in range(market.n_agents):
        cert = detect_NA_agent(market, i)
        if cert.found:
            verify.verify_arbitrage_found(market, cert, agent=i)
        else:
            verify.verify_single_market_witness(market, cert.dual_witness[0], agent=i)
        na_agents.append(cert)
    na_global = detect_NA_global(market)
    if na_global.found:
        verify.verify_arbitrage_found(market, na_global)
    else:
        verify.verify_single_market_witness(market, na_global.dual_witness[0])

    nca = detect_NCA(market, cone)
    if nca.found:
        verify.verify_arbitrage_found(market, nca, cone=cone)
    else:
        hit["nca_holds"] = True
        verify.verify_polar_witness(market, cone, nca.dual_witness)

    # (b) strictly positive polar element iff no collective arbitrage
    z = polar_witness(market, cone)
    assert (z is not None) == (not nca.found)
    if z is not None:
        verify.verify_polar_witness(market, cone, z.rows, strict=True)

    # (a) equivalent measure vector iff no collective arbitrage, given all
    # deterministic zero-sum transfers are allowed
    mv = find_emm_vector(market, cone)
    if mv is not None:
        verify.verify_measure_vector(market, cone, mv, strict=True)
        hit["emm_equiv"] = True
    if cone.meta.contains_RN0:
        assert (mv is not None) == (not nca.found)
    # for every cone, an equivalent measure vector excludes collective arbitrage
    if mv is not None:
        assert not nca.found

    # a cone containing RN0 absorbs the deterministic zero-sum transfers:
    # detection on Y + Y0(0) agrees with detection on Y
    widened = cone_add(market, cone, make_Y0(market, 0))
    widened_found = detect_NCA(market, widened).found
    if cone.meta.contains_RN0:
        assert widened_found == nca.found
    # for every cone, Y + Y0(0) has an arbitrage exactly when Y has one or
    # no equivalent measure vector is polar to Y (the rule of report.analyze)
    assert widened_found == (nca.found or mv is None)

    # measure vectors for transfer cones settled at time t agree across
    # agents on every time-t information block
    if info["kind"] == "y0" and mv is not None:
        part = agents_join_partition(market, info["t"])
        for block in part:
            masses = [sum(mv.densities[i][w] for w in block)
                      for i in range(market.n_agents)]
            assert all(m == masses[0] for m in masses)

    # (f) one-way implication lattice on zero-sum cones
    assert cone.meta.is_zero_sum
    if not na_global.found:
        assert not nca.found
    if not nca.found:
        assert all(not c.found for c in na_agents)

    # (g) deterministic cones: collective no-arbitrage collapses to the
    # componentwise condition
    if cone.meta.measurable_at == 0:
        hit["t0_cone"] = True
        assert (not nca.found) == all(not c.found for c in na_agents)

    # (h) all terminal zero-sum transfers: collapse to the global market
    terminal_y0 = info["kind"] == "y0" and info["t"] == market.T
    if terminal_y0:
        hit["terminal_y0"] = True
        assert (not nca.found) == (not na_global.found)

    # -- pricing ------------------------------------------------------------
    rho_i = []
    for i in range(market.n_agents):
        v, opt = rho_agent_plus(market, i, claims.rows[i])
        assert v == rho_agent_plus_dual(market, i, claims.rows[i])
        rho_i.append(v)
    rho_n = rho_N_plus(market, claims)
    assert rho_n == sum(rho_i[1:], rho_i[0])
    pi_n = pi_N_plus(market, claims)
    assert pi_n == pi_N_by_its_lp(market, claims)

    rho_y, opt = rho_Y_plus(market, cone, claims)
    pi_y, _ = pi_Y_plus(market, cone, claims)
    assert rho_y <= rho_n and pi_y <= pi_n
    if opt is not None:
        verify.verify_primal_optimizer(market, cone, claims, opt, rho_y.value)

    # (c) pricing-hedging duality, including the unbounded case
    dual_v, dual_mv = dual_rho_Y(market, cone, claims)
    assert dual_v == rho_y
    if dual_mv is not None:
        verify.verify_measure_vector(market, cone, dual_mv, strict=False)

    # (c) each super-replication program's own outcome certifies its price
    # (report.analyze's check): a hedge and measure rows, or a ray, which
    # is a ray of the program on the negated claims too
    programs = [(None, (claims.rows[i],), {"agent": i}) for i in range(market.n_agents)]
    programs += [(cone, claims.rows, {}), (cone, claims.rows, {"shared_m": True})]
    for (c, rows, kw), value in zip(programs, rho_i + [rho_y, pi_y]):
        negated = tuple(tuple(-v for v in row) for row in rows)
        certs = [price_certificate(market, c, r, **kw) for r in (rows, negated)]
        for r, cert in zip((rows, negated), certs):
            verify.verify_price_certificate(market, c, r, cert, **kw)
        assert certs[0].value == value
        if value == Ext.neg_inf():
            assert certs[1].value == value

    # (d) symmetrisation under deterministic transfers, for the super- and
    # the sub-replication price
    rho_ym = rho_Y_minus(market, cone, claims)
    if cone.meta.contains_RN0:
        assert rho_y == pi_y * market.n_agents
        assert rho_ym == pi_Y_minus(market, cone, claims) * market.n_agents

    if terminal_y0:
        pooled = [sum(col) for col in zip(*claims.rows)]
        assert rho_y == rho_full_market(market, pooled)

    # (e) exchange cone absorbing the deterministic transfers
    rho_w, _ = rho_Y_plus(market, widened, claims)
    assert rho_w == rho_y

    if cone.meta.contains_RN0 and not nca.found:
        hit["rho_finite"] = rho_y.finite
        zero = claim_vector(market, [["0"] * market.n_atoms] * market.n_agents)
        v0, _ = rho_Y_plus(market, cone, zero)
        assert v0 == Ext.of(0)
        c = [F(rng.randint(-4, 4)) for _ in range(market.n_agents)]
        shifted = claim_vector(market, [
            [F(v) + c[i] for v in claims.rows[i]] for i in range(market.n_agents)])
        v_shift, _ = rho_Y_plus(market, cone, shifted)
        assert v_shift == rho_y + Ext.of(sum(c))
        bumps = [[F(rng.randint(0, 3)) for _ in range(market.n_atoms)]
                 for _ in range(market.n_agents)]
        bigger = claim_vector(market, [
            [F(v) + b for v, b in zip(claims.rows[i], bumps[i])]
            for i in range(market.n_agents)])
        v_big, _ = rho_Y_plus(market, cone, bigger)
        assert rho_y <= v_big

        # (i) fairness identities
        fr = fairness_allocation(market, cone, claims)
        verify.verify_fairness(market, cone, claims, fr)
        for i in range(market.n_agents):
            assert Ext.of(fr.allocations[i]) <= rho_i[i]
            assert fr.per_agent_prices[i] == rho_under_measure_by_its_lp(
                market, i, fr.q_hat.densities[i], claims.rows[i])

        single = emm_is_singleton(market, cone)
        if single is not None:
            hit["singleton"] = True
            expect = sum(sum(q * F(v) for q, v in zip(single.densities[i], claims.rows[i]))
                         for i in range(market.n_agents))
            assert rho_y == Ext.of(expect)

    coop = value_of_cooperation(market, cone, claims)
    assert coop["selling"] >= Ext.of(0)
    assert coop["total"] >= Ext.of(0)
    assert rho_ym >= rho_N_minus(market, claims)
    return hit
