"""Shared invariant battery run on randomized market/cone/claim instances.

Used by the property tests (moderate sample) and the acceptance suite
(full >= 500-instance battery).  Every check is an exact rational equality
or inequality; every certificate is re-verified by the independent checker.
"""

from fractions import Fraction

from collective_arb import lp, verify
from collective_arb.arbitrage import (_search_arbitrage, detect_NA_agent,
                                      detect_NA_global, detect_NCA, emm_is_singleton,
                                      find_emm_vector, install_emm_system,
                                      interior_program, polar_witness)
from collective_arb.cones import Positions, cone_add, cone_contains, make_Y0
from collective_arb.ext import Ext
from collective_arb.lp import EQ, GE, LE, LPBuilder, MAX, MIN, solve_equalities
from collective_arb.market import PayoffMatrix, agents_join_partition, gains_basis
from collective_arb.pricing import (claim_vector, dual_rho_Y,
                                    fairness_allocation, pi_N_plus, pi_Y_minus, pi_Y_plus,
                                    price_certificate, rho_agent_plus,
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


def reference_polar_rows(b, names, cone, weight):
    """Rows <= 0 against each ray and = 0 against each lineality generator
    of ``cone``, over the variables ``names[i][w]`` weighted by ``weight``."""
    for rel, gens in ((LE, cone.rays), (EQ, cone.lineality)):
        for k, g in enumerate(gens):
            b.row(f"polar{rel}{k}", {names[i][w]: weight[w] * v for i, row in enumerate(g.rows)
                                     for w, v in enumerate(row) if v}, rel, 0)


def reference_polar_optimum(market, cone):
    """The largest least entry of a polar element of unit mass under P, by a
    program written by hand; None when it is not positive or there is no
    such element."""
    P, n = market.space.prob, market.n_atoms
    b = LPBuilder(MAX)
    eps = b.var("eps", obj=1)
    names = [[b.var(f"z{i}_{w}", lo=0) for w in range(n)] for i in range(market.n_agents)]
    for i, row in enumerate(names):
        for w, v in enumerate(row):
            b.row(f"int{i}_{w}", {v: F(1), eps: F(-1)}, GE, 0)
    for i, gens in enumerate(market.gains):
        for k, g in enumerate(gens):
            b.row(f"orth{i}_{k}", {names[i][w]: P[w] * g.vector[w] for w in range(n)
                                   if g.vector[w]}, EQ, 0)
    reference_polar_rows(b, names, cone, P)
    b.row("mass", {v: P[w] for row in names for w, v in enumerate(row)}, EQ, 1)
    out = b.solve()
    return out.value if out.status == "optimal" and out.value > 0 else None


def interior_point_by_its_lp(n_atoms, gens_per_row, cone, face=None, weight=None, mass="row"):
    """The largest least entry of a point of ``install_emm_system`` (with its
    ``weight`` and ``mass``; on ``face = (rows, value)`` when given), by the
    program without the shift: a free eps and one row q_iw - eps >= 0 per
    row and atom.  None when there is no such point."""
    b = LPBuilder(MAX)
    eps = b.var("eps", obj=1)
    q = install_emm_system(b, n_atoms, gens_per_row, cone, weight, mass)
    for i, row in enumerate(q):
        for w, v in enumerate(row):
            b.row(f"int{i}_{w}", {v: F(1), eps: F(-1)}, GE, 0)
    if face is not None:
        rows, value = face
        b.row("opt_face", {v: c for vs, row in zip(q, rows) for v, c in zip(vs, row)},
              EQ, value)
    out = b.solve()
    if out.status == "infeasible":
        return None
    assert out.status == "optimal"
    return out.value


def agent_price_by_its_lp(market, agent, claim_row):
    """The agent's super-replication price by its program: the least m such
    that m plus some gain of the agent dominates the claim, with the
    program's hedge (m, strategy) and measure row; (-inf, None, None) when
    the program is unbounded."""
    gens = gains_basis(market, agent)
    b = LPBuilder(MIN)
    m = b.var("m", obj=1)
    h = [b.var(f"h{k}") for k in range(len(gens))]
    for w in range(market.n_atoms):
        gains = {v: g.vector[w] for v, g in zip(h, gens) if g.vector[w]}
        b.row(f"dom{w}", {m: F(1), **gains}, GE, F(claim_row[w]))
    out = b.solve()
    if out.status == "unbounded":
        return Ext.neg_inf(), None, None
    assert out.status == "optimal"
    return Ext.of(out.value), (out.point[m], tuple(out.point[v] for v in h)), out.row_duals


def elimination_outcome(market, gens_per_row, cone, **system):
    """What the equality rows of the interior-point program of
    ``install_emm_system`` (with ``system``'s weight and mass) decide, held
    to the program without the shift: "positive" or "zero" for a point
    they fix, whose least entry is the program's optimum; "empty" when
    there is no point; "rank" when only the program decides.  A point > 0
    they fix skips the arbitrage search, which must then be infeasible."""
    fixed, _ = interior_program(market.n_atoms, gens_per_row, cone, **system)
    b = LPBuilder(MAX)
    n = sum(map(len, install_emm_system(b, market.n_atoms, gens_per_row, cone, **system)))
    eqs = [(coeffs, rhs) for _, coeffs, rel, rhs in b.rows if rel == EQ]
    if len(eqs) < n or solve_equalities(n, eqs) is None:
        assert fixed is None
        return "rank"
    best = interior_point_by_its_lp(market.n_atoms, gens_per_row, cone, **system)
    if fixed is None:
        assert best is None
        return "empty"
    assert fixed[0] == best == least_entry(fixed[1])
    if fixed[0] > 0:
        assert _search_arbitrage(market, gens_per_row, cone) is None
        return "positive"
    return "zero"


def minimal_transfer_by_its_lp(market, cone, claims, m_tilde, q_hat):
    """The least L1 norm of an exchange of the fairness canonicalisation, by
    the program without the L1 split: abs_iw >= +-(exchange entry), two
    rows per entry, at cost abs_iw."""
    N, n = market.n_agents, market.n_atoms
    b = LPBuilder(MIN)
    pos = Positions(b, n, market.gains, cone)
    absv = [[b.var(f"abs{i}_{w}", lo=0, obj=1) for w in range(n)] for i in range(N)]
    for i in range(N):
        zero_cost = {}
        for w in range(n):
            ex = pos.exchange(i, w)
            b.row(f"dom{i}_{w}", pos.payoff(i, w), GE, claims.rows[i][w] - m_tilde[i])
            b.row(f"absp{i}_{w}", {**ex, absv[i][w]: F(-1)}, LE, 0)
            b.row(f"absm{i}_{w}", {**{v: -c for v, c in ex.items()}, absv[i][w]: F(-1)},
                  LE, 0)
            for v, c in ex.items():
                zero_cost[v] = zero_cost.get(v, F(0)) + q_hat.densities[i][w] * c
        b.row(f"cost{i}", zero_cost, EQ, 0)
    out = b.solve()
    assert out.status == "optimal"
    return out.value


def least_entry(rows):
    return min(min(row) for row in rows)


def holds_reference_optimum(rows, best):
    """A point printed as canonical (None: none printed) against its
    reference optimum: it exists exactly when the optimum is positive, and
    its least entry is that optimum."""
    if best is None or best <= 0:
        return rows is None
    return rows is not None and least_entry(rows) == best


def contains_every_transfer(market, cone):
    """RN0 by its definition: every deterministic e_i - e_j lies in the cone
    (one membership LP per ordered agent pair)."""
    N, n = market.n_agents, market.n_atoms

    def transfer(i, j):
        return PayoffMatrix(rows=tuple((F(1) if k == i else F(-1) if k == j else F(0),) * n
                                       for k in range(N)))

    return all(cone_contains(cone, transfer(i, j)).contains
               for i in range(N) for j in range(N) if i != j)


def cash_group_share(groups, cert):
    """max over the cash groups G of the cash sum of G in the hedge of the
    price certificate ``cert``, over |G|."""
    m = cert.hedge.m
    return Ext.of(max(sum(m[i] for i in g) / len(g) for g in groups))


def check_instance(market, cone, info, claims, rng):
    """Run the full invariant battery; returns a dict of which theorem-level
    branches were exercised (for coverage accounting)."""
    hit = {"emm_equiv": False, "nca_holds": False, "rho_finite": False,
           "t0_cone": False, "terminal_y0": False, "singleton": False, "reflected": 0,
           "cash_groups": 0, "replicated": 0}
    hit.update({f"{family}_{outcome}": 0 for family in ("agent", "polar")
                for outcome in ("positive", "zero", "empty", "rank")})

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
    # each printed interior point is the optimum of the program with a free
    # eps and one row per entry, and exists exactly when that optimum is > 0
    singles = [(market, i, cert) for i, cert in enumerate(na_agents)]
    for m, i, cert in singles + [(market.full_market, 0, na_global)]:
        best = interior_point_by_its_lp(m.n_atoms, [gains_basis(m, i)], None)
        assert holds_reference_optimum(None if cert.found else cert.dual_witness, best)

    # every elimination of an interior point's equality rows (each agent's
    # and the pooled market's measures, the polar elements of the cone and of
    # the cone with the deterministic transfers) agrees with its program
    full = market.full_market
    for m, gens in [(market, [g]) for g in market.gains] + [(full, full.gains)]:
        hit["agent_" + elimination_outcome(m, gens, None)] += 1
    widened = cone_add(market, cone, make_Y0(market, 0))
    for c in (cone, widened):
        hit["polar_" + elimination_outcome(market, market.gains, c, weight=market.space.prob,
                                           mass="total")] += 1

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
    assert holds_reference_optimum(None if z is None else z.rows,
                                   reference_polar_optimum(market, cone))

    # (a) equivalent measure vector iff no collective arbitrage, given all
    # deterministic zero-sum transfers are allowed
    mv = find_emm_vector(market, cone)
    if mv is not None:
        verify.verify_measure_vector(market, cone, mv, strict=True)
        hit["emm_equiv"] = True
    assert holds_reference_optimum(None if mv is None else mv.densities,
                                   interior_point_by_its_lp(market.n_atoms, market.gains, cone))
    if cone.meta.contains_RN0:
        assert (mv is not None) == (not nca.found)
    # for every cone, an equivalent measure vector excludes collective arbitrage
    if mv is not None:
        assert not nca.found

    # a cone containing RN0 absorbs the deterministic zero-sum transfers:
    # detection on Y + Y0(0) agrees with detection on Y
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
        assert least_entry(dual_mv.densities) == interior_point_by_its_lp(
            market.n_atoms, market.gains, cone, face=(claims.rows, dual_v.value))

    # (c) each super-replication program's own outcome certifies its price
    # (report.analyze's check): a hedge and measure rows, or a ray, which
    # is a ray of the program on the negated claims too
    programs = [(None, (claims.rows[i],), {"agent": i}) for i in range(market.n_agents)]
    programs += [(cone, claims.rows, {}), (cone, claims.rows, {"shared_m": True})]
    verified = []
    for (c, rows, kw), value in zip(programs, rho_i + [rho_y, pi_y]):
        negated = tuple(tuple(-v for v in row) for row in rows)
        solved = []
        with lp.observe(lambda program, outcome: solved.append(program)):
            certs = [price_certificate(market, c, r, **kw) for r in (rows, negated)]
        verified.append(certs)
        for r, cert in zip((rows, negated), certs):
            verify.verify_price_certificate(market, c, r, cert, **kw)
        assert certs[0].value == value
        if kw.get("agent") is not None:
            # an agent's certificate, read off its one replicating hedge and
            # its one martingale measure q > 0 where both are fixed, is its
            # program's: the same price, hedge and measure row
            for r, cert in zip((rows, negated), certs):
                price, hedge, measure = agent_price_by_its_lp(market, kw["agent"], r[0])
                assert cert.value == price
                if hedge is not None:
                    assert (cert.hedge.m[0], cert.hedge.strategy_coeffs[0]) == hedge
                    assert cert.measures == (measure,)
            hit["replicated"] += 2 - len(solved)
        if value == Ext.neg_inf():
            assert certs[1].value == value
        # a hedge that meets every claim row with equality and uses no cone
        # ray, negated, with the same measure rows, certifies the negated
        # claims (report.analyze's sub-prices): its value is that of their
        # solved program, the one rho_agent_plus(-g_i), rho_Y_minus and
        # pi_Y_minus solve
        flipped = certs[0].reflected(rows)
        if flipped is not None:
            verify.verify_price_certificate(market, c, negated, flipped, **kw)
            assert flipped.value == certs[1].value == -value
            hit["reflected"] += 1
            certs.append(flipped)

    # (d) symmetrisation under deterministic transfers, for the super- and
    # the sub-replication price: on a cone whose cash groups are known, the
    # largest group share of the cash of the verified hedge of rho_Y, and
    # of each verified one of rho_+(-g), solved or reflected, is pi_Y, and
    # -pi_Y_minus (report.analyze's rule, with a ray too for one group);
    # one group, every cone containing RN0, gives rho_Y = N * pi_Y
    rho_ym = rho_Y_minus(market, cone, claims)
    pi_ym = pi_Y_minus(market, cone, claims)
    groups = cone.meta.groups
    if groups is not None and rho_y.finite:
        rho_certs = verified[market.n_agents]
        assert cash_group_share(groups, rho_certs[0]) == pi_y
        assert all(cash_group_share(groups, c) == -pi_ym for c in rho_certs[1:])
        if len(groups) > 1:
            hit["cash_groups"] += len(rho_certs)
    if cone.meta.contains_RN0:
        assert groups == (tuple(range(market.n_agents)),)
        assert rho_y == pi_y * market.n_agents
        assert rho_ym == pi_ym * market.n_agents

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
        assert sum(abs(v) for row in fr.y_tilde_rows for v in row) == \
            minimal_transfer_by_its_lp(market, cone, claims, fr.m_tilde, fr.q_hat)
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
