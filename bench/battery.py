"""The battery_audited workload: seeded small instances and the exact
invariant battery, owned by the benchmark.

The generator follows the distribution of the package's random instance
generator (2-4 atoms, T <= 2, 1-3 agents, 1-3 assets on an information tree,
nine cone kinds including ray cones), but the structural draws (atoms, T,
agents, assets, cone kind) come from a balanced design, so every pass of a
seed has the same mix and per-seed cost varies less.  The checks mirror the
package's acceptance battery, written as explicit checks so that
``python -O`` cannot strip them.  Both live here so that later edits to the
package's generator or test helpers do not move the baseline.

All package access goes through the ``pkg`` namespace at call time, so the
tracer's rebound names are the ones called.
"""

from __future__ import annotations

import random
from fractions import Fraction

F = Fraction

CONE_KINDS = ("zero", "y0", "y0", "grouping", "span", "rays", "span_rn0", "span0", "rays0")


class BatteryCheckFailed(Exception):
    """An invariant of the battery does not hold."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise BatteryCheckFailed(what)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def design(repeats: int = 4):
    """Balanced structural design: every (agents, atoms, T) combination
    three times per repeat, with the nine cone-kind slots rotated so that
    each agent count and each (atoms, T) pair meets every kind, and the
    asset count (1-3) rotated so that each (agents, atoms, T) combination
    meets every asset count equally often."""
    out = []
    for r in range(repeats):
        for a, N in enumerate((1, 2, 3)):
            for m, (n, T) in enumerate((n, T) for n in (2, 3, 4) for T in (1, 2)):
                for j in range(3):
                    out.append((n, T, N, CONE_KINDS[(3 * m + j + 3 * a) % len(CONE_KINDS)],
                                (j + r + a) % 3 + 1))
    return out


def _random_partition(rng: random.Random, atoms: int, max_blocks: int):
    cuts = sorted(rng.sample(range(1, atoms), min(rng.randint(0, max_blocks - 1),
                                                  atoms - 1)))
    blocks, prev = [], 0
    for c in cuts + [atoms]:
        blocks.append(list(range(prev, c)))
        prev = c
    return blocks


def market_doc(rng: random.Random, n_atoms: int, T: int, N: int, J: int) -> dict:
    """Prices evolve block by block along the information tree; most moves
    straddle the parent value, so both arbitrage-free and arbitrage-prone
    instances occur."""
    atoms = [f"w{k + 1}" for k in range(n_atoms)]
    weights = [rng.randint(1, 4) for _ in range(n_atoms)]
    total = sum(weights)
    partitions = [[list(range(n_atoms))]]
    if T == 2:
        partitions.append(_random_partition(rng, n_atoms, 3))
    partitions.append([[k] for k in range(n_atoms)])

    assets = {}
    for j in range(J):
        values = {tuple(partitions[0][0]): rng.randint(1, 8)}
        rows = [[str(values[tuple(partitions[0][0])])] * n_atoms]
        for t in range(1, T + 1):
            level = {}
            for parent, v in values.items():
                children = [tuple(b) for b in partitions[t] if set(b) <= set(parent)]
                if rng.random() < 0.75 and len(children) > 1:
                    up, down = rng.randint(1, 3), rng.randint(1, 3)
                    level[children[0]] = v + up
                    level[children[-1]] = max(v - down, 0)
                    for blk in children[1:-1]:
                        level[blk] = max(v + rng.randint(-down, up), 0)
                elif rng.random() < 0.75 and len(children) == 1:
                    level[children[0]] = v
                else:
                    for blk in children:
                        level[blk] = rng.randint(0, 8)
            row = [0] * n_atoms
            for blk, v in level.items():
                for a in blk:
                    row[a] = v
            rows.append([str(v) for v in row])
            values = level
        if rng.random() < 0.3:
            den = rng.choice([2, 3])
            rows = [[str(F(v) / den) for v in r] for r in rows]
        assets[f"X{j + 1}"] = rows

    owner = [rng.randrange(N) for _ in range(J)]
    agent_assets = [set() for _ in range(N)]
    for j, i in enumerate(owner):
        agent_assets[i].add(f"X{j + 1}")
    for i in range(N):
        for j in range(J):
            if rng.random() < 0.3:
                agent_assets[i].add(f"X{j + 1}")
        if not agent_assets[i]:
            agent_assets[i].add(f"X{rng.randint(1, J)}")
    return {
        "atoms": atoms, "prob": [f"{w}/{total}" for w in weights], "times": T,
        "global_filtration": [[[atoms[a] for a in blk] for blk in part]
                              for part in partitions],
        "assets": assets,
        "agents": [{"assets": sorted(a), "filtration": "global"} for a in agent_assets],
    }


def _zero_sum_matrix(rng, N, n):
    rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(N - 1)]
    rows.append([-sum(col) for col in zip(*rows)] if rows else [F(0)] * n)
    return rows


def _constant_zero_sum(rng, N, n):
    vals = [rng.randint(-4, 4) for _ in range(N - 1)]
    vals.append(-sum(vals))
    return [[F(v)] * n for v in vals]


def make_cone(pkg, rng: random.Random, market, kind: str):
    """Build a cone of the given kind through the public constructors;
    returns (cone, info) where info drives the theorem-specific checks."""
    cones = pkg.cones
    N, n = market.n_agents, market.n_atoms
    t = rng.randint(0, market.T)
    if kind == "zero" or N == 1:
        return cones.make_zero(market), {"kind": "zero", "t": None}
    if kind == "y0":
        return cones.make_Y0(market, t), {"kind": "y0", "t": t}
    if kind == "grouping":
        groups, pool = [], list(range(N))
        rng.shuffle(pool)
        while pool:
            size = rng.randint(1, len(pool))
            groups.append(pool[:size])
            pool = pool[size:]
        return cones.make_grouping(market, groups, t), {"kind": "grouping", "t": t}
    if kind in ("span0", "rays0"):
        gens = [_constant_zero_sum(rng, N, n) for _ in range(rng.randint(1, 2))]
        make = cones.make_span if kind == "span0" else cones.make_rays
        return make(market, gens), {"kind": kind, "t": 0}
    gens = [_zero_sum_matrix(rng, N, n) for _ in range(rng.randint(1, 2))]
    if kind == "span":
        return cones.make_span(market, gens), {"kind": "span", "t": None}
    if kind == "rays":
        return cones.make_rays(market, gens), {"kind": "rays", "t": None}
    cone = cones.cone_add(market, cones.make_span(market, gens), cones.make_Y0(market, 0))
    return cone, {"kind": "span_rn0", "t": None}


def instances(pkg, seed: int) -> list:
    """(market, cone, info, claims, check_seed) per design slot."""
    rng = random.Random(f"battery_audited/{seed}")
    out = []
    for n_atoms, T, N, kind, J in design():
        market = pkg.market.build_market(market_doc(rng, n_atoms, T, N, J))
        cone, info = make_cone(pkg, rng, market, kind)
        den = rng.choice([1, 1, 2, 3])
        claims = pkg.pricing.claim_vector(market, [
            [str(F(rng.randint(-8, 8), den)) for _ in range(n_atoms)] for _ in range(N)])
        out.append((market, cone, info, claims, rng.getrandbits(32)))
    return out


# ---------------------------------------------------------------------------
# the invariant battery
# ---------------------------------------------------------------------------


def check_instance(pkg, market, cone, info, claims, rng) -> dict:
    """Run every exact invariant on one instance; return which
    theorem-level branches were exercised."""
    verify, arb, pr, Ext = pkg.verify, pkg.arbitrage, pkg.pricing, pkg.ext.Ext
    N, n = market.n_agents, market.n_atoms
    hit = {"emm_equiv": False, "nca_holds": False, "rho_finite": False,
           "t0_cone": False, "terminal_y0": False, "singleton": False}

    # detection with two-sided certificates
    na_agents = []
    for i in range(N):
        cert = arb.detect_NA_agent(market, i)
        if cert.found:
            verify.verify_arbitrage_found(market, cert, agent=i)
        else:
            verify.verify_single_market_witness(market, cert.dual_witness[0], agent=i)
        na_agents.append(cert)
    na_global = arb.detect_NA_global(market)
    if na_global.found:
        verify.verify_arbitrage_found(market, na_global)
    else:
        verify.verify_single_market_witness(market, na_global.dual_witness[0])

    nca = arb.detect_NCA(market, cone)
    if nca.found:
        verify.verify_arbitrage_found(market, nca, cone=cone)
    else:
        hit["nca_holds"] = True
        verify.verify_polar_witness(market, cone, nca.dual_witness)

    # strictly positive polar element iff no collective arbitrage
    z = arb.polar_witness(market, cone)
    _check((z is not None) == (not nca.found), "polar witness vs detection")
    if z is not None:
        verify.verify_polar_witness(market, cone, z.rows, strict=True)

    # equivalent measure vector iff NCA, when all deterministic transfers
    # are allowed
    mv = arb.find_emm_vector(market, cone)
    if mv is not None:
        verify.verify_measure_vector(market, cone, mv, strict=True)
        hit["emm_equiv"] = True
    if cone.meta.contains_RN0:
        _check((mv is not None) == (not nca.found), "measure vector vs detection")

    # Y0(t) measure vectors agree across agents on time-t blocks
    if info["kind"] == "y0" and mv is not None:
        for block in pkg.market.agents_join_partition(market, info["t"]):
            masses = [sum(mv.densities[i][w] for w in block) for i in range(N)]
            _check(all(m == masses[0] for m in masses), "Y0 block masses differ")

    # one-way implications on zero-sum cones
    _check(cone.meta.is_zero_sum, "cone not zero-sum")
    if not na_global.found:
        _check(not nca.found, "NA does not imply NCA")
    if not nca.found:
        _check(all(not c.found for c in na_agents), "NCA does not imply every NA_i")

    # deterministic cones: NCA collapses to the componentwise condition
    if cone.meta.measurable_at == 0:
        hit["t0_cone"] = True
        _check((not nca.found) == all(not c.found for c in na_agents),
               "time-0 cone: NCA differs from all NA_i")

    # all terminal zero-sum transfers: NCA collapses to the global market
    terminal_y0 = info["kind"] == "y0" and info["t"] == market.T
    if terminal_y0:
        hit["terminal_y0"] = True
        _check((not nca.found) == (not na_global.found), "terminal Y0: NCA differs from NA")

    # pricing
    rho_i = []
    for i in range(N):
        v, _ = pr.rho_agent_plus(market, i, claims.rows[i])
        _check(v == pr.rho_agent_plus_dual(market, i, claims.rows[i]),
               "single-market duality gap")
        rho_i.append(v)
    rho_n = pr.rho_N_plus(market, claims)
    _check(rho_n == sum(rho_i[1:], rho_i[0]), "rho_N is not the sum of rho_i")
    pi_n = pr.pi_N_plus(market, claims)

    rho_y, opt = pr.rho_Y_plus(market, cone, claims)
    pi_y, _ = pr.pi_Y_plus(market, cone, claims)
    _check(rho_y <= rho_n and pi_y <= pi_n, "cooperation raises a price")
    if opt is not None:
        verify.verify_primal_optimizer(market, cone, claims, opt, rho_y.value)

    # pricing-hedging duality, including the unbounded case
    dual_v, dual_mv = pr.dual_rho_Y(market, cone, claims)
    _check(dual_v == rho_y, "collective duality gap")
    if dual_mv is not None:
        verify.verify_measure_vector(market, cone, dual_mv, strict=False)

    if cone.meta.contains_RN0:
        _check(rho_y == pi_y * N, "rho_Y != N * pi_Y under deterministic transfers")

    if terminal_y0:
        pooled = [sum(col) for col in zip(*claims.rows)]
        _check(rho_y == pr.rho_full_market(market, pooled), "terminal Y0 vs full market")

    # a cone widened by the deterministic transfers prices the same
    widened = pkg.cones.cone_add(market, cone, pkg.cones.make_Y0(market, 0))
    rho_w, _ = pr.rho_Y_plus(market, widened, claims)
    _check(rho_w == rho_y, "widened cone changes rho_Y")

    if cone.meta.contains_RN0 and not nca.found:
        hit["rho_finite"] = rho_y.finite
        zero = pr.claim_vector(market, [["0"] * n] * N)
        v0, _ = pr.rho_Y_plus(market, cone, zero)
        _check(v0 == Ext.of(0), "zero claim has nonzero price")
        c = [F(rng.randint(-4, 4)) for _ in range(N)]
        shifted = pr.claim_vector(market, [[F(v) + c[i] for v in claims.rows[i]]
                                           for i in range(N)])
        v_shift, _ = pr.rho_Y_plus(market, cone, shifted)
        _check(v_shift == rho_y + Ext.of(sum(c)), "cash invariance")
        bumps = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(N)]
        bigger = pr.claim_vector(market, [[F(v) + b for v, b in zip(claims.rows[i], bumps[i])]
                                          for i in range(N)])
        v_big, _ = pr.rho_Y_plus(market, cone, bigger)
        _check(rho_y <= v_big, "monotonicity")

        fr = pr.fairness_allocation(market, cone, claims)
        verify.verify_fairness(market, cone, claims, fr)
        for i in range(N):
            _check(Ext.of(fr.allocations[i]) <= rho_i[i], "allocation above own price")

        single = arb.emm_is_singleton(market, cone)
        if single is not None:
            hit["singleton"] = True
            expect = sum(sum(q * F(v) for q, v in zip(single.densities[i], claims.rows[i]))
                         for i in range(N))
            _check(rho_y == Ext.of(expect), "singleton polytope price")

    coop = pr.value_of_cooperation(market, cone, claims)
    _check(coop["selling"] >= Ext.of(0) and coop["total"] >= Ext.of(0),
           "negative value of cooperation")
    _check(pr.rho_Y_minus(market, cone, claims) >= pr.rho_N_minus(market, claims),
           "cooperative sub-replication below stand-alone")
    return hit
