"""Seeded binomial-tree model documents for the tree_ladder and agents_wide
workloads.

Every agent trades one asset on the same binary tree.  At each node the
asset moves up by u or down by d (positive integers), so every agent's own
market is complete and arbitrage-free, with up-probability d / (u + d) at
that node.  In the "shared" regime all agents' moves are integer multiples
of one (u, d) per node, so they share one risk-neutral measure.  In the
"differ" regime the agents' root moves have different up-probabilities
(agents_wide draws them from two clusters, so some agents agree).

Documents use the package's model-file schema and are plain dicts; this
module does not import the package.
"""

from __future__ import annotations

import random

# (u, d) root moves with pairwise distinct up-probabilities d / (u + d)
_DISTINCT_ROOT_MOVES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


def node_prefixes(T: int):
    """Tree nodes as tuples of moves (0 = up, 1 = down), depth 0..T-1."""
    nodes = [()]
    out = []
    while nodes:
        v = nodes.pop(0)
        out.append(v)
        if len(v) + 1 < T:
            nodes += [v + (0,), v + (1,)]
    return out


def atom_paths(T: int):
    """Atom k follows the moves of the binary digits of k, most significant
    first, so the time-t blocks are contiguous runs of 2**(T-t) atoms."""
    return [tuple((k >> (T - 1 - s)) & 1 for s in range(T)) for k in range(2 ** T)]


def atom_label(path) -> str:
    return "w" + "".join("ud"[m] for m in path)


def tree_doc(rng: random.Random, T: int, N: int, regime: str, cone: dict,
             clusters=None) -> dict:
    """One model document: N agents on a T-period binary tree with the given
    exchange cone spec and call-style claims.  In the differ regime,
    ``clusters`` (one label per agent) makes agents with equal labels share
    their root move; without it every agent's root move differs."""
    nodes = node_prefixes(T)
    moves = {}  # node -> per-agent (u, d)
    for v in nodes:
        if regime == "shared":
            u, d = rng.randint(1, 3), rng.randint(1, 3)
            moves[v] = [(k * u, k * d) for k in (rng.randint(1, 3) for _ in range(N))]
        elif v == () and clusters:
            pick = rng.sample(_DISTINCT_ROOT_MOVES, len(set(clusters)))
            moves[v] = [pick[c] for c in clusters]
        elif v == ():
            moves[v] = rng.sample(_DISTINCT_ROOT_MOVES, N)
        else:
            moves[v] = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(N)]

    paths = atom_paths(T)
    atoms = [atom_label(p) for p in paths]
    weights = [rng.randint(1, 4) for _ in paths]
    total = sum(weights)
    filtration = [[atoms[b * 2 ** (T - t):(b + 1) * 2 ** (T - t)] for b in range(2 ** t)]
                  for t in range(T + 1)]

    assets, claims = {}, []
    for i in range(N):
        s0 = 3 * 3 * T + rng.randint(1, 4)
        rows = [[s0] * len(paths)]
        for t in range(1, T + 1):
            row = []
            for k, p in enumerate(paths):
                u, d = moves[p[:t - 1]][i]
                row.append(rows[-1][k] + (u if p[t - 1] == 0 else -d))
            rows.append(row)
        assets[f"X{i + 1}"] = [[str(v) for v in r] for r in rows]
        strike = s0 + rng.randint(-2, 2)
        claims.append([str(max(v - strike, 0)) for v in rows[-1]])

    return {
        "atoms": atoms,
        "prob": [f"{w}/{total}" for w in weights],
        "times": T,
        "global_filtration": filtration,
        "assets": assets,
        "agents": [{"assets": [f"X{i + 1}"], "filtration": "global"} for i in range(N)],
        "exchange": cone,
        "claims": claims,
    }


def tree_ladder(seed: int):
    """Forty-eight documents with cone Y0(T-1), laid out by cost tier so that
    the median and the tail percentile (p79 of 48) each fall inside a tier
    of like markets, not in a gap between tiers, where a seed's draws would
    move them most.  Fifteen cheap markets (T = 1..2, N in {2, 3}, both
    regimes) sit below eighteen T = 3, N = 2 markets with measures that
    differ (the median tier); thirteen T = 3 markets (eleven N = 3 differ,
    two N = 2 shared; the tail tier) sit above them, then one T = 3, N = 3
    market sharing one measure and one T = 4, N = 3 market with measures
    that differ.  A pass takes about 25 seconds."""
    rng = random.Random(f"tree_ladder/{seed}")
    tiers = ((1, 2, "shared", 2), (1, 2, "differ", 1), (1, 3, "shared", 1),
             (1, 3, "differ", 1), (2, 2, "shared", 3), (2, 2, "differ", 3),
             (2, 3, "shared", 1), (2, 3, "differ", 3),
             (3, 2, "differ", 18),
             (3, 3, "differ", 11), (3, 2, "shared", 2),
             (3, 3, "shared", 1), (4, 3, "differ", 1))
    return [tree_doc(rng, T, N, regime, {"kind": "Y0", "t": T - 1})
            for T, N, regime, count in tiers for _ in range(count)]


def agents_wide(seed: int):
    """Sixty documents: draws of T = 1..2, N = 4..6, a Y0(1) and a
    two-group grouping cone for each draw.  T = 2, N = 4 gets sixteen draws
    so that the median falls inside that tier of like markets rather than
    in the gap below it, and is the median of many like markets; T = 2 with
    N = 5 and N = 6 get four draws each and hold the tail percentile (p83 of
    60); each T = 1 cell gets two draws.  The regime alternates so half the
    markets share one measure.  Where measures differ, agents fall into two
    clusters; for a grouping cone the clusters either follow the groups
    (NCA holds although the groups disagree) or split the first group (NCA
    fails), so every document's outcome is fixed by its cell."""
    rng = random.Random(f"agents_wide/{seed}")
    draws = {(1, 4): 2, (1, 5): 2, (1, 6): 2, (2, 4): 16, (2, 5): 4, (2, 6): 4}
    docs = []
    for (T, N), count in draws.items():
        for _ in range(count):
            for k, kind in enumerate(("Y0", "grouping")):
                docs.append(_wide_doc(rng, T, N, kind, "shared" if (T + N + k) % 2 else "differ"))
    return docs


def _wide_doc(rng, T, N, kind, regime):
    agents = list(range(N))
    rng.shuffle(agents)
    if kind == "Y0":
        cone = {"kind": "Y0", "t": 1}
        clusters = [i % 2 for i in agents]
    else:
        cut = rng.randint(2, N - 2)
        first, second = sorted(agents[:cut]), sorted(agents[cut:])
        cone = {"kind": "grouping", "t": 1, "groups": [first, second]}
        if N % 2:
            clusters = [int(i in second) for i in range(N)]
        else:
            clusters = [int(i == first[0]) for i in range(N)]
    return tree_doc(rng, T, N, regime, cone, clusters)
