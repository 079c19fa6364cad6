"""Finite multi-agent market model.

A market is a finite outcome set with rational probabilities, a global
filtration given as refining partitions, adapted asset price processes and
agents that each trade a subset of the assets under their own (possibly
coarser) filtration.  Gains spaces are exposed through explicit generating
sets: one vector ``1_A * (X_t - X_{t-1})`` per asset, trading date and
information block, so every strategy coefficient the engine reports maps
back to a readable "buy on this event" position.  A market builds its
agents' sets (``MarketModel.gains``) and its pooled one-agent market
(``MarketModel.full_market``) on first use and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import ValidationError
from .lp import ZERO, frac

Partition = tuple  # tuple of blocks; each block a sorted tuple of atom indices


def _canon_partition(blocks) -> Partition:
    out = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    return out


def is_partition(blocks: Partition, n_atoms: int) -> bool:
    seen = [a for b in blocks for a in b]
    return sorted(seen) == list(range(n_atoms)) and all(len(b) > 0 for b in blocks)


def refines(fine: Partition, coarse: Partition) -> bool:
    """Every block of `fine` lies inside exactly one block of `coarse`."""
    member = {}
    for k, blk in enumerate(coarse):
        for a in blk:
            member[a] = k
    for blk in fine:
        ks = {member.get(a) for a in blk}
        if len(ks) != 1 or None in ks:
            return False
    return True


def partition_join(p: Partition, q: Partition) -> Partition:
    """Common refinement: atoms grouped by (block of p, block of q)."""
    tag = {}
    for k, blk in enumerate(p):
        for a in blk:
            tag[a] = [k]
    for k, blk in enumerate(q):
        for a in blk:
            tag[a].append(k)
    groups: dict = {}
    for a, t in tag.items():
        groups.setdefault(tuple(t), []).append(a)
    return _canon_partition(groups.values())


def constant_on(row: Sequence[Fraction], partition: Partition) -> bool:
    return all(all(row[a] == row[b[0]] for a in b) for b in partition)


@dataclass(frozen=True)
class ProbSpace:
    atoms: tuple
    prob: tuple

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Filtration:
    """Partitions indexed by time 0..T; time 0 is the single full block and
    each later partition refines the previous one."""

    partitions: tuple

    @property
    def T(self) -> int:
        return len(self.partitions) - 1

    def at(self, t: int) -> Partition:
        return self.partitions[t]


@dataclass(frozen=True)
class PriceProcess:
    name: str
    values: tuple  # (T+1) rows of per-atom prices


@dataclass(frozen=True)
class AgentSpec:
    asset_ids: tuple
    filtration: Filtration


@dataclass(frozen=True)
class MarketModel:
    space: ProbSpace
    assets: tuple
    agents: tuple
    global_filtration: Filtration

    @property
    def n_atoms(self) -> int:
        return self.space.n_atoms

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def T(self) -> int:
        return self.global_filtration.T

    def terminal_partition(self, agent: int) -> Partition:
        return self.agents[agent].filtration.at(self.T)

    @cached_property
    def gains(self) -> tuple:
        """Each agent's gains generators, one tuple per agent."""
        return tuple(_generators(self, ag.asset_ids, ag.filtration) for ag in self.agents)

    @cached_property
    def full_market(self) -> "MarketModel":
        """The pooled market: one agent owning every asset under the global
        filtration."""
        agent = AgentSpec(asset_ids=tuple(range(len(self.assets))),
                          filtration=self.global_filtration)
        return MarketModel(space=self.space, assets=self.assets,
                           agents=(agent,), global_filtration=self.global_filtration)


@dataclass(frozen=True)
class PayoffMatrix:
    """One terminal payoff row per agent; row i must be measurable for
    agent i at the terminal date."""

    rows: tuple

    @property
    def n_agents(self) -> int:
        return len(self.rows)

    def column_sums(self) -> tuple:
        return tuple(sum(r[w] for r in self.rows) for w in range(len(self.rows[0])))

    def __neg__(self) -> "PayoffMatrix":
        return PayoffMatrix(rows=tuple(tuple(-v for v in r) for r in self.rows))


def payoff_matrix(market: MarketModel, rows, where: str = "payoff") -> PayoffMatrix:
    """Build a PayoffMatrix, enforcing per-row terminal measurability."""
    rows = tuple(tuple(_rational(v, f"{where}[{i}]") for v in _listed(r, f"{where}[{i}]"))
                 for i, r in enumerate(_listed(rows, where)))
    if len(rows) != market.n_agents:
        raise ValidationError(where, f"expected {market.n_agents} rows, got {len(rows)}")
    for i, r in enumerate(rows):
        if len(r) != market.n_atoms:
            raise ValidationError(f"{where}[{i}]", "row length != number of atoms")
        if not constant_on(r, market.terminal_partition(i)):
            raise ValidationError(
                f"{where}[{i}]",
                "row not measurable for the agent's terminal partition")
    return PayoffMatrix(rows=rows)


@dataclass(frozen=True)
class GainsGenerator:
    """Payoff 1_A * (X_t - X_{t-1}) of holding one unit of an asset over one
    period on an information block A."""

    asset: int
    t: int
    block: tuple
    vector: tuple

    def label(self, market: MarketModel) -> str:
        atoms = ",".join(market.space.atoms[a] for a in self.block)
        return f"{market.assets[self.asset].name}@t{self.t}on{{{atoms}}}"


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------


def _listed(value, where: str):
    """A list field of a model description (tuples too, from Python)."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(where, "must be a list")
    return value


def _rational(value, where: str) -> Fraction:
    """An exact rational field of a model description."""
    try:
        return frac(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(where, f"not a rational: {value!r}")


def _parse_filtration(raw, n_atoms: int, T: int, label_index: Mapping[str, int],
                      where: str) -> Filtration:
    if len(_listed(raw, where)) != T + 1:
        raise ValidationError(where, f"need {T + 1} partitions, got {len(raw)}")
    partitions = []
    for t, blocks in enumerate(raw):
        try:
            idx_blocks = [[label_index[a] for a in blk] for blk in blocks]
        except KeyError as e:
            raise ValidationError(f"{where}[t={t}]", f"unknown atom label {e.args[0]!r}")
        except TypeError:
            raise ValidationError(f"{where}[t={t}]", "must be a list of lists of atom labels")
        part = _canon_partition(idx_blocks)
        if not is_partition(part, n_atoms):
            raise ValidationError(f"{where}[t={t}]", "blocks do not partition the atoms")
        partitions.append(part)
    if len(partitions[0]) != 1:
        raise ValidationError(f"{where}[t=0]", "time-0 partition must be the single full block")
    for t in range(1, T + 1):
        if not refines(partitions[t], partitions[t - 1]):
            raise ValidationError(f"{where}[t={t}]",
                                  "partition does not refine the previous one")
    return Filtration(partitions=tuple(partitions))


def build_market(spec: Mapping) -> MarketModel:
    """Construct and fully validate a MarketModel from a parsed description.

    Expects keys: atoms, prob, times, global_filtration, assets (mapping
    name -> T+1 value rows; a row may be a scalar for a constant price or a
    per-atom list), agents (each {"assets": [names], "filtration":
    "global" | partition list}).
    """
    atoms = tuple(str(a) for a in _listed(spec.get("atoms", ()), "atoms"))
    if len(atoms) < 1:
        raise ValidationError("atoms", "need at least one atom")
    if len(set(atoms)) != len(atoms):
        raise ValidationError("atoms", "labels are not unique")
    label_index = {a: i for i, a in enumerate(atoms)}

    raw_prob = spec.get("prob")
    if not isinstance(raw_prob, (list, tuple)) or len(raw_prob) != len(atoms):
        raise ValidationError("prob", "need one probability per atom")
    prob = []
    for k, p in enumerate(raw_prob):
        w = _rational(p, f"prob[{k}]")
        if w <= 0:
            raise ValidationError(f"prob[{k}]", "probability must be strictly positive")
        prob.append(w)
    if sum(prob) != 1:
        raise ValidationError("prob", f"probabilities sum to {sum(prob)}, not 1")
    space = ProbSpace(atoms=atoms, prob=tuple(prob))

    T = spec.get("times")
    if not is_index(T) or T < 1:
        raise ValidationError("times", "need an integer number of periods >= 1")

    global_f = _parse_filtration(spec.get("global_filtration", ()), len(atoms), T,
                                 label_index, "global_filtration")

    raw_assets = spec.get("assets", {})
    if not isinstance(raw_assets, Mapping):
        raise ValidationError("assets", "must be an object mapping names to value rows")
    if not raw_assets:
        raise ValidationError("assets", "need at least one asset")
    assets = []
    for name, rows in raw_assets.items():
        if len(_listed(rows, f"assets[{name}]")) != T + 1:
            raise ValidationError(f"assets[{name}]", f"need {T + 1} value rows")
        values = []
        for t, row in enumerate(rows):
            if isinstance(row, (list, tuple)):
                if len(row) != len(atoms):
                    raise ValidationError(f"assets[{name}][t={t}]",
                                          "row length != number of atoms")
                vals = tuple(_rational(v, f"assets[{name}][t={t}]") for v in row)
            else:
                vals = (_rational(row, f"assets[{name}][t={t}]"),) * len(atoms)
            values.append(vals)
        for t, vals in enumerate(values):
            if not constant_on(vals, global_f.at(t)):
                raise ValidationError(f"assets[{name}][t={t}]",
                                      "price not adapted to the global filtration")
        assets.append(PriceProcess(name=str(name), values=tuple(values)))
    asset_index = {a.name: j for j, a in enumerate(assets)}

    raw_agents = _listed(spec.get("agents", []), "agents")
    if not raw_agents:
        raise ValidationError("agents", "need at least one agent")
    agents = []
    used = set()
    for i, ag in enumerate(raw_agents):
        if not isinstance(ag, Mapping):
            raise ValidationError(f"agents[{i}]", "must be an object")
        ids = []
        for nm in _listed(ag.get("assets", []), f"agents[{i}].assets"):
            if not isinstance(nm, str) or nm not in asset_index:
                raise ValidationError(f"agents[{i}]", f"unknown asset {nm!r}")
            ids.append(asset_index[nm])
        if not ids:
            raise ValidationError(f"agents[{i}]", "agent trades no assets")
        filt_spec = ag.get("filtration", "global")
        if filt_spec == "global":
            filt = global_f
        else:
            filt = _parse_filtration(filt_spec, len(atoms), T, label_index,
                                     f"agents[{i}].filtration")
            for t in range(T + 1):
                if not refines(global_f.at(t), filt.at(t)):
                    raise ValidationError(
                        f"agents[{i}].filtration[t={t}]",
                        "agent partition must coarsen the global one")
        for j in ids:
            for t in range(T + 1):
                if not constant_on(assets[j].values[t], filt.at(t)):
                    raise ValidationError(
                        f"agents[{i}]",
                        f"asset {assets[j].name!r} not adapted to the agent filtration at t={t}")
        used.update(ids)
        agents.append(AgentSpec(asset_ids=tuple(sorted(ids)), filtration=filt))
    if used != set(range(len(assets))):
        missing = [assets[j].name for j in range(len(assets)) if j not in used]
        raise ValidationError("agents", f"assets traded by nobody: {missing}")

    return MarketModel(space=space, assets=tuple(assets), agents=tuple(agents),
                       global_filtration=global_f)


def coarsest_adapted_filtration(n_atoms: int, value_rows_by_time) -> tuple:
    """Convenience: the coarsest refining partition sequence making the given
    per-time value rows measurable.  Returns raw blocks of atom indices."""
    partitions = []
    prev_tag = {a: () for a in range(n_atoms)}
    for rows_at_t in value_rows_by_time:
        tag = {a: prev_tag[a] + tuple(frac(r[a]) for r in rows_at_t)
               for a in range(n_atoms)}
        groups: dict = {}
        for a in range(n_atoms):
            groups.setdefault(tag[a], []).append(a)
        partitions.append(_canon_partition(groups.values()))
        prev_tag = tag
    return tuple(partitions)


# ---------------------------------------------------------------------------
# gains spaces
# ---------------------------------------------------------------------------


def _generators(market: MarketModel, asset_ids, filtration: Filtration) -> tuple:
    gens = []
    for j in asset_ids:
        X = market.assets[j].values
        for t in range(1, market.T + 1):
            diff = tuple(X[t][w] - X[t - 1][w] for w in range(market.n_atoms))
            for block in filtration.at(t - 1):
                inside = set(block)
                vec = tuple(diff[w] if w in inside else ZERO
                            for w in range(market.n_atoms))
                gens.append(GainsGenerator(asset=j, t=t, block=block, vector=vec))
    return tuple(gens)


def is_index(x) -> bool:
    """An int that is not a bool (JSON true would otherwise read as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_index(value, count: int, what: str, where: Optional[str] = None) -> None:
    """Reject anything but an index in 0..count-1; a bool is no index."""
    if not is_index(value) or not 0 <= value < count:
        raise ValidationError(where or what, f"no {what} {value!r}")


def gains_basis(market: MarketModel, agent: int):
    """Generators of the zero-cost terminal gains achievable by one agent."""
    check_index(agent, market.n_agents, "agent")
    return market.gains[agent]


def gains_row(gens, coeffs, n_atoms: int) -> tuple:
    """Terminal payoff of the strategy holding ``coeffs[k]`` units of each
    gains generator ``gens[k]``."""
    row = [ZERO] * n_atoms
    for g, c in zip(gens, coeffs):
        if c:
            for w in range(n_atoms):
                row[w] += c * g.vector[w]
    return tuple(row)


def agents_join_partition(market: MarketModel, t: int) -> Partition:
    """Common refinement of all agents' information at time t."""
    part = market.agents[0].filtration.at(t)
    for ag in market.agents[1:]:
        part = partition_join(part, ag.filtration.at(t))
    return part
