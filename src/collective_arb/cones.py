"""Exchange cones: finitely generated cones of inter-agent transfers.

A cone is held as conic ray generators plus a basis of its lineality space,
each generator an N-row payoff matrix.  Its flags are never taken from the
caller: zero-sum and the measurability date are read off the generators.
Containment of RN0 (all deterministic zero-sum transfers) is known by
construction for Y0, grouping and zero cones and for sums with a summand
containing RN0; spans, rays and the other sums are probed by membership LPs.
The cash groups, which no generator crosses and inside which the cone holds
every deterministic zero-sum transfer, are known by construction (the zero
cone's singletons, a grouping cone's groups, one group with RN0) and checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalInvariantError, ValidationError
from .lp import EQ, LPBuilder, MIN, ZERO
from .market import (MarketModel, PayoffMatrix, agents_join_partition,
                     constant_on, gains_row, is_index, payoff_matrix)


@dataclass(frozen=True)
class ConeFlags:
    is_zero_sum: bool
    contains_RN0: bool
    measurable_at: Optional[int]
    groups: Optional[tuple] = None  # the cash groups as sorted agent tuples


@dataclass(frozen=True)
class ExchangeCone:
    n_agents: int
    n_atoms: int
    rays: tuple
    lineality: tuple
    meta: ConeFlags

    @property
    def generators(self):
        return self.rays + self.lineality

    def is_trivial(self) -> bool:
        return not self.rays and not self.lineality


@dataclass(frozen=True)
class Membership:
    contains: bool
    ray_coeffs: Optional[tuple] = None
    lin_coeffs: Optional[tuple] = None
    separator: Optional[tuple] = None  # N rows; <=0 on rays, =0 on lineality, >0 on y


def cone_contains(cone: ExchangeCone, y: PayoffMatrix) -> Membership:
    """Exact membership test with certificate.

    On success returns nonnegative ray coefficients and free lineality
    coefficients reproducing ``y``; on failure a separating functional."""
    if y.n_agents != cone.n_agents or len(y.rows[0]) != cone.n_atoms:
        raise ValidationError("membership", "shape mismatch between cone and payoff")
    b = LPBuilder(MIN)
    pos = Positions(b, cone.n_atoms, (), cone)
    for i in range(cone.n_agents):
        for w in range(cone.n_atoms):
            b.row(f"c{i}_{w}", pos.exchange(i, w), EQ, y.rows[i][w])
    out = b.solve()
    if out.status == "optimal":
        mu, nu = pos.cone_coeffs(out.point)
        return Membership(contains=True, ray_coeffs=mu, lin_coeffs=nu)
    if out.status != "infeasible":
        raise InternalInvariantError(f"membership LP ended {out.status}")
    w = out.farkas_rows
    n = cone.n_atoms
    sep = tuple(tuple(w[i * n + a] for a in range(n)) for i in range(cone.n_agents))
    return Membership(contains=False, separator=sep)


def combination_rows(cone: ExchangeCone, ray_coeffs, lin_coeffs) -> tuple:
    """Payoff rows of  sum mu_k * ray_k + sum nu_k * lin_k."""
    n, N = cone.n_atoms, cone.n_agents
    rows = [[ZERO] * n for _ in range(N)]
    for c, g in zip((*ray_coeffs, *lin_coeffs), cone.generators):
        if c:
            for i in range(N):
                for w in range(n):
                    rows[i][w] += c * g.rows[i][w]
    return tuple(tuple(r) for r in rows)


class Positions:
    """The LP variables of "each agent trades, plus one exchange from the
    cone": ``h{i}_{k}`` for agent i's gains generator k, then ``mu{k} >= 0``
    per ray and free ``nu{k}`` per lineality generator of ``cone``, declared
    on ``b`` in that order (the simplex breaks ties by column order); their
    handles are ``h[i][k]``, ``mu[k]`` and ``nu[k]``.  ``cone`` may be None:
    trading alone.  The cone must have ``n_atoms`` atoms and, when there are
    gains rows, one row per agent of them."""

    def __init__(self, b: LPBuilder, n_atoms: int, gens_per_agent,
                 cone: Optional[ExchangeCone]):
        self.n_atoms = n_atoms
        self.gens = tuple(gens_per_agent)
        if cone is not None and (cone.n_atoms != n_atoms
                                 or self.gens and cone.n_agents != len(self.gens)):
            raise ValidationError("cone", "cone shape does not match the market")
        self.cone = cone
        self.rays = cone.rays if cone is not None else ()
        self.lineality = cone.lineality if cone is not None else ()
        self.h = [[b.var(f"h{i}_{k}") for k in range(len(gens))]
                  for i, gens in enumerate(self.gens)]
        self.mu = [b.var(f"mu{k}", lo=0) for k in range(len(self.rays))]
        self.nu = [b.var(f"nu{k}") for k in range(len(self.lineality))]

    def exchange(self, i: int, w: int) -> dict:
        """Coefficients of agent i's exchange payoff at atom w."""
        coeffs = {}
        for v, g in (*zip(self.mu, self.rays), *zip(self.nu, self.lineality)):
            if g.rows[i][w]:
                coeffs[v] = g.rows[i][w]
        return coeffs

    def gains(self, i: int, w: int) -> dict:
        """Coefficients of agent i's gains at atom w."""
        return {v: g.vector[w] for v, g in zip(self.h[i], self.gens[i]) if g.vector[w]}

    def payoff(self, i: int, w: int) -> dict:
        """Coefficients of agent i's gains plus exchange at atom w."""
        return {**self.gains(i, w), **self.exchange(i, w)}

    def cone_coeffs(self, point) -> tuple:
        """(mu, nu) at a point of the program."""
        return tuple(point[v] for v in self.mu), tuple(point[v] for v in self.nu)

    def read(self, point) -> tuple:
        """(strategies, gains rows, mu, nu, exchange rows) at a point of the
        program; the exchange rows are None without a cone."""
        strat = tuple(tuple(point[v] for v in hs) for hs in self.h)
        gains = tuple(gains_row(gens, strat[i], self.n_atoms)
                      for i, gens in enumerate(self.gens))
        mu, nu = self.cone_coeffs(point)
        rows = combination_rows(self.cone, mu, nu) if self.cone is not None else None
        return strat, gains, mu, nu, rows


# ---------------------------------------------------------------------------
# flag verification
# ---------------------------------------------------------------------------


def _unit_transfer(market: MarketModel, i: int, j: int) -> PayoffMatrix:
    rows = [[ZERO] * market.n_atoms for _ in range(market.n_agents)]
    for w in range(market.n_atoms):
        rows[i][w] = Fraction(1)
        rows[j][w] = Fraction(-1)
    return PayoffMatrix(rows=tuple(tuple(r) for r in rows))


def _verify_flags(market: MarketModel, cone: ExchangeCone,
                  rn0: Optional[bool], groups: Optional[tuple]) -> ConeFlags:
    """Flags from the generators (``cone.meta`` is not read).  ``rn0`` and
    ``groups`` are what the constructor knows of RN0 and the cash groups, or
    None; 2(N-1) membership probes decide RN0, which makes one group."""
    gens = cone.generators
    zero_sum = all(all(s == 0 for s in g.column_sums()) for g in gens)
    if rn0 is None:
        # the transfers +-(e_k - e_{k+1}) between adjacent agents span RN0
        N = market.n_agents
        rn0 = all(cone_contains(cone, _unit_transfer(market, i, j)).contains
                  for i in range(N) for j in (i - 1, i + 1) if 0 <= j < N)
    groups = (tuple(range(market.n_agents)),) if rn0 else groups
    owner = {i: k for k, g in enumerate(groups or ()) for i in g}
    if groups and any(len({owner[i] for i, r in enumerate(g.rows) if any(r)}) > 1 for g in gens):
        raise InternalInvariantError("a cone generator crosses its cash groups")
    measurable_at = None
    for t in range(market.T + 1):
        part = agents_join_partition(market, t)
        if all(constant_on(row, part) for g in gens for row in g.rows):
            measurable_at = t
            break
    return ConeFlags(zero_sum, rn0, measurable_at, groups)


def _make(market: MarketModel, rays, lineality, rn0: Optional[bool] = None,
          groups: Optional[tuple] = None) -> ExchangeCone:
    """The cone of these generators; ``rn0`` and ``groups`` as in
    ``_verify_flags``, which each constructor passes when it knows them."""
    cone = ExchangeCone(n_agents=market.n_agents, n_atoms=market.n_atoms,
                        rays=tuple(rays), lineality=tuple(lineality),
                        meta=ConeFlags(False, False, None))
    return replace(cone, meta=_verify_flags(market, cone, rn0, groups))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def make_zero(market: MarketModel) -> ExchangeCone:
    """The cone {0}: cooperation disabled.  RN0 = {0} with one agent."""
    return _make(market, (), (), rn0=market.n_agents == 1,
                 groups=tuple((i,) for i in range(market.n_agents)))


def make_Y0(market: MarketModel, t: int) -> ExchangeCone:
    """All zero-sum transfers settled on time-t information: for every block
    B of the agents' joint time-t partition and every adjacent agent pair,
    the transfer 1_B * (e_i - e_{i+1}).  The one-group grouping cone."""
    return make_grouping(market, [range(market.n_agents)], t)


def make_grouping(market: MarketModel, groups: Sequence[Sequence[int]],
                  t: int) -> ExchangeCone:
    """Zero-sum within each agent group, settled on time-t information: the
    transfers 1_B * (e_i - e_j) for each block B of the agents' joint time-t
    partition and each adjacent pair i < j of a sorted group (a cash group).
    RN0 lies in it exactly when one group holds every agent: the block
    transfers sum to e_i - e_j, and no generator crosses a group."""
    if not (isinstance(groups, Sequence)
            and all(isinstance(g, Sequence) and all(is_index(i) for i in g)
                    for g in groups)):
        raise ValidationError("groups", "groups must be lists of agent indices")
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(market.n_agents)):
        raise ValidationError("groups", "groups must partition the agent set")
    if not is_index(t) or not 0 <= t <= market.T:
        raise ValidationError("t", f"time {t!r} outside 0..{market.T}")
    part = agents_join_partition(market, t)
    lineality = []
    for g in groups:
        members = sorted(g)
        for i, j in zip(members, members[1:]):
            for block in part:
                rows = [[ZERO] * market.n_atoms for _ in range(market.n_agents)]
                for w in block:
                    rows[i][w] = Fraction(1)
                    rows[j][w] = Fraction(-1)
                lineality.append(payoff_matrix(market, rows, where="grouping"))
    return _make(market, (), lineality, rn0=any(len(g) == market.n_agents for g in groups),
                 groups=tuple(sorted(tuple(sorted(g)) for g in groups if g)))


def make_span(market: MarketModel, generators) -> ExchangeCone:
    """The vector space spanned by the given payoff matrices."""
    lineality = [payoff_matrix(market, getattr(g, "rows", g), where=f"span[{k}]")
                 for k, g in enumerate(generators)]
    return _make(market, (), lineality)


def make_rays(market: MarketModel, generators) -> ExchangeCone:
    """The conic hull (nonnegative combinations) of the given matrices."""
    rays = [payoff_matrix(market, getattr(g, "rows", g), where=f"ray[{k}]")
            for k, g in enumerate(generators)]
    return _make(market, rays, ())


def cone_add(market: MarketModel, a: ExchangeCone, b: ExchangeCone) -> ExchangeCone:
    """Minkowski sum: concatenated generators, flags recomputed.  The sum
    contains RN0 whenever a summand does, since each summand lies in it;
    otherwise the probes decide."""
    if (a.n_agents, a.n_atoms) != (b.n_agents, b.n_atoms):
        raise ValidationError("cone_add", "cones have different shapes")
    return _make(market, a.rays + b.rays, a.lineality + b.lineality,
                 rn0=True if a.meta.contains_RN0 or b.meta.contains_RN0 else None)


def spans_equal(a: ExchangeCone, b: ExchangeCone) -> bool:
    """Mutual containment of generators (for lineality generators both
    signs are required)."""

    def contained(x: ExchangeCone, y: ExchangeCone) -> bool:
        both_signs = (h for g in x.lineality for h in (g, -g))
        return all(cone_contains(y, g).contains for g in (*x.rays, *both_signs))

    return contained(a, b) and contained(b, a)
