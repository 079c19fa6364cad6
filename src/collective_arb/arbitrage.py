"""Arbitrage detection and martingale-measure machinery.

Detection operations return two-sided certificates: either explicit
strategies (plus an exchange) realizing a riskless gain, or a strictly
positive dual object -- a martingale measure, a vector of martingale
measures compatible with the exchange cone, or a positive element of the
polar of the super-replicable set.  Each side re-verifies by plain
arithmetic; the pair of tests realizes, and constantly exercises, the
collective version of the fundamental theorem of asset pricing on finite
outcome spaces.  A single market is the collective case with one row of
gains generators and no cone: its arbitrage search and its interior
martingale measure are the collective programs at that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cones import ExchangeCone, Positions
from .errors import InternalInvariantError, ValidationError
from .lp import EQ, GE, LE, LPBuilder, MAX, MIN, ZERO
from .market import MarketModel, PayoffMatrix, check_index, gains_basis


@dataclass(frozen=True)
class MeasureVector:
    """One probability row per agent, stored directly as atom probabilities."""

    densities: tuple

    @property
    def equivalent(self) -> bool:
        return all(v > 0 for row in self.densities for v in row)


@dataclass(frozen=True)
class ExchangePart:
    ray_coeffs: tuple
    lin_coeffs: tuple
    rows: tuple


@dataclass(frozen=True)
class ArbitrageCertificate:
    """found=True carries strategies and the exchange; found=False carries a
    strictly positive dual witness (one row per participating market)."""

    found: bool
    strategy_coeffs: Optional[tuple] = None   # per agent, aligned with its gains basis
    gains_rows: Optional[tuple] = None
    exchange: Optional[ExchangePart] = None
    dual_witness: Optional[tuple] = None


# ---------------------------------------------------------------------------
# primal side: search for an arbitrage
# ---------------------------------------------------------------------------


def _search_arbitrage(market: MarketModel, gens_per_row, cone: Optional[ExchangeCone]):
    """Feasibility of: each row's gains plus exchange nonnegative everywhere,
    with total payoff at least one unit.  Gains and exchanges scale, so the
    unit normalisation is equivalent to 'positive somewhere'."""
    b = LPBuilder(MIN)
    pos = Positions(b, market.n_atoms, gens_per_row, cone)
    total = {}
    for i in range(len(gens_per_row)):
        for w in range(market.n_atoms):
            coeffs = pos.payoff(i, w)
            b.row(f"pos{i}_{w}", coeffs, GE, 0)
            for v, c in coeffs.items():
                total[v] = total.get(v, ZERO) + c
    b.row("gain", total, GE, 1)
    sol = b.solve()
    if sol.status != "optimal":
        return None
    strat, rows, mu, nu, ex_rows = pos.read(sol.primal())
    exchange = None if cone is None else ExchangePart(mu, nu, ex_rows)
    return strat, rows, exchange


# ---------------------------------------------------------------------------
# dual side: martingale polytopes, measure vectors, polar witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingalePolytope:
    """Linear description of the martingale measures for one gains basis:
    q >= 0, sum(q) = 1, <q, v> = 0 for each gains generator v."""

    n_atoms: int
    generators: tuple

    def install(self, b: LPBuilder, prefix: str) -> list:
        names = [b.var(f"{prefix}_{w}", lo=0) for w in range(self.n_atoms)]
        b.row(f"{prefix}_mass", {v: Fraction(1) for v in names}, EQ, 1)
        for k, g in enumerate(self.generators):
            coeffs = {names[w]: g.vector[w] for w in range(self.n_atoms) if g.vector[w]}
            b.row(f"{prefix}_mart{k}", coeffs, EQ, 0)
        return names


def martingale_polytope(market: MarketModel, agent: int) -> MartingalePolytope:
    return MartingalePolytope(n_atoms=market.n_atoms, generators=gains_basis(market, agent))


def install_emm_system(b: LPBuilder, n_atoms: int, gens_per_row,
                       cone: Optional[ExchangeCone]):
    """Variables and rows for vectors of martingale measures, one per row of
    gains generators, polar to the exchange cone: <= 0 against rays, = 0
    against lineality; no polarity rows when ``cone`` is None."""
    names = [MartingalePolytope(n_atoms, gens).install(b, f"q{i}")
             for i, gens in enumerate(gens_per_row)]
    if cone is not None:
        _polar_rows(b, names, cone, (Fraction(1),) * n_atoms)
    return names


def _polar_rows(b: LPBuilder, names, cone: ExchangeCone, weight) -> None:
    """Rows making the variables ``names[i][w]`` polar to the cone under the
    atom weights: sum_{i,w} weight[w] * g.rows[i][w] * names[i][w] is <= 0
    for each ray g and = 0 for each lineality generator g."""

    def functional(g):
        return {names[i][w]: weight[w] * v for i, row in enumerate(g.rows)
                for w, v in enumerate(row) if v}

    for k, r in enumerate(cone.rays):
        b.row(f"polar_ray{k}", functional(r), LE, 0)
    for k, l in enumerate(cone.lineality):
        b.row(f"polar_lin{k}", functional(l), EQ, 0)


def interior_point(n_atoms: int, gens_per_row, cone: Optional[ExchangeCone], face=None):
    """(least probability, measure rows) of the measure vector of
    ``install_emm_system`` maximizing its least atom probability; None when
    there is none.  ``face = (rows, value)``, an optimal face of sum_i
    E_{q_i}[rows[i]], restricts it to that face, which is never empty."""
    b = LPBuilder(MAX)
    eps = b.var("eps", obj=1)
    names = install_emm_system(b, n_atoms, gens_per_row, cone)
    for i, row in enumerate(names):
        for w, v in enumerate(row):
            b.row(f"int{i}_{w}", {v: Fraction(1), eps: Fraction(-1)}, GE, 0)
    if face is not None:
        rows, value = face
        b.row("opt_face", {v: c for vs, row in zip(names, rows)
                           for v, c in zip(vs, row)}, EQ, value)
    sol = b.solve()
    if sol.status == "infeasible" and face is None:
        return None
    if sol.status != "optimal":
        where = "interior point" if face is None else "optimal-face interior point"
        raise InternalInvariantError(f"{where} LP ended {sol.status}")
    p = sol.primal()
    return sol.value, tuple(tuple(p[v] for v in row) for row in names)


def find_emm_vector(market: MarketModel, cone: ExchangeCone) -> Optional[MeasureVector]:
    """Canonical strictly positive element of the compatible-measure
    polytope, or None when no equivalent element exists."""
    hit = interior_point(market.n_atoms, market.gains, cone)
    if hit is None or hit[0] <= 0:
        return None
    return MeasureVector(densities=hit[1])


def polar_witness(market: MarketModel, cone: ExchangeCone) -> Optional[PayoffMatrix]:
    """Strictly positive element of the polar of the super-replicable set,
    normalised to unit total mass under the reference probabilities; None
    when only the zero functional is polar-feasible with z > 0 impossible."""
    P = market.space.prob
    N, n = market.n_agents, market.n_atoms
    b = LPBuilder(MAX)
    eps = b.var("eps", obj=1)
    names = [[b.var(f"z{i}_{w}", lo=0) for w in range(n)] for i in range(N)]
    for i in range(N):
        for w in range(n):
            b.row(f"int{i}_{w}", {names[i][w]: Fraction(1), eps: Fraction(-1)}, GE, 0)
    for i, gens in enumerate(market.gains):
        for k, g in enumerate(gens):
            coeffs = {names[i][w]: P[w] * g.vector[w] for w in range(n) if g.vector[w]}
            b.row(f"orth{i}_{k}", coeffs, EQ, 0)
    _polar_rows(b, names, cone, P)
    b.row("mass", {names[i][w]: P[w] for i in range(N) for w in range(n)}, EQ, 1)
    sol = b.solve()
    if sol.status != "optimal" or sol.value <= 0:
        return None
    p = sol.primal()
    return PayoffMatrix(rows=tuple(tuple(p[v] for v in row) for row in names))


# ---------------------------------------------------------------------------
# detection operations
# ---------------------------------------------------------------------------


def detect_NA_agent(market: MarketModel, agent: int) -> ArbitrageCertificate:
    """Classical single-market arbitrage for one agent, with certificate.
    By the FTAP the interior point decides alone: a least probability > 0
    is an equivalent martingale measure, so the search runs only without
    one (agents mostly have none to find)."""
    return _detect_NA(market, agent, search_first=False)


def detect_NA_global(market: MarketModel) -> ArbitrageCertificate:
    """Classical arbitrage in the pooled market of all assets: the one agent
    of `market.full_market`.  Arbitrage is common there, so the search runs
    first."""
    return _detect_NA(market.full_market, 0, search_first=True)


def _detect_NA(market: MarketModel, agent: int, search_first: bool) -> ArbitrageCertificate:
    """The arbitrage search and the interior point, in the order given,
    until one of them decides."""
    gens = gains_basis(market, agent)
    hit = _search_arbitrage(market, [gens], None) if search_first else None
    if hit is None:
        point = interior_point(market.n_atoms, [gens], None)
        if point is not None and point[0] > 0:
            return ArbitrageCertificate(found=False, dual_witness=point[1])
        if not search_first:
            hit = _search_arbitrage(market, [gens], None)
    if hit is None:
        raise InternalInvariantError(
            f"no arbitrage for agent {agent} yet no equivalent martingale measure")
    strat, rows, _ = hit
    return ArbitrageCertificate(found=True, strategy_coeffs=strat, gains_rows=rows)


def detect_NCA(market: MarketModel, cone: ExchangeCone) -> ArbitrageCertificate:
    """Collective arbitrage: per-agent trades plus an exchange from the cone
    making every agent's payoff nonnegative and the total strictly positive."""
    if (cone.n_agents, cone.n_atoms) != (market.n_agents, market.n_atoms):
        raise ValidationError("cone", "cone shape does not match the market")
    hit = _search_arbitrage(market, market.gains, cone)
    if hit is not None:
        strat, rows, exchange = hit
        return ArbitrageCertificate(found=True, strategy_coeffs=strat,
                                    gains_rows=rows, exchange=exchange)
    z = polar_witness(market, cone)
    if z is None:
        raise InternalInvariantError(
            "no collective arbitrage yet no strictly positive polar element")
    return ArbitrageCertificate(found=False, dual_witness=z.rows)


# ---------------------------------------------------------------------------
# polytope probes
# ---------------------------------------------------------------------------


def emm_coordinate_range(market: MarketModel, cone: ExchangeCone, agent: int,
                         atom: int):
    """Exact (min, max) of one atom probability over the compatible-measure
    polytope; None when the polytope is empty."""
    check_index(agent, market.n_agents, "agent")
    check_index(atom, market.n_atoms, "atom")
    out = []
    for sense in (MIN, MAX):
        b = LPBuilder(sense)
        names = install_emm_system(b, market.n_atoms, market.gains, cone)
        b.add_objective(names[agent][atom], 1)
        sol = b.solve()
        if sol.status != "optimal":
            return None
        out.append(sol.value)
    return tuple(out)


def emm_is_singleton(market: MarketModel, cone: ExchangeCone) -> Optional[MeasureVector]:
    """The unique compatible measure vector, if the polytope is a single
    point; None otherwise (empty or multi-point)."""
    rows = []
    for i in range(market.n_agents):
        row = []
        for w in range(market.n_atoms):
            rng = emm_coordinate_range(market, cone, i, w)
            if rng is None or rng[0] != rng[1]:
                return None
            row.append(rng[0])
        rows.append(tuple(row))
    return MeasureVector(densities=tuple(rows))
