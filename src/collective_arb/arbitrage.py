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
martingale measure are the collective programs at that size.  Every
dual-row program (the interior points, the polar witness, the expectation
supremum, the coordinate ranges) takes its rows from ``install_emm_system``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cones import ExchangeCone, Positions
from .errors import InternalInvariantError, ValidationError
from .ext import Ext
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
    out = b.solve()
    if out.status != "optimal":
        return None
    strat, rows, mu, nu, ex_rows = pos.read(out.point)
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


def martingale_polytope(market: MarketModel, agent: int) -> MartingalePolytope:
    return MartingalePolytope(n_atoms=market.n_atoms, generators=gains_basis(market, agent))


def install_emm_system(b: LPBuilder, n_atoms: int, gens_per_row,
                       cone: Optional[ExchangeCone], weight=None, mass: str = "row", shift=None):
    """Variables ``q{i}_{w} >= 0``, one row per row of gains generators,
    under the rule of ``verify._check_dual_rows``: weighted by ``weight``
    (all ones when None), each row (mass "row") or all rows together
    ("total") have unit mass, each row has zero value against its gains
    generators, and the rows together are <= 0 against each cone ray and
    = 0 against each lineality generator (no cone rows when ``cone`` is
    None).  Unit weights and mass "row" give vectors of martingale measures;
    the reference probabilities and mass "total" give the polar elements of
    the super-replicable set, which differ only in that normalisation.
    Returns the handles ``q[i][w]``.  With a ``shift`` handle, the variables
    are ``s{i}_{w} >= 0`` and stand for q_iw = s_iw + shift: each row adds
    its summed coefficients to ``shift``.  The cone must have ``n_atoms``
    atoms and one row per row of gains generators."""
    if cone is not None and (cone.n_agents, cone.n_atoms) != (len(gens_per_row), n_atoms):
        raise ValidationError("cone", "cone shape does not match the market")
    weight = (1,) * n_atoms if weight is None else weight
    q = [[b.var(f"{'q' if shift is None else 's'}{i}_{w}", lo=0) for w in range(n_atoms)]
         for i in range(len(gens_per_row))]

    def row(label, rows, rel, rhs):
        coeffs = {q[i][w]: weight[w] * v for i, r in rows for w, v in enumerate(r) if v}
        if shift is not None:
            coeffs[shift] = sum(coeffs.values(), ZERO)
        b.row(label, coeffs, rel, rhs)

    ones = (1,) * n_atoms
    for i, gens in enumerate(gens_per_row):
        if mass == "row":
            row(f"q{i}_mass", [(i, ones)], EQ, 1)
        for k, g in enumerate(gens):
            row(f"q{i}_mart{k}" if mass == "row" else f"orth{i}_{k}", [(i, g.vector)], EQ, 0)
    polar = () if cone is None else ((LE, "ray", cone.rays), (EQ, "lin", cone.lineality))
    for rel, kind, gens in polar:
        for k, g in enumerate(gens):
            row(f"polar_{kind}{k}", enumerate(g.rows), rel, 0)
    if mass == "total":
        row("mass", [(i, ones) for i in range(len(q))], EQ, 1)
    return q


def interior_point(n_atoms: int, gens_per_row, cone: Optional[ExchangeCone], face=None,
                   weight=None, mass: str = "row"):
    """(least entry, rows) of the point of ``install_emm_system`` (with its
    ``weight`` and ``mass``) maximizing its least entry; None when there is
    none.  ``face = (rows, value)``, an optimal face of sum_i
    E_{q_i}[rows[i]], restricts it to that face, which is never empty.
    The point is s + eps, with s >= 0 the system's variables under ``shift``
    eps, so no row bounds an entry by eps.  eps >= 0, as a free eps lets
    s + eps go negative; any q >= 0 is s = q with eps = 0, so none is lost."""
    b = LPBuilder(MAX)
    eps = b.var("eps", lo=0, obj=1)
    s = install_emm_system(b, n_atoms, gens_per_row, cone, weight, mass, shift=eps)
    if face is not None:
        rows, value = face
        coeffs = {v: c for vs, row in zip(s, rows) for v, c in zip(vs, row)}
        b.row("opt_face", {**coeffs, eps: sum(coeffs.values(), ZERO)}, EQ, value)
    out = b.solve()
    if out.status == "infeasible" and face is None:
        return None
    if out.status != "optimal":
        where = "interior point" if face is None else "optimal-face interior point"
        raise InternalInvariantError(f"{where} LP ended {out.status}")
    return out.value, tuple(tuple(out.point[v] + out.value for v in row) for row in s)


def _expectation_sup(n_atoms: int, gens_per_row, cone: Optional[ExchangeCone],
                     claim_rows, what: str) -> Ext:
    """Supremum of sum_i E_{q_i}[claim_rows[i]] over the measure vectors of
    ``install_emm_system``; -inf when there are none."""
    b = LPBuilder(MAX)
    q = install_emm_system(b, n_atoms, gens_per_row, cone)
    for vs, row in zip(q, claim_rows):
        for v, c in zip(vs, row):
            b.add_objective(v, c)
    out = b.solve()
    if out.status == "infeasible":
        return Ext.neg_inf()
    if out.status != "optimal":
        raise InternalInvariantError(f"{what} LP ended {out.status}")
    return Ext.of(out.value)


def find_emm_vector(market: MarketModel, cone: ExchangeCone) -> Optional[MeasureVector]:
    """Canonical strictly positive element of the compatible-measure
    polytope, or None when no equivalent element exists."""
    hit = interior_point(market.n_atoms, market.gains, cone)
    if hit is None or hit[0] <= 0:
        return None
    return MeasureVector(densities=hit[1])


def polar_witness(market: MarketModel, cone: ExchangeCone) -> Optional[PayoffMatrix]:
    """Canonical strictly positive element of the polar of the
    super-replicable set, of unit total mass under the reference
    probabilities, or None when no strictly positive element exists."""
    hit = interior_point(market.n_atoms, market.gains, cone,
                         weight=market.space.prob, mass="total")
    if hit is None or hit[0] <= 0:
        return None
    return PayoffMatrix(rows=hit[1])


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
    polytope; None when the polytope is empty.  The min is -sup(-q)."""
    check_index(agent, market.n_agents, "agent")
    check_index(atom, market.n_atoms, "atom")
    out = []
    for sign in (-1, 1):
        rows = [[sign if (i, w) == (agent, atom) else 0 for w in range(market.n_atoms)]
                for i in range(market.n_agents)]
        sup = _expectation_sup(market.n_atoms, market.gains, cone, rows, "coordinate range")
        if not sup.finite:
            return None
        out.append(sign * sup.value)
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
