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
A point that its equality rows fix (a complete market) is read off them
(``interior_program``).  Each detection takes its interior point first and,
by the FTAP, searches for an arbitrage only without one > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cones import ExchangeCone, Positions
from .errors import InternalInvariantError, ValidationError
from .ext import Ext
from .lp import EQ, GE, INCONSISTENT, LE, LPBuilder, MAX, MIN, solve_equalities
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
                total[v] = total.get(v, 0) + c
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


def install_emm_system(b: LPBuilder, n_atoms: int, gens_per_row, cone: Optional[ExchangeCone],
                       weight=None, mass: str = "row", face=None):
    """Variables ``q{i}_{w} >= 0``, one row per row of gains generators,
    under the rule of ``verify._check_dual_rows``: weighted by ``weight``
    (all ones when None), each row (mass "row") or all rows together
    ("total") have unit mass, each row has zero value against its gains
    generators, and the rows together are <= 0 against each cone ray and
    = 0 against each lineality generator (no cone rows when ``cone`` is
    None).  Unit weights and mass "row" give vectors of martingale measures;
    the reference probabilities and mass "total" give the polar elements of
    the super-replicable set, which differ only in that normalisation.
    Returns the handles ``q[i][w]``.  ``face = (rows, value)`` adds the row
    sum_i <q_i, rows[i]> = value last.  The cone must have ``n_atoms``
    atoms and one row per row of gains generators."""
    if cone is not None and (cone.n_agents, cone.n_atoms) != (len(gens_per_row), n_atoms):
        raise ValidationError("cone", "cone shape does not match the market")
    q = [[b.var(f"q{i}_{w}", lo=0) for w in range(n_atoms)] for i in range(len(gens_per_row))]

    def row(label, rows, rel, rhs):
        b.row(label, {q[i][w]: v if weight is None else weight[w] * v
                      for i, r in rows for w, v in enumerate(r) if v}, rel, rhs)

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
    if face is not None:
        row("opt_face", enumerate(face[0]), EQ, face[1])
    return q


def interior_program(n_atoms: int, gens_per_row, cone: Optional[ExchangeCone], face=None,
                     weight=None, mass: str = "row"):
    """(fixed, point): ``point()`` is the (least entry, rows) of the point of
    ``install_emm_system`` (with its ``weight``, ``mass`` and ``face``)
    maximizing its least entry, None when there is none; ``fixed`` is that
    answer where the equality rows fix one q, else None.  The program's
    point is q = s + eps, eps >= 0 in column 0, s_iw >= 0 in q_iw's plus 1;
    each row adds its summed coefficients to eps (a free eps lets q go
    negative; any q >= 0 is s = q, eps = 0), so a fixed q >= 0 meeting every
    ray row is its one optimum, eps = min q; else, as with inconsistent
    rows, there is none.  The program is solved only below full rank."""
    b = LPBuilder(MAX)
    n = sum(map(len, install_emm_system(b, n_atoms, gens_per_row, cone, weight, mass, face)))
    eqs = [(c, rhs) for _, c, rel, rhs in b.rows if rel == EQ]
    q = solve_equalities(n, eqs) if len(eqs) >= n else None
    fixed = None if q is None or q is INCONSISTENT or min(q) < 0 or any(
        sum(a * q[k] for k, a in c.items()) > rhs for _, c, rel, rhs in b.rows if rel == LE) else (
        min(q), tuple(q[k:k + n_atoms] for k in range(0, n, n_atoms)))
    # a market keeps point() (measure_points), so it holds the rows only to solve
    rows = None if q is not None else b.rows

    def point():
        if rows is None:
            return fixed
        p = LPBuilder(MAX)
        p.var("eps", lo=0, obj=1)
        s = [p.var(f"s{k // n_atoms}_{k % n_atoms}", lo=0) for k in range(n)]
        for name, c, rel, rhs in rows:
            p.row(name, {0: sum(c.values()), **{v + 1: a for v, a in c.items()}}, rel, rhs)
        out = p.solve()
        if out.status == "infeasible":
            return None
        if out.status != "optimal":
            raise InternalInvariantError(f"interior point LP ended {out.status}")
        x = [out.point[v] + out.value for v in s]
        return out.value, tuple(tuple(x[k:k + n_atoms]) for k in range(0, n, n_atoms))

    return fixed, point


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


def _positive(hit) -> Optional[tuple]:
    """The rows of an interior point whose least entry is > 0, else None."""
    return hit[1] if hit is not None and hit[0] > 0 else None


def find_emm_vector(market: MarketModel, cone: ExchangeCone) -> Optional[MeasureVector]:
    """Canonical strictly positive element of the compatible-measure
    polytope, or None when no equivalent element exists."""
    rows = _positive(interior_program(market.n_atoms, market.gains, cone)[1]())
    return None if rows is None else MeasureVector(densities=rows)


def polar_witness(market: MarketModel, cone: ExchangeCone) -> Optional[PayoffMatrix]:
    """Canonical strictly positive element of the polar of the
    super-replicable set, of unit total mass under the reference
    probabilities, or None when no strictly positive element exists."""
    rows = _positive(interior_program(market.n_atoms, market.gains, cone,
                                      weight=market.space.prob, mass="total")[1]())
    return None if rows is None else PayoffMatrix(rows=rows)


# ---------------------------------------------------------------------------
# detection operations
# ---------------------------------------------------------------------------


def detect_NA_agent(market: MarketModel, agent: int) -> ArbitrageCertificate:
    """Classical single-market arbitrage for one agent, with certificate:
    an equivalent martingale measure (the interior point of the agent's
    martingale measures, > 0), or else the arbitrage the FTAP says exists."""
    return _detect(market, [gains_basis(market, agent)], None,
                   _positive(market.measure_points[agent][1]()),
                   f"no arbitrage for agent {agent} yet no equivalent martingale measure")


def detect_NA_global(market: MarketModel) -> ArbitrageCertificate:
    """Classical arbitrage in the pooled market of all assets, the one agent
    of `market.full_market`, decided as ``detect_NA_agent`` decides."""
    full = market.full_market
    return _detect(full, full.gains, None, _positive(full.measure_points[0][1]()),
                   "no arbitrage yet no equivalent martingale measure")


def detect_NCA(market: MarketModel, cone: ExchangeCone) -> ArbitrageCertificate:
    """Collective arbitrage: per-agent trades plus an exchange from the cone
    making every agent's payoff nonnegative and the total strictly positive;
    by the collective FTAP, searched for only without a ``polar_witness``."""
    z = polar_witness(market, cone)
    return _detect(market, market.gains, cone, None if z is None else z.rows,
                   "no collective arbitrage yet no strictly positive polar element")


def _detect(market: MarketModel, gens_per_row, cone, witness, what: str) -> ArbitrageCertificate:
    """The no-arbitrage certificate of ``witness``, the rows of a strictly
    positive interior point; without one (None), the arbitrage that the
    search finds, and ``InternalInvariantError(what)`` if it finds none."""
    if witness is not None:
        return ArbitrageCertificate(found=False, dual_witness=witness)
    hit = _search_arbitrage(market, gens_per_row, cone)
    if hit is None:
        raise InternalInvariantError(what)
    strat, rows, exchange = hit
    return ArbitrageCertificate(found=True, strategy_coeffs=strat, gains_rows=rows,
                                exchange=exchange)


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
