"""Super- and sub-replication pricing, duality, fairness and cooperation.

The price functionals are exact LPs over the gains generators and the
exchange-cone generators; -inf and +inf are first-class outcomes mapped
from LP unboundedness.  One outcome of a super-replication program holds
both sides of its price (``price_certificate``): a finite price comes with
its hedge, the optimal point, and with a vector of martingale measures
polar to the cone, the ``dom{i}_{w}`` row duals, whose total claim
expectation is the price; -inf comes with a ray, a hedge of the zero claim
with negative total cash, which makes the price -inf for every claim.  The
dual program, the supremum of the claims' expectations over those measure
vectors, is ``arbitrage._expectation_sup``, kept for ``dual_rho_Y`` and
``rho_agent_plus_dual``.  The classical single-market price and its dual
are these programs with one agent's gains generators, one claim row and no
exchange cone.  One price is an identity rather than a program: an agent's
replication cost under a fixed martingale measure, which fairness reports
per agent, is the claim's expectation (``rho_under_measure``), the agent's
allocation, so fairness solves only its canonical exchange.  So is an
agent's price when its one martingale measure, > 0, and its one
replicating hedge are fixed by their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arbitrage import MeasureVector, _expectation_sup, interior_program
from .cones import ExchangeCone, Positions
from .errors import FairnessUnavailable, InternalInvariantError, ValidationError
from .ext import Ext, ext_max, ext_sum
from .lp import EQ, GE, LPBuilder, MAX, MIN, ZERO, solve_equalities
from .market import (MarketModel, PayoffMatrix, _listed, _rational, check_index,
                     constant_on, gains_basis, payoff_matrix)

ClaimVector = PayoffMatrix  # one claim row per agent, measurable per row


def claim_vector(market: MarketModel, rows) -> ClaimVector:
    return payoff_matrix(market, rows, where="claims")


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


@dataclass(frozen=True)
class PrimalOptimizer:
    m: tuple
    strategy_coeffs: tuple
    gains_rows: tuple
    ray_coeffs: tuple
    lin_coeffs: tuple
    exchange_rows: tuple


@dataclass(frozen=True)
class PriceCertificate:
    """Both sides of a super-replication price.  For a finite ``value``,
    ``hedge`` is the program's optimal point and ``measures`` its
    ``dom{i}_{w}`` row duals: one martingale measure per claim row, polar to
    the cone (of one total mass, not one each, when the rows share their
    cash).  For -inf, ``hedge`` is the program's ray, a hedge of the zero
    claim with negative total cash, and ``measures`` is None."""

    value: Ext
    hedge: PrimalOptimizer
    measures: Optional[tuple]

    @property
    def optimizer(self) -> Optional[PrimalOptimizer]:
        return self.hedge if self.value.finite else None

    def reflected(self, claim_rows) -> Optional["PriceCertificate"]:
        """The certificate of rho_+(-g) = -rho_+(g), the negated hedge with
        the same measure rows, if the price of g is finite and its hedge uses
        no cone ray and meets each claim row with equality; else None."""
        h = self.hedge
        ex = h.exchange_rows or [(ZERO,) * len(row) for row in claim_rows]
        if not self.value.finite or any(h.ray_coeffs) or not all(
                m + a + e == c for m, gains, x, row in zip(h.m, h.gains_rows, ex, claim_rows)
                for a, e, c in zip(gains, x, row)):
            return None

        def neg(v):
            return tuple(map(neg, v)) if isinstance(v, tuple) else v if v is None else -v
        hedge = PrimalOptimizer(**{k: neg(v) for k, v in vars(h).items()})
        return PriceCertificate(-self.value, hedge, self.measures)


@dataclass(frozen=True)
class FairnessResult:
    value: Fraction
    q_hat: MeasureVector
    allocations: tuple          # E_{Q_i}[g_i] per agent
    m_tilde: tuple
    y_tilde_rows: tuple         # canonical exchange, zero cost under q_hat
    y_tilde_ray_coeffs: tuple
    y_tilde_lin_coeffs: tuple
    k_tilde_coeffs: tuple       # strategies accompanying the exchange
    shift: tuple                # dual cost of the raw optimizer's exchange
    raw: PrimalOptimizer
    per_agent_prices: tuple     # individual replication cost under q_hat_i


def _expect_optimal(out, what: str) -> None:
    if out.status != "optimal":
        raise InternalInvariantError(f"{what} LP ended {out.status}")


# ---------------------------------------------------------------------------
# classical single-market prices
# ---------------------------------------------------------------------------


def _agent_claim_row(market: MarketModel, agent: int, claim_row) -> tuple:
    """The claim row as Fractions, checked against the agent's market: a
    real agent, one entry per atom, measurable at the terminal date."""
    check_index(agent, market.n_agents, "agent", where="claim")
    row = tuple(_rational(v, "claim") for v in _listed(claim_row, "claim"))
    if len(row) != market.n_atoms:
        raise ValidationError("claim", f"need {market.n_atoms} entries, got {len(row)}")
    if not constant_on(row, market.terminal_partition(agent)):
        raise ValidationError("claim", "row not measurable for the agent")
    return row


def rho_agent_plus(market: MarketModel, agent: int, claim_row):
    """Least cash m such that m plus some zero-cost gain dominates the claim:
    the collective price with the agent alone and no exchange.

    Returns (Ext value, optimizer dict or None); -inf exactly when the
    agent's martingale polytope is empty (a scalable everywhere-positive
    gain exists)."""
    cert = price_certificate(market, None, [claim_row], agent=agent)
    opt = cert.optimizer
    if opt is None:
        return cert.value, None
    return cert.value, {"m": opt.m[0], "strategy": opt.strategy_coeffs[0],
                        "gains_row": opt.gains_rows[0]}


def rho_agent_plus_dual(market: MarketModel, agent: int, claim_row) -> Ext:
    """Classical dual: supremum of the claim's expectation over the agent's
    martingale polytope (empty polytope reads as -inf)."""
    row = _agent_claim_row(market, agent, claim_row)
    return _expectation_sup(market.n_atoms, [gains_basis(market, agent)], None,
                            [row], what="single-market dual")


def rho_N_plus(market: MarketModel, g: ClaimVector) -> Ext:
    """Total cost of replicating every claim without cooperation."""
    return ext_sum(rho_agent_plus(market, i, g.rows[i])[0]
                   for i in range(market.n_agents))


def pi_N_plus(market: MarketModel, g: ClaimVector) -> Ext:
    """Least single amount covering any one claim without cooperation: the
    maximum of the per-agent prices."""
    return ext_max(rho_agent_plus(market, i, g.rows[i])[0]
                   for i in range(market.n_agents))


# ---------------------------------------------------------------------------
# collective prices
# ---------------------------------------------------------------------------


def price_certificate(market: MarketModel, cone: Optional[ExchangeCone], claim_rows,
                      agent: Optional[int] = None, shared_m: bool = False) -> PriceCertificate:
    """Super-replication with its certificate: the least total cash (one
    amount for all rows when ``shared_m``) so that trading in each agent's
    gains generators, plus one exchange from the cone unless it is None,
    dominates every claim row; -inf when unbounded.  With ``agent``, the
    program of that agent alone on its one claim row, with no cone; there,
    when the agent's martingale measure is fixed at some q > 0 (a complete
    market), one solution of the dom rows as equalities is the program's
    one optimum, by complementary slackness with q, and q its dual."""
    n, gens_per_row, what = market.n_atoms, market.gains, "collective"
    if agent is not None:
        claim_rows = [_agent_claim_row(market, agent, claim_rows[0])]
        gens_per_row, cone, what = [gains_basis(market, agent)], None, "single-market"
    b = LPBuilder(MIN)
    if shared_m:
        cash = [b.var("m", obj=1)] * len(gens_per_row)
    else:
        cash = [b.var(f"m{i}", obj=1) for i in range(len(gens_per_row))]
    pos = Positions(b, n, gens_per_row, cone)
    for i, claim in enumerate(claim_rows):
        for w in range(n):
            b.row(f"dom{i}_{w}", {cash[i]: 1, **pos.payoff(i, w)}, GE, claim[w])
    q = agent is not None and market.measure_points[agent][0]
    x = q and q[0] > 0 and solve_equalities(len(pos.h[0]) + 1, [(c, r) for _, c, _, r in b.rows])
    if isinstance(x, tuple):
        value, p, measures = Ext.of(x[0]), x, q[1]
    elif (out := b.solve()).status == "unbounded":
        value, p, measures = Ext.neg_inf(), out.ray, None
    else:
        _expect_optimal(out, f"{what} super-replication")
        # the program's rows are the dom rows, claim row by claim row
        duals = out.row_duals
        value, p = Ext.of(out.value), out.point
        measures = tuple(duals[i * n:(i + 1) * n] for i in range(len(claim_rows)))
    strat, gains, mu, nu, exchange_rows = pos.read(p)
    hedge = PrimalOptimizer(m=tuple(p[v] for v in cash), strategy_coeffs=strat,
                            gains_rows=gains, ray_coeffs=mu, lin_coeffs=nu,
                            exchange_rows=exchange_rows)
    return PriceCertificate(value, hedge, measures)


def rho_Y_plus(market: MarketModel, cone: ExchangeCone, g: ClaimVector):
    """Collective super-replication: least total cash so that, with trading
    and one exchange from the cone, every agent dominates its claim."""
    cert = price_certificate(market, cone, g.rows)
    return cert.value, cert.optimizer


def pi_Y_plus(market: MarketModel, cone: ExchangeCone, g: ClaimVector):
    """Least single amount covering any one of the claims with cooperation."""
    cert = price_certificate(market, cone, g.rows, shared_m=True)
    return cert.value, cert.optimizer


def rho_Y_minus(market: MarketModel, cone: ExchangeCone, g: ClaimVector) -> Ext:
    """Collective sub-replication via the reflection identity rho_-(g) =
    -rho_+(-g)."""
    value, _ = rho_Y_plus(market, cone, -g)
    return -value


def pi_Y_minus(market: MarketModel, cone: ExchangeCone, g: ClaimVector) -> Ext:
    value, _ = pi_Y_plus(market, cone, -g)
    return -value


def rho_N_minus(market: MarketModel, g: ClaimVector) -> Ext:
    return -rho_N_plus(market, -g)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def dual_rho_Y(market: MarketModel, cone: ExchangeCone, g: ClaimVector):
    """Dual value of the collective super-replication price: the supremum of
    the total claim expectation over vectors of martingale measures polar to
    the cone, -inf when there are none.

    This program is the LP dual of rho_Y_plus's: the free cash column m_i
    gives agent i's row sum(q_i) = 1, the free strategy columns h{i}_k give
    the martingale rows, each ray column mu >= 0 gives a row <= 0 against
    that ray and each free lineality column nu a row = 0 against that
    generator.  When the cone contains all deterministic zero-sum transfers,
    the maximizing measure vector returned is the canonical interior point
    of the optimal face (maximal minimum atom probability); otherwise it is
    None."""
    value = _expectation_sup(market.n_atoms, market.gains, cone, g.rows,
                             what="compatible-measure dual")
    if not value.finite or not cone.meta.contains_RN0:
        return value, None
    return value, optimal_face_measures(market, cone, g, value.value)


def optimal_face_measures(market: MarketModel, cone: ExchangeCone, g: ClaimVector,
                          value: Fraction) -> MeasureVector:
    """The canonical interior point (maximal minimum atom probability) of
    the measure vectors polar to the cone under which the claims' total
    expectation is ``value``, the finite price rho_Y_plus(g)."""
    hit = interior_program(market.n_atoms, market.gains, cone, face=(g.rows, value))[1]()
    if hit is None:
        raise InternalInvariantError("optimal face holds no measure vector")
    return MeasureVector(densities=hit[1])


# ---------------------------------------------------------------------------
# fairness
# ---------------------------------------------------------------------------


def rho_under_measure(market: MarketModel, agent: int, q_row, claim_row) -> Fraction:
    """Individual super-replication when the agent prices with a fixed
    martingale measure q: the least cash m such that m, plus trading, plus
    an instrument constant on each of the agent's terminal blocks and of
    zero cost under q, dominates the claim.  This is E_q[claim], read off
    without a program.  Taking expectations under q of a dominating position
    gives m >= E_q[claim], since q is nonnegative and prices the gains and
    the instrument at zero; h = 0 with y_B = claim_B - E_q[claim] on each
    block B attains it."""
    claim_row = _agent_claim_row(market, agent, claim_row)
    q_row = tuple(_rational(v, "measure") for v in _listed(q_row, "measure"))
    if len(q_row) != market.n_atoms:
        raise ValidationError("measure", f"need {market.n_atoms} entries, got {len(q_row)}")
    if any(v < 0 for v in q_row) or sum(q_row) != 1:
        raise ValidationError("measure", "not a probability row: entries must be "
                              "nonnegative and sum to 1")
    if any(_dot(q_row, g.vector) for g in gains_basis(market, agent)):
        raise ValidationError("measure", "not a martingale measure for the agent")
    return _dot(q_row, claim_row)


def fairness_allocation(market: MarketModel, cone: ExchangeCone,
                        g: ClaimVector) -> FairnessResult:
    """Shift a primal optimizer by a deterministic zero-sum vector so each
    agent's exchange has zero cost under the dual-optimal measure vector;
    the resulting per-agent costs are the fairness allocation."""
    return fairness_from_prices(market, cone, g,
                                dual=lambda: dual_rho_Y(market, cone, g),
                                primal=lambda: rho_Y_plus(market, cone, g),
                                individual=lambda i: rho_agent_plus(market, i, g.rows[i])[0])


def fairness_from_prices(market: MarketModel, cone: ExchangeCone, g: ClaimVector,
                         dual, primal, individual) -> FairnessResult:
    """fairness_allocation from its prices, each asked for when needed:
    ``dual()`` as dual_rho_Y, ``primal()`` as rho_Y_plus and ``individual(i)``
    as agent i's rho_agent_plus value.  None is asked for when the cone lacks
    some deterministic zero-sum transfer, so fairness_allocation then solves
    nothing.  Beyond its prices it solves one program, the canonical
    exchange; each per-agent fair price, agent i's replication cost under
    q_hat_i, is E_{q_hat_i}[g_i] (``rho_under_measure``), its allocation."""
    if not cone.meta.contains_RN0:
        raise FairnessUnavailable(
            "fairness needs the cone to contain all deterministic zero-sum transfers")
    dual_value, q_hat = dual()
    if not dual_value.finite or q_hat is None:
        raise FairnessUnavailable("collective super-replication price is not finite")
    primal_value, opt = primal()
    if primal_value != dual_value:
        raise InternalInvariantError("pricing-hedging duality gap detected")

    N = market.n_agents
    shift = tuple(_dot(q_hat.densities[i], opt.exchange_rows[i]) for i in range(N))
    if sum(shift) != 0:
        raise InternalInvariantError("dual-optimal exchange values do not net to zero")
    m_tilde = tuple(opt.m[i] + shift[i] for i in range(N))

    allocations = tuple(_dot(q_hat.densities[i], g.rows[i]) for i in range(N))
    if any(m_tilde[i] != allocations[i] for i in range(N)):
        raise InternalInvariantError("adjusted costs differ from allocated expectations")
    if sum(m_tilde, ZERO) != primal_value.value:
        raise InternalInvariantError("allocations do not sum to the collective price")

    mu, nu, k_coeffs, y_rows = _minimal_transfer_optimizer(market, cone, g,
                                                           m_tilde, q_hat)
    for i in range(N):
        if _dot(q_hat.densities[i], y_rows[i]) != 0:
            raise InternalInvariantError("adjusted exchange has nonzero dual cost")

    if any(not (Ext.of(allocations[i]) <= individual(i)) for i in range(N)):
        raise InternalInvariantError("allocation exceeds individual price")
    return FairnessResult(value=primal_value.value, q_hat=q_hat,
                          allocations=allocations, m_tilde=m_tilde,
                          y_tilde_rows=y_rows, y_tilde_ray_coeffs=mu,
                          y_tilde_lin_coeffs=nu, k_tilde_coeffs=k_coeffs,
                          shift=shift, raw=opt, per_agent_prices=allocations)


def _minimal_transfer_optimizer(market, cone, g, m_tilde, q_hat):
    """Among all optimizers at the fixed fair costs with zero-dual-cost
    exchanges, pick the one moving the least total cash (minimal L1 norm of
    the exchange rows); canonical and reproducible.  The L1 norm is the
    usual split: each exchange entry is p - n with p, n >= 0 (one equality
    row per entry), at cost p + n."""
    N, n = market.n_agents, market.n_atoms
    b = LPBuilder(MIN)
    pos = Positions(b, n, market.gains, cone)
    split = [[(b.var(f"p{i}_{w}", lo=0, obj=1), b.var(f"n{i}_{w}", lo=0, obj=1))
              for w in range(n)] for i in range(N)]
    for i in range(N):
        zero_cost = {}
        for w in range(n):
            ex = pos.exchange(i, w)
            b.row(f"dom{i}_{w}", {**pos.gains(i, w), **ex}, GE, g.rows[i][w] - m_tilde[i])
            plus, minus = split[i][w]
            b.row(f"split{i}_{w}", {**ex, plus: -1, minus: 1}, EQ, 0)
            q = q_hat.densities[i][w]
            if q:
                for v, c in ex.items():
                    zero_cost[v] = zero_cost.get(v, 0) + q * c
        b.row(f"cost{i}", zero_cost, EQ, 0)
    out = b.solve()
    if out.status != "optimal":
        raise InternalInvariantError("minimal-transfer canonicalisation failed")
    k_coeffs, _, mu, nu, rows = pos.read(out.point)
    return mu, nu, k_coeffs, rows


# ---------------------------------------------------------------------------
# cooperation value, price compatibility, full-market collapse
# ---------------------------------------------------------------------------


def value_of_cooperation(market: MarketModel, cone: ExchangeCone, g: ClaimVector):
    """Savings from cooperation on the selling side and in total."""
    return cooperation_from_prices(rho_N_plus(market, g), rho_Y_plus(market, cone, g)[0],
                                   rho_N_minus(market, g), rho_Y_minus(market, cone, g))


def cooperation_from_prices(rho_n: Ext, rho_y: Ext, rho_nm: Ext, rho_ym: Ext) -> dict:
    """value_of_cooperation from the stand-alone and collective super- and
    sub-replication prices."""
    selling = Ext.of(0) if rho_n == rho_y else rho_n - rho_y
    buying = Ext.of(0) if rho_ym == rho_nm else rho_ym - rho_nm
    total = selling + buying
    return {"selling": selling, "buying": buying, "total": total}


@dataclass(frozen=True)
class PriceCompatibility:
    compatible: bool                 # no riskless gain at the quoted prices
    scalar_cost_compatible: Optional[bool]  # sum of prices <= collective price
    witness: Optional[dict] = None


def price_compatibility(market: MarketModel, cone: ExchangeCone, g: ClaimVector,
                        prices: Sequence) -> PriceCompatibility:
    """Selling the claims at the quoted prices: do trading plus an exchange
    make every agent's final position nonnegative and someone's positive?"""
    p = tuple(_rational(v, "prices") for v in _listed(prices, "prices"))
    if len(p) != market.n_agents:
        raise ValidationError("prices", "need one price per agent")
    b = LPBuilder(MAX)
    pos = Positions(b, market.n_atoms, market.gains, cone)
    total_obj = {}
    offset = ZERO
    for i in range(market.n_agents):
        for w in range(market.n_atoms):
            coeffs = pos.payoff(i, w)
            b.row(f"pos{i}_{w}", coeffs, GE, g.rows[i][w] - p[i])
            offset += p[i] - g.rows[i][w]
            for v, c in coeffs.items():
                total_obj[v] = total_obj.get(v, ZERO) + c
    for v, c in total_obj.items():
        b.add_objective(v, c)
    out = b.solve()

    rho_y, _ = rho_Y_plus(market, cone, g)
    scalar_ok = None
    if rho_y.finite:
        scalar_ok = Ext.of(sum(p, ZERO)) <= rho_y
    elif rho_y == Ext.neg_inf():
        scalar_ok = False

    if out.status == "infeasible":
        return PriceCompatibility(compatible=True, scalar_cost_compatible=scalar_ok)
    point = out.point
    if out.status == "optimal":
        if out.value + offset <= 0:
            return PriceCompatibility(compatible=True, scalar_cost_compatible=scalar_ok)
    else:
        # ride the improving ray far enough for a strictly positive total
        ray = out.ray
        base = sum((c * point[v] for v, c in total_obj.items()), ZERO) + offset
        slope = sum((c * ray[v] for v, c in total_obj.items()), ZERO)
        if slope <= 0:
            raise InternalInvariantError("improving ray does not raise the total gain")
        tau = (Fraction(1) - base) / slope
        if tau < 0:
            tau = ZERO
        point = tuple(x + tau * r for x, r in zip(point, ray))
    strat, _, mu, nu, exchange_rows = pos.read(point)
    witness = {"strategies": strat, "ray_coeffs": mu, "lin_coeffs": nu,
               "exchange_rows": exchange_rows}
    return PriceCompatibility(compatible=False, scalar_cost_compatible=scalar_ok,
                              witness=witness)


def rho_full_market(market: MarketModel, pooled_claim) -> Ext:
    """Classical super-replication of one pooled claim in the full market
    (`market.full_market`: one agent owning every asset under the global
    filtration)."""
    value, _ = rho_agent_plus(market.full_market, 0, pooled_claim)
    return value
