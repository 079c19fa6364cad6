"""Analysis pipeline and deterministic report assembly.

Every certificate that enters a report is first re-verified by the
independent checker; a failure raises InternalInvariantError, which the
CLI maps to exit code 2.  All numbers serialize as rational strings (or
"-inf"/"+inf"/"absent"), atoms are always referenced by label, and the
section order is fixed, so identical inputs yield byte-identical reports.

The analysis solves only what the report prints.  These answers are read
off a certificate it has already verified, or off an exact identity,
instead of a program of their own:

* every no-arbitrage answer, each agent's, the pooled market's and the
  collective one: the strictly positive interior point (an equivalent
  martingale measure, or a polar element) is solved first and verified, so
  by the FTAP an arbitrage is searched for only without one, and found;
* an interior point whose equality rows fix one q (a complete market, by
  the second fundamental theorem): q if q >= 0 meets every ray row, else
  none (``arbitrage.interior_program``); a fixed q > 0 is a witness read
  off without a program;
* an agent's price when its measure is fixed at q > 0 and its replicating
  hedge is fixed too: by complementary slackness they are its program's
  optimum and dual (``pricing.price_certificate``);
* the dual side of every super-replication price (rho_i, rho_N_minus,
  rho_Y, rho_Y_minus, and pi_Y, pi_Y_minus when computed): one outcome of
  the price's program holds both sides (``pricing.price_certificate``), a
  hedge with martingale measure rows of equal claim expectation, or for
  -inf a ray, and ``verify.verify_price_certificate`` checks them; so
  ``dual_value`` is rho_Y, and only the optimal face's interior point,
  which prints ``dual_optimizer``, is solved;
* a sub-replication price (of each agent, rho_Y_minus, pi_Y_minus), whose
  reflected super-replication program on -g has the verified ray of the
  program on g when that is -inf, so the price is +inf; and when the
  verified hedge of g meets every claim row with equality and uses no cone
  ray, the negated hedge with the same measure rows certifies rho_+(-g) =
  -rho_+(g) (``PriceCertificate.reflected``), and is verified instead;
* the polar-witness check after a verified collective arbitrage: by the
  collective fundamental theorem of asset pricing, a strictly positive z
  orthogonal to every agent's gains and polar to the cone would give the
  arbitrage's nonnegative, nonzero payoff an expectation both > 0 and <= 0,
  so no such z exists;
* the equivalent measure vector after a verified collective arbitrage: the
  same argument excludes every one polar to the cone, for every cone, so
  it is absent;
* collective arbitrage with deterministic transfers (on Y + Y0(0), Y0(0)
  being RN0, all deterministic zero-sum transfers), for every cone: a
  verified arbitrage on Y is one on Y + Y0(0), and a verified equivalent
  measure vector, whose rows are probabilities and so polar to RN0,
  excludes one.  Only with neither is Y + Y0(0) searched, and the
  arbitrage the collective FTAP says it must hold is verified;
* pi_Y and pi_Y_minus, when the cone's cash groups are known: no generator
  has nonzero rows in two groups, so the rho_Y program splits by group, and
  at a verified optimum group G's cash sum is its price C_G (each sum is at
  least C_G, and they add up to the optimum).  The cone holds e_i - e_j,
  the sum of the 1_B (e_i - e_j), for i, j in G, so cash moves to C_G / |G|:
  pi_Y = max_G C_G / |G| and pi_Y_minus = -max_G C_G(-g) / |G|, rho_Y / N
  with one group (RN0), also at -inf, and pi_N for singletons (the zero
  cone); with several groups and rho_Y = -inf, a ray, both are solved;
* each agent's fair price, its replication cost under its dual-optimal
  measure q_i: taking expectations under q_i of a dominating position gives
  a cost >= E_{q_i}[g_i], and cash E_{q_i}[g_i] plus the zero-cost
  instrument g_i - E_{q_i}[g_i] attains it, so it is E_{q_i}[g_i]
  (``pricing.rho_under_measure``), the agent's allocation.

``tests/instance_checks.py`` solves the dropped programs on random
instances and checks each against the certificate or identity that
replaces it here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from . import verify
from .arbitrage import detect_NA_agent, detect_NA_global, detect_NCA, find_emm_vector
from .cones import ExchangeCone, cone_add, make_Y0
from .errors import FairnessUnavailable, InternalInvariantError, ValidationError
from .ext import Ext, ext_max, ext_sum
from .market import MarketModel
from .model_io import ModelFile
from .pricing import (PriceCertificate, cooperation_from_prices, fairness_from_prices,
                      optimal_face_measures, price_certificate)

ALL_SECTIONS = ("na", "nca", "ftap", "price", "fairness")


def _val(v) -> str:
    if isinstance(v, Ext):
        return str(v)
    if v is None:
        return "absent"
    return str(Fraction(v))


def _row_obj(market: MarketModel, row) -> dict:
    return {market.space.atoms[w]: _val(row[w]) for w in range(market.n_atoms)}


def _rows_obj(market: MarketModel, rows) -> list:
    return [_row_obj(market, r) for r in rows]


def _strategy_obj(market: MarketModel, gens, coeffs) -> list:
    return [{"position": g.label(market), "coefficient": _val(c)}
            for g, c in zip(gens, coeffs) if c]


def _arbitrage_obj(market, cert, bases) -> dict:
    """``bases`` holds the gains basis of each certificate row, in order."""
    if not cert.found:
        out = {"arbitrage": False,
               "dual_witness": _rows_obj(market, cert.dual_witness)}
        return out
    out = {"arbitrage": True,
           "strategies": [_strategy_obj(market, gens, coeffs)
                          for gens, coeffs in zip(bases, cert.strategy_coeffs)],
           "gains": _rows_obj(market, cert.gains_rows)}
    if cert.exchange is not None:
        out["exchange"] = _rows_obj(market, cert.exchange.rows)
    return out


def _flags_obj(cone: ExchangeCone) -> dict:
    return {
        "is_zero_sum": cone.meta.is_zero_sum,
        "contains_RN0": cone.meta.contains_RN0,
        "measurable_at": cone.meta.measurable_at,
        "rays": len(cone.rays),
        "lineality": len(cone.lineality),
    }


def analyze(model: ModelFile, sections=None) -> dict:
    market = model.market
    cone = model.exchange
    wanted = set(sections or ALL_SECTIONS)
    unknown = sorted(wanted.difference(ALL_SECTIONS))
    if unknown:
        raise ValidationError("sections", f"unknown section names {unknown}")

    report = {
        "model": {
            "atoms": list(market.space.atoms),
            "prob": [_val(p) for p in market.space.prob],
            "periods": market.T,
            "agents": market.n_agents,
            "assets": [a.name for a in market.assets],
            "exchange": _flags_obj(cone) if cone is not None else "absent",
        },
        "validation": {"status": "ok"},
    }

    na_agent_results = []
    for i in range(market.n_agents):
        cert = detect_NA_agent(market, i)
        if cert.found:
            verify.verify_arbitrage_found(market, cert, agent=i)
        else:
            verify.verify_single_market_witness(market, cert.dual_witness[0], agent=i)
        na_agent_results.append(cert)
    na_global_result = detect_NA_global(market)
    if na_global_result.found:
        verify.verify_arbitrage_found(market, na_global_result)
    else:
        verify.verify_single_market_witness(market, na_global_result.dual_witness[0])

    if "na" in wanted:
        report["na"] = {
            "agents": [dict(agent=f"agent{i + 1}",
                            **_arbitrage_obj(market, c, [market.gains[i]]))
                       for i, c in enumerate(na_agent_results)],
            "global": _arbitrage_obj(market, na_global_result, market.full_market.gains),
        }

    nca_cert = mv = None
    if cone is not None and wanted & {"nca", "ftap", "price", "fairness"}:
        nca_cert = detect_NCA(market, cone)
        # the verified arbitrage excludes every strictly positive polar
        # element and every equivalent measure vector polar to the cone;
        # without one, the verified dual witness is such a polar element
        if nca_cert.found:
            verify.verify_arbitrage_found(market, nca_cert, cone=cone)
        else:
            verify.verify_polar_witness(market, cone, nca_cert.dual_witness)
            mv = find_emm_vector(market, cone)
            if mv is not None:
                verify.verify_measure_vector(market, cone, mv, strict=True)
            else:
                # by the collective FTAP, Y + Y0(0) then has an arbitrage
                widened = cone_add(market, cone, make_Y0(market, 0))
                wide_cert = detect_NCA(market, widened)
                if not wide_cert.found:
                    raise InternalInvariantError("measure vector disagrees with detection")
                verify.verify_arbitrage_found(market, wide_cert, cone=widened)

    if "nca" in wanted:
        if cone is None:
            report["nca"] = {"status": "skipped", "reason": "no exchange cone in model"}
        else:
            report["nca"] = _arbitrage_obj(market, nca_cert, market.gains)
            # each measure vector row is a probability, so mv is polar to
            # Y0(0) as well: it excludes arbitrage on Y + Y0(0)
            report["nca"]["with_deterministic_transfers"] = {"arbitrage": mv is None}

    if "ftap" in wanted:
        if cone is None:
            report["ftap"] = {"status": "skipped", "reason": "no exchange cone in model"}
        else:
            groups = cone.meta.groups or ()
            normalization = ("probability" if len(groups) == 1 else "grouping-normalized"
                             if any(len(g) > 1 for g in groups) else "none")
            report["ftap"] = {
                "measure_vector": ("absent" if mv is None
                                   else _rows_obj(market, mv.densities)),
                "polar_witness": ("absent" if nca_cert.found
                                  else _rows_obj(market, nca_cert.dual_witness)),
                "no_collective_arbitrage": not nca_cert.found,
                "normalization": normalization,
            }

    pricing_data = None
    if model.claims is not None and wanted & {"price", "fairness"}:
        pricing_data = _pricing_section(market, cone, model.claims)

    if "price" in wanted:
        if model.claims is None:
            report["pricing"] = {"status": "skipped", "reason": "no claims in model"}
        else:
            report["pricing"] = pricing_data["pricing"]
            report["cooperation"] = pricing_data["cooperation"]

    if "fairness" in wanted:
        if model.claims is None or cone is None:
            report["fairness"] = {"status": "skipped",
                                  "reason": "needs claims and an exchange cone"}
        else:
            report["fairness"] = pricing_data["fairness"]

    if cone is not None and model.claims is not None and "price" in wanted:
        report["table"] = _summary_table(na_agent_results, na_global_result,
                                         nca_cert, mv, pricing_data["prices"])
    return report


def _price(market, cone, rows, agent=None, shared_m=False, cert=None) -> PriceCertificate:
    """The super-replication price of ``rows`` (``price_certificate`` unless
    ``cert`` is given), its certificate verified."""
    cert = cert or price_certificate(market, cone, rows, agent=agent, shared_m=shared_m)
    verify.verify_price_certificate(market, cone, rows, cert, agent=agent, shared_m=shared_m)
    return cert


def _sub_price(market, cone, cert, rows, agent=None, shared_m=False) -> PriceCertificate:
    """The verified certificate of rho_+(-rows) on the program that gave the
    verified ``cert`` on ``rows``: ``cert`` itself when that is a ray, else
    solved only when ``cert`` is not ``reflected`` (see the module docstring)."""
    if not cert.value.finite:
        return cert
    negated = tuple(tuple(-v for v in row) for row in rows)
    return _price(market, cone, negated, agent, shared_m, cert.reflected(rows))


def _group_price(groups, cert):
    """pi_+ off ``cert``, the verified rho_+ certificate of the same claims, on
    a cone with cash groups ``groups``; None if unknown, or several at -inf."""
    finite, m = cert.value.finite, cert.hedge.m
    if groups is None or not finite and len(groups) > 1:
        return None
    return Ext.of(max(sum(m[i] for i in g) / len(g) for g in groups)) if finite else cert.value


def _pricing_section(market, cone, claims) -> dict:
    agent_certs = [_price(market, None, (claims.rows[i],), agent=i)
                   for i in range(market.n_agents)]
    rho_i = [c.value for c in agent_certs]
    rho_n = ext_sum(rho_i)
    pi_n = ext_max(rho_i)

    out = {
        "rho_i": [_val(v) for v in rho_i],
        "rho_N": _val(rho_n),
        "pi_N": _val(pi_n),
    }
    prices = {"rho_N": rho_n, "pi_N": pi_n}
    cooperation: object = "absent"
    fairness: object = "absent"
    if cone is not None:
        # on a cone with known cash groups, the verified hedges of rho_Y and
        # rho_+(-g) show pi_Y and pi_Y_minus, which need no program of their own
        rho_cert = _price(market, cone, claims.rows)
        rho_y, opt = rho_cert.value, rho_cert.optimizer
        pi_y, pi_cert = _group_price(cone.meta.groups, rho_cert), None
        if pi_y is None:
            pi_cert = _price(market, cone, claims.rows, shared_m=True)
            pi_y = pi_cert.value
        # rho_Y's verified measure rows, or its ray, certify the dual value;
        # the optimal face's interior point is printed, so it is solved
        dual_v, dual_mv = rho_y, None
        if cone.meta.contains_RN0 and rho_y.finite:
            dual_mv = optimal_face_measures(market, cone, claims, rho_y.value)
            verify.verify_measure_vector(market, cone, dual_mv, strict=False)
        if not (rho_y <= rho_n and pi_y <= pi_n):
            raise InternalInvariantError("cooperative price exceeds stand-alone price")
        negated = _sub_price(market, cone, rho_cert, claims.rows)
        rho_ym = -negated.value
        pi_ym = -(_group_price(cone.meta.groups, negated) if pi_cert is None
                  else _sub_price(market, cone, pi_cert, claims.rows, shared_m=True).value)
        rho_nm = ext_sum(-_sub_price(market, None, c, (claims.rows[i],), agent=i).value
                         for i, c in enumerate(agent_certs))
        prices.update(rho_Y=rho_y, pi_Y=pi_y)
        out.update({
            "rho_Y": _val(rho_y),
            "pi_Y": _val(pi_y),
            "dual_value": _val(dual_v),
            "rho_Y_minus": _val(rho_ym),
            "pi_Y_minus": _val(pi_ym),
            "rho_N_minus": _val(rho_nm),
            "primal_optimizer": "absent" if opt is None else {
                "m": [_val(v) for v in opt.m],
                "strategies": [_strategy_obj(market, gens, coeffs)
                               for gens, coeffs in zip(market.gains, opt.strategy_coeffs)],
                "exchange": _rows_obj(market, opt.exchange_rows),
            },
            "dual_optimizer": ("absent" if dual_mv is None
                               else _rows_obj(market, dual_mv.densities)),
        })
        coop = cooperation_from_prices(rho_n, rho_y, rho_nm, rho_ym)
        cooperation = {k: _val(v) for k, v in coop.items()}
        try:
            fr = fairness_from_prices(market, cone, claims, dual=lambda: (dual_v, dual_mv),
                                      primal=lambda: (rho_y, opt), individual=lambda i: rho_i[i])
            verify.verify_fairness(market, cone, claims, fr)
            fairness = {
                "value": _val(fr.value),
                "pricing_measures": _rows_obj(market, fr.q_hat.densities),
                "allocations": [_val(v) for v in fr.allocations],
                "m_tilde": [_val(v) for v in fr.m_tilde],
                "adjusted_exchange": _rows_obj(market, fr.y_tilde_rows),
                "per_agent_prices": [_val(v) for v in fr.per_agent_prices],
            }
        except FairnessUnavailable as e:
            fairness = {"status": "unavailable", "reason": str(e)}
    return {"pricing": out, "cooperation": cooperation, "fairness": fairness,
            "prices": prices}


def _summary_table(na_agents, na_global, nca_cert, mv, prices) -> dict:
    """``prices`` holds the Ext values of rho_N, pi_N, rho_Y and pi_Y; an
    equivalent measure vector exists exactly when Y + RN0 has no arbitrage."""
    return {
        "NA": not na_global.found,
        "NCA(Y)": not nca_cert.found,
        "NCA(Y+RN0)": mv is not None,
        "NA_i_all": all(not c.found for c in na_agents),
        "M_Y_nonempty": mv is not None,
        "pi_Y<pi_N": prices["pi_Y"] < prices["pi_N"],
        "rho_Y<rho_N": prices["rho_Y"] < prices["rho_N"],
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = []
    model = report["model"]
    lines.append(f"model: {len(model['atoms'])} atoms, T={model['periods']}, "
                 f"{model['agents']} agents, assets {', '.join(model['assets'])}")
    if "na" in report:
        nag = report["na"]["global"]["arbitrage"]
        per = [a["arbitrage"] for a in report["na"]["agents"]]
        lines.append(f"arbitrage: global={'yes' if nag else 'no'}, "
                     f"per-agent={['yes' if v else 'no' for v in per]}")
    if "nca" in report and "arbitrage" in report.get("nca", {}):
        lines.append(f"collective arbitrage: {'yes' if report['nca']['arbitrage'] else 'no'}"
                     f" (with deterministic transfers: "
                     f"{'yes' if report['nca']['with_deterministic_transfers']['arbitrage'] else 'no'})")
    if "ftap" in report and "measure_vector" in report.get("ftap", {}):
        have = report["ftap"]["measure_vector"] != "absent"
        lines.append(f"compatible martingale measure vector: {'found' if have else 'none'}")
    if "pricing" in report and "rho_N" in report.get("pricing", {}):
        pr = report["pricing"]
        lines.append(f"prices: rho_i={pr['rho_i']} rho_N={pr['rho_N']} pi_N={pr['pi_N']}")
        if "rho_Y" in pr:
            lines.append(f"        rho_Y={pr['rho_Y']} pi_Y={pr['pi_Y']} "
                         f"dual={pr['dual_value']}")
    if isinstance(report.get("cooperation"), dict):
        co = report["cooperation"]
        lines.append(f"cooperation value: selling={co['selling']} total={co['total']}")
    if "fairness" in report and isinstance(report["fairness"], dict) \
            and "allocations" in report["fairness"]:
        lines.append(f"fair allocations: {report['fairness']['allocations']}")
    if "table" in report:
        t = report["table"]
        cols = ["NA", "NCA(Y)", "NCA(Y+RN0)", "NA_i_all", "M_Y_nonempty",
                "pi_Y<pi_N", "rho_Y<rho_N"]

        def mark(v):
            return {True: "yes", False: "no"}.get(v, str(v))

        lines.append(" | ".join(cols))
        lines.append(" | ".join(mark(t[c]) for c in cols))
    return "\n".join(lines) + "\n"
