"""Every printed super-replication price is checked from its own program's
outcome (``verify.verify_price_certificate``): a finite price by its hedge
and its measure rows, -inf by its ray.  Changing one hedge entry, one
measure entry, the value, or the sign of the ray must raise
InternalInvariantError, and the CLI must exit 2 on a tampered price
certificate under ``python -O`` too."""

import dataclasses

import pytest

from collective_arb import report
from collective_arb.arbitrage import detect_NA_agent, find_emm_vector
from collective_arb.errors import InternalInvariantError
from collective_arb.examples_builtin import example_document, write_example
from collective_arb.ext import Ext
from collective_arb.market import build_market
from collective_arb.model_io import parse_model
from collective_arb.pricing import claim_vector, price_certificate
from collective_arb.verify import verify_price_certificate

from conftest import toy_market_spec
from test_invariant_guards import _run_O


def _model(name):
    model = parse_model(example_document(name))
    return model.market, model.exchange, model.claims.rows


def _arbitrage_agent():
    """The toy market with the first agent's asset moving from 2 to 3 on
    every outcome: holding it gains everywhere, so that agent's prices are
    -inf."""
    spec = toy_market_spec()
    spec["assets"]["X1"] = ["2", ["3", "3"]]
    market = build_market(spec)
    return market, None, claim_vector(market, [["3", "1"], ["9", "3"]]).rows


def _negated(rows):
    return tuple(tuple(-v for v in row) for row in rows)


# price -> (its program on a model: market, cone, claim rows, keywords) with
# a finite price and with -inf; rho_N_minus and rho_Y_minus are the programs
# of rho_i and rho_Y on the negated claims
def _agent(model, sign):
    market, _, rows = model
    return market, None, (rows[0],) if sign > 0 else _negated(rows[:1]), {"agent": 0}


def _collective(model, sign, **kw):
    market, cone, rows = model
    return market, cone, rows if sign > 0 else _negated(rows), kw


PRICES = {
    "rho_i": lambda finite: _agent(_model("tree72") if finite else _arbitrage_agent(), 1),
    "rho_N_minus": lambda finite: _agent(_model("tree72") if finite else _arbitrage_agent(), -1),
    "rho_Y": lambda finite: _collective(_model("tree72" if finite else "toy71-span"), 1),
    "rho_Y_minus": lambda finite: _collective(_model("tree72" if finite else "toy71-span"), -1),
    # pi_Y has a program of its own when the cone lacks RN0, as toy71-span's does
    "pi_Y": lambda finite: _collective(_model("toy71-span" if finite else "toy71-y0T"), 1,
                                       shared_m=True),
}


def _first_entry(rows, change):
    return ((change(rows[0][0]),) + tuple(rows[0][1:]),) + tuple(rows[1:])


def negated_hedge(hedge):
    """A hedge, or a ray, with every position turned around."""
    def neg(v):
        return None if v is None else tuple(neg(x) if isinstance(x, tuple) else -x for x in v)

    return dataclasses.replace(hedge, **{f.name: neg(getattr(hedge, f.name))
                                         for f in dataclasses.fields(hedge)})


# tamper -> (finite price?, change of the certificate)
TAMPERS = {
    "hedge-entry": (True, lambda c: dataclasses.replace(
        c, hedge=dataclasses.replace(c.hedge, m=(c.hedge.m[0] - 1,) + c.hedge.m[1:]))),
    "measure-entry": (True, lambda c: dataclasses.replace(
        c, measures=_first_entry(c.measures, lambda v: v + 1))),
    "value": (True, lambda c: dataclasses.replace(c, value=c.value + Ext.of(1))),
    "ray-sign": (False, lambda c: dataclasses.replace(c, hedge=negated_hedge(c.hedge))),
    "ray-value": (False, lambda c: dataclasses.replace(c, value=Ext.of(0))),
}


@pytest.mark.parametrize("tamper", TAMPERS)
@pytest.mark.parametrize("price", PRICES)
def test_a_tampered_price_certificate_fails(price, tamper):
    finite, change = TAMPERS[tamper]
    market, cone, rows, kw = PRICES[price](finite)
    cert = price_certificate(market, cone, rows, **kw)
    assert cert.value.finite == finite
    verify_price_certificate(market, cone, rows, cert, **kw)
    with pytest.raises(InternalInvariantError):
        verify_price_certificate(market, cone, rows, change(cert), **kw)


def test_feasible_measure_rows_off_the_optimum_fail():
    # tree72's markets are incomplete: under the interior martingale measures
    # the claims' expectation is below the price, so these rows pass every
    # feasibility check and only the expectation check rejects them
    market, cone, rows = _model("tree72")
    cases = [((rows[0],), None, {"agent": 0}, detect_NA_agent(market, 0).dual_witness),
             (rows, cone, {}, find_emm_vector(market, cone).densities)]
    for claim_rows, c, kw, measures in cases:
        cert = dataclasses.replace(price_certificate(market, c, claim_rows, **kw),
                                   measures=measures)
        with pytest.raises(InternalInvariantError, match="expectation under the price measures"):
            verify_price_certificate(market, c, claim_rows, cert, **kw)


def test_a_ray_makes_the_reflected_price_minus_inf_too():
    # the report prints +inf for the sub-replication price without solving
    # its program; that program has the same ray
    for price in ("rho_i", "rho_Y"):
        market, cone, rows, kw = PRICES[price](False)
        minus = price_certificate(market, cone, _negated(rows), **kw)
        assert minus.value == Ext.neg_inf()
        verify_price_certificate(market, cone, _negated(rows), minus, **kw)


# the first price of the analysis, agent 1's rho_i, reads one more than its
# program says
_TAMPERED_PRICE = """
import dataclasses, sys
from collective_arb import cli, report
from collective_arb.ext import Ext

assert False, "asserts must be stripped"
certificate = report.price_certificate
def tampered(*args, **kwargs):
    cert = certificate(*args, **kwargs)
    return dataclasses.replace(cert, value=cert.value + Ext.of(1))
report.price_certificate = tampered
sys.exit(cli.main(["analyze", sys.argv[1]]))
"""


def test_cli_exits_2_on_a_tampered_price_certificate_under_python_O(tmp_path):
    out = _run_O(_TAMPERED_PRICE, write_example("toy71", str(tmp_path)))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == ("internal invariant violation: "
                          "hedge cost does not match the reported value\n")


def test_analysis_checks_every_price_it_prints(monkeypatch):
    # one verified certificate per program the analysis prices with
    checked = []
    check = report.verify.verify_price_certificate

    def counted(market, cone, rows, cert, **kw):
        checked.append(str(cert.value))
        check(market, cone, rows, cert, **kw)

    monkeypatch.setattr(report.verify, "verify_price_certificate", counted)
    pricing = report.analyze(parse_model(example_document("toy71-span")))["pricing"]
    assert (pricing["rho_i"], pricing["rho_Y"], pricing["pi_Y"]) == (["2", "4"], "-inf", "16/5")
    assert (pricing["pi_Y_minus"], pricing["rho_Y_minus"], pricing["rho_N_minus"]) == (
        "16/5", "+inf", "6")
    # rho_i of both agents, rho_Y (its ray also makes rho_Y_minus +inf), pi_Y
    # and pi_Y_minus on the cone without RN0, and each agent's program on the
    # negated claim for rho_N_minus
    assert checked == ["2", "4", "-inf", "16/5", "-16/5", "-2", "-4"]
