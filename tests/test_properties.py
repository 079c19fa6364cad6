"""Randomized invariant battery at a moderate sample size (the acceptance
suite reruns it on >= 500 instances), plus converse-failure seeds."""

from fractions import Fraction

import pytest

from collective_arb import lp
from collective_arb.arbitrage import detect_NA_agent, detect_NA_global, detect_NCA
from collective_arb.cones import make_Y0
from collective_arb.ext import Ext, ext_max, ext_sum
from collective_arb.randgen import random_claims, random_cone, random_market, seeded_rng

from instance_checks import check_instance
from test_cones import span_cone

N_INSTANCES = 60


@pytest.fixture(autouse=True)
def audit_all_solves():
    lp.set_audit(True)
    yield
    lp.set_audit(False)


def test_random_instance_battery():
    rng = seeded_rng()
    cover = {}
    for _ in range(N_INSTANCES):
        market = random_market(rng)
        cone, info = random_cone(rng, market)
        claims = random_claims(rng, market)
        hit = check_instance(market, cone, info, claims, rng)
        for k, v in hit.items():
            cover[k] = cover.get(k, 0) + bool(v)
    # the battery must actually exercise both sides of the equivalences
    assert cover["nca_holds"] > 0 and cover["nca_holds"] < N_INSTANCES
    assert cover["emm_equiv"] > 0
    assert cover["t0_cone"] > 0
    assert cover["terminal_y0"] > 0
    assert cover["reflected"] > 0
    assert cover["cash_groups"] > 0
    assert cover["replicated"] > 0
    # every outcome of the elimination of an interior point's equality rows
    for family in ("agent", "polar"):
        for outcome in ("positive", "zero", "empty", "rank"):
            assert cover[f"{family}_{outcome}"] > 0, (family, outcome)


def test_converse_na_to_nca_fails(toy_market):
    """A market without global arbitrage-freedom where collective
    arbitrage-freedom still holds (deterministic transfers only)."""
    assert detect_NA_global(toy_market).found
    assert not detect_NCA(toy_market, make_Y0(toy_market, 0)).found


def test_converse_nca_to_na_i_fails(toy_market):
    """All single markets are arbitrage-free, yet terminal zero-sum
    transfers create a collective arbitrage."""
    assert all(not detect_NA_agent(toy_market, i).found for i in range(2))
    assert detect_NCA(toy_market, make_Y0(toy_market, 1)).found


def test_converse_seeds_span_cone(toy_market):
    """Collective arbitrage-freedom for a cone need not survive adding the
    deterministic transfers."""
    from collective_arb.cones import cone_add

    cone = span_cone(toy_market)
    assert not detect_NCA(toy_market, cone).found
    widened = cone_add(toy_market, cone, make_Y0(toy_market, 0))
    assert detect_NCA(toy_market, widened).found


def test_ext_arithmetic_conventions():
    assert ext_sum([Ext.of(2), Ext.neg_inf(), Ext.pos_inf()]) == Ext.neg_inf()
    assert ext_sum([Ext.of(2), Ext.pos_inf()]) == Ext.pos_inf()
    assert ext_max([Ext.neg_inf(), Ext.of(3)]) == Ext.of(3)
    assert Ext.neg_inf() < Ext.of(-10 ** 9) < Ext.pos_inf()
    assert -Ext.neg_inf() == Ext.pos_inf()
    assert Ext.of(3) * 2 == Ext.of(6)
    assert Ext.neg_inf() * -1 == Ext.pos_inf()
    assert str(Ext.of("5/6")) == "5/6"


def test_ext_hash_agrees_with_equality():
    # a finite Ext equals its Fraction, so a set or a dict key must not
    # tell them apart
    for v in (1, Fraction(5, 6), -3):
        assert Ext.of(v) == v and hash(Ext.of(v)) == hash(v)
    assert len({Ext.of(1), 1, Fraction(1), Ext.of("1")}) == 1
    assert len({Ext.neg_inf(), Ext.pos_inf(), Ext.of(0), 0}) == 3
