"""Mutation tests: the integer certificate checkers against the dense
``Fraction`` reference checkers in ``fraction_checker.py``.

Seeded random programs give LP certificates of every outcome kind; the
built-in models and seeded random instances give market-level ones
(witnesses, arbitrages, measure vectors, hedges, fairness results and
price certificates).  Both checkers must accept each certificate the engine
produces, and for every mutant (one entry of one certificate vector, or the
value, moved by +1, -1 or +1/3, or its sign flipped) they must give the
same verdict: both accept, or both reject with the same message.
"""

import dataclasses
from fractions import Fraction

import pytest

import fraction_checker
from collective_arb import lp, verify
from collective_arb.arbitrage import (detect_NA_agent, detect_NA_global, detect_NCA,
                                      find_emm_vector)
from collective_arb.errors import InternalInvariantError
from collective_arb.examples_builtin import example_document, example_names
from collective_arb.ext import Ext
from collective_arb.model_io import parse_model
from collective_arb.pricing import fairness_allocation, price_certificate, rho_Y_plus
from collective_arb.randgen import random_claims, random_cone, random_market, seeded_rng
from collective_arb.verify import check_lp_outcome

F = Fraction

VECTORS = {
    lp.Optimal: ("point", "row_duals"),
    lp.Infeasible: ("farkas_rows", "farkas_lower"),
    lp.Unbounded: ("point", "ray"),
}


def _entry(rng):
    if rng.random() < 0.4:
        return F(0)
    return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))


def _random_program(rng):
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    return lp.LinearProgram(
        sense=rng.choice([lp.MIN, lp.MAX]),
        objective=tuple(_entry(rng) for _ in range(n)),
        row_coeffs=tuple(tuple(_entry(rng) for _ in range(n)) for _ in range(m)),
        row_rels=tuple(rng.choice([lp.LE, lp.EQ, lp.GE]) for _ in range(m)),
        row_rhs=tuple(_entry(rng) for _ in range(m)),
        lower=tuple(rng.choice([None, F(0)]) for _ in range(n)))


def _programs_by_kind(per_kind=30):
    rng = seeded_rng()
    found = {kind: [] for kind in VECTORS}
    for _ in range(20_000):
        program = _random_program(rng)
        out = lp.solve(program)
        if len(found[type(out)]) < per_kind:
            found[type(out)].append((program, out))
        if all(len(v) == per_kind for v in found.values()):
            return found
    raise AssertionError(f"too few programs of some kind: "
                         f"{ {k.__name__: len(v) for k, v in found.items()} }")


PROGRAMS = _programs_by_kind()


def _verdict(check, program, outcome):
    try:
        check(program, outcome)
    except InternalInvariantError as exc:
        return str(exc)
    return None


def _mutants(outcome):
    fields = VECTORS[type(outcome)] + (("value",) if isinstance(outcome, lp.Optimal) else ())
    for field in fields:
        values = getattr(outcome, field)
        vector = isinstance(values, tuple)
        for k, v in enumerate(values if vector else (values,)):
            for new in {v + 1, v - 1, v + F(1, 3), -v} - {v}:
                if vector:
                    new = values[:k] + (new,) + values[k + 1:]
                yield field, k, dataclasses.replace(outcome, **{field: new})


@pytest.mark.parametrize("kind", VECTORS, ids=lambda k: k.__name__)
def test_both_checkers_accept_every_kernel_certificate(kind):
    for program, out in PROGRAMS[kind]:
        check_lp_outcome(program, out)
        fraction_checker.check_lp_outcome(program, out)


@pytest.mark.parametrize("kind", VECTORS, ids=lambda k: k.__name__)
def test_both_checkers_judge_every_mutant_alike(kind):
    rejected = total = 0
    for program, out in PROGRAMS[kind]:
        for field, k, mutant in _mutants(out):
            new = _verdict(check_lp_outcome, program, mutant)
            old = _verdict(fraction_checker.check_lp_outcome, program, mutant)
            assert new == old, (program, field, k, mutant)
            total += 1
            rejected += new is not None
    # most single-entry changes break a certificate; some keep it valid, such
    # as a point moved along an optimal face or a ray scaled by its sign
    assert total > 300 and rejected > total // 2, (rejected, total)


# ---------------------------------------------------------------------------
# market-level checkers
# ---------------------------------------------------------------------------


def _moves(v):
    return {v + 1, v - 1, v + F(1, 3), -v} - {v}


def _entry_mutants(x):
    """Copies of a certificate with one rational entry (or a finite price)
    moved by +1, -1 or +1/3, or its sign flipped."""
    if isinstance(x, Ext):
        for v in _moves(x.value) if x.finite else ():
            yield Ext.of(v)
    elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        yield from _moves(x)
    elif isinstance(x, tuple):
        for k, item in enumerate(x):
            for new in _entry_mutants(item):
                yield x[:k] + (new,) + x[k + 1:]
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            for new in _entry_mutants(getattr(x, f.name)):
                yield dataclasses.replace(x, **{f.name: new})


def _negated(rows):
    return tuple(tuple(-v for v in row) for row in rows)


def _market_certificates(market, cone, claims):
    """(check, certificate) for every market-level certificate of one
    analysis; check(checker_module, certificate) runs one checker."""
    out = []

    def arbitrage_or_witness(cert, **where):
        if cert.found:
            out.append((lambda chk, c: chk.verify_arbitrage_found(market, c, **where), cert))
        elif "cone" in where:
            out.append((lambda chk, c: chk.verify_polar_witness(market, cone, c),
                        cert.dual_witness))
        else:
            out.append((lambda chk, c: chk.verify_single_market_witness(market, c, **where),
                        cert.dual_witness[0]))

    for i in range(market.n_agents):
        arbitrage_or_witness(detect_NA_agent(market, i), agent=i)
    arbitrage_or_witness(detect_NA_global(market))
    arbitrage_or_witness(detect_NCA(market, cone), cone=cone)
    mv = find_emm_vector(market, cone)
    if mv is not None:
        out.append((lambda chk, c: chk.verify_measure_vector(market, cone, c), mv))

    programs = [(None, (claims.rows[i],), {"agent": i}) for i in range(market.n_agents)]
    programs += [(cone, claims.rows, {}), (cone, claims.rows, {"shared_m": True})]
    for c, rows, kw in programs:
        for signed in (rows, _negated(rows)):
            cert = price_certificate(market, c, signed, **kw)
            out.append((lambda chk, x, c=c, signed=signed, kw=kw:
                        chk.verify_price_certificate(market, c, signed, x, **kw), cert))
    value, opt = rho_Y_plus(market, cone, claims)
    if opt is not None:
        out.append((lambda chk, x: chk.verify_primal_optimizer(market, cone, claims, x,
                                                               value.value), opt))
        if cone.meta.contains_RN0:
            fr = fairness_allocation(market, cone, claims)
            out.append((lambda chk, x: chk.verify_fairness(market, cone, claims, x), fr))
    return out


def _instances():
    for name in example_names():
        model = parse_model(example_document(name))
        yield name, model.market, model.exchange, model.claims
    rng = seeded_rng()
    for k in range(6):
        market = random_market(rng)
        cone, _ = random_cone(rng, market)
        yield f"random{k}", market, cone, random_claims(rng, market)


MARKET_CASES = [(name, *case) for name, *instance in _instances()
                for case in _market_certificates(*instance)]


def test_both_market_checkers_accept_every_engine_certificate():
    for name, check, cert in MARKET_CASES:
        check(verify, cert)
        check(fraction_checker, cert)


def test_both_market_checkers_judge_every_mutant_alike():
    rejected = total = 0
    for name, check, cert in MARKET_CASES:
        for mutant in _entry_mutants(cert):
            new = _verdict(check, verify, mutant)
            old = _verdict(check, fraction_checker, mutant)
            assert new == old, (name, cert, mutant)
            total += 1
            rejected += new is not None
    assert total > 1000 and rejected > total // 2, (rejected, total)
