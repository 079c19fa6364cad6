"""Mutation tests: the integer LP checker against the dense ``Fraction``
reference checker in ``fraction_checker.py``.

Seeded random programs give certificates of every outcome kind.  Both
checkers must accept each certificate the kernel produces, and for every
mutant (one entry of one certificate vector, or the value, moved by +1, -1
or +1/3, or its sign flipped) they must give the same verdict: both accept,
or both reject with the same message.
"""

import dataclasses
from fractions import Fraction

import pytest

import fraction_checker
from collective_arb import lp
from collective_arb.errors import InternalInvariantError
from collective_arb.randgen import seeded_rng
from collective_arb.verify import check_lp_outcome

F = Fraction

VECTORS = {
    lp.Optimal: ("point", "row_duals"),
    lp.Infeasible: ("farkas_rows", "farkas_lower", "farkas_upper"),
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
        lower=tuple(rng.choice([None, F(0)]) for _ in range(n)),
        upper=(None,) * n)


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
