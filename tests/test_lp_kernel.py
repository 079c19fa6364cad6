"""Differential tests: the integer revised simplex kernel against the
exact-Fraction reference kernel in ``fraction_kernel.py``.

Both kernels use Bland's rule, and scaling the rows and the costs by
positive integers changes no sign or ratio comparison, so they must make the
same pivots in the same order, which a spy on each kernel's ``pivot(r, j)``
records, and return outcomes equal by repr: status, point, duals, value,
Farkas vector, ray.  Whole programs go through ``lp.solve``, which compiles
them to sparse integer columns, and ``fraction_kernel.solve``, which
compiles them to the ``Fraction`` standard form; that checks the unscaling
of the duals and the value as well as the pivots.  The integer standard
forms compare the two kernels on the same data, the integer kernel's
result, numerators with their stamps, read as Fractions by one helper
(``as_fractions``) and equal to the reference's by repr; there the spies also
read every live row of the basis inverse with its right-hand side after
each pivot: the integer kernel's sparse row over its stamp must be in
lowest terms, as ``y`` must, and equal the reference's row.
"""

import contextlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel
from collective_arb import arbitrage, lp, pricing
from collective_arb.examples_builtin import example_document, example_names
from collective_arb.model_io import load_model, parse_model
from collective_arb.report import analyze, render_json
from test_lp import small_lp

F = Fraction


@contextlib.contextmanager
def pivots(kernel, state=None):
    """The (row, column) of every pivot that ``kernel`` makes while open,
    with ``state(tab)`` read after the pivot when ``state`` is given."""
    real = kernel.pivot
    made = []

    def spy(tab, r, j, *rest):
        real(tab, r, j, *rest)
        made.append((r, j) if state is None else (r, j, state(tab)))

    with mock.patch.object(kernel, "pivot", spy):
        yield made


def inverse_rows(tab):
    """The integer kernel's rows of B^-1 with the rhs, each over its stamp,
    once every live row and ``y`` are seen to be in lowest terms over a
    positive stamp, with no stored zero."""
    for row, s in zip(tab.rows, tab.scale):
        assert s > 0 and gcd(s, *row.values()) == 1 and all(row.values()), (row, s)
    assert tab.y_scale > 0 and gcd(tab.y_scale, *tab.y) == 1, (tab.y, tab.y_scale)
    return [[F(row.get(i, 0), s) for i in range(tab.m + 1)]
            for row, s in zip(tab.rows, tab.scale)]


def reference_inverse_rows(tab):
    """The reference tableau's artificial block (B^-1) with the rhs."""
    return [row[tab.n:tab.n + tab.m] + row[-1:] for row in tab.rows]


def as_fractions(res, n):
    """The integer kernel's result over ``n`` columns in the reference's
    form: the point and the ray as dense lists, each entry its numerator
    over its stamp, and the duals, the value and the Farkas vector over
    ``y_scale``."""
    out = {"status": res["status"]}
    for key in ("point", "ray"):
        if key in res:
            out[key] = [F(*res[key].get(j, (0, 1))) for j in range(n)]
    if "duals" in res:
        out["duals"] = [F(v, res["y_scale"]) for v in res["duals"]]
        out["value"] = F(res["value"], res["y_scale"])
    if "farkas" in res:
        out["farkas"] = [F(v, res["y_scale"]) for v in res["farkas"]]
    return out


def both(A, b, c):
    """Both kernels on the integer standard form min c.x, Ax = b, x >= 0,
    with the same basis inverse after every pivot."""
    cols = [[(r, row[j]) for r, row in enumerate(A) if row[j]] for j in range(len(c))]
    with pivots(lp._RevisedSimplex, inverse_rows) as new_pivots:
        new = as_fractions(lp._solve_standard(cols, b, c, [1] * len(b)), len(c))
    with pivots(fraction_kernel._Tableau, reference_inverse_rows) as old_pivots:
        old = fraction_kernel._solve_standard([[F(v) for v in row] for row in A],
                                              [F(v) for v in b], [F(v) for v in c], len(c))
    assert new_pivots == old_pivots
    assert repr(new) == repr(old)
    return new


def agree(program):
    """Both kernels on a whole program: the same pivots in the same order,
    and outcomes equal by repr, so equal types too.  Equal outcomes alone
    would not show equal pivots: a degenerate vertex is reached by many
    pivot sequences."""
    with pivots(lp._RevisedSimplex) as new_pivots:
        new = lp.solve(program)
    with pivots(fraction_kernel._Tableau) as old_pivots:
        old = fraction_kernel.solve(program)
    assert new_pivots == old_pivots
    assert repr(new) == repr(old)
    return new


def standard_program(A, b, c):
    """min c.x s.t. Ax = b, x >= 0 as a LinearProgram."""
    return lp.LinearProgram(sense=lp.MIN, objective=tuple(c),
                            row_coeffs=tuple(tuple(row) for row in A),
                            row_rels=(lp.EQ,) * len(A), row_rhs=tuple(b),
                            lower=(lp.ZERO,) * len(c))


@settings(max_examples=300, deadline=None)
@given(small_lp())
def test_general_programs_agree_with_fraction_kernel(program):
    agree(program)


mixed = st.one_of(st.just(F(0)),
                  st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6])))


@st.composite
def standard_form(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    A = [[draw(mixed) for _ in range(n)] for _ in range(m)]
    b = [abs(draw(mixed)) for _ in range(m)]
    c = [draw(mixed) for _ in range(n)]
    return A, b, c


@settings(max_examples=400, deadline=None)
@given(standard_form())
def test_rational_standard_forms_agree_with_fraction_kernel(data):
    agree(standard_program(*data))


@st.composite
def integer_standard_form(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(0, 6)) for _ in range(m)]
    c = [draw(entry) for _ in range(n)]
    return A, b, c


@settings(max_examples=300, deadline=None)
@given(integer_standard_form())
def test_integer_standard_forms_keep_the_reference_inverse(data):
    both(*data)


@st.composite
def mixed_program(draw):
    """A general program whose rows, rhs and objective mix denominators."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    return lp.LinearProgram(
        sense=draw(st.sampled_from([lp.MIN, lp.MAX])),
        objective=tuple(draw(mixed) for _ in range(n)),
        row_coeffs=tuple(tuple(draw(mixed) for _ in range(n)) for _ in range(m)),
        row_rels=tuple(draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])) for _ in range(m)),
        row_rhs=tuple(draw(mixed) for _ in range(m)),
        lower=tuple(draw(st.sampled_from([None, lp.ZERO])) for _ in range(n)))


@settings(max_examples=400, deadline=None)
@given(mixed_program())
def test_mixed_denominator_programs_agree_with_fraction_kernel(program):
    agree(program)


@pytest.mark.parametrize("name", example_names())
def test_builtin_analysis_programs_agree_with_fraction_kernel(name):
    programs = []
    with lp.observe(lambda program, outcome: programs.append(program)):
        analyze(parse_model(example_document(name)))
    assert programs
    with pivots(lp._RevisedSimplex) as made:
        for program in programs:
            agree(program)
    assert made


def test_builtin_programs_skip_rows():
    """A pivot leaves each row with a zero in the entering column
    untouched; the built-in analyses take that path."""
    skipped = 0
    real = lp._RevisedSimplex.pivot

    def spy(tab, r, j, col, d):
        nonlocal skipped
        skipped += sum(1 for rr, f in enumerate(col) if rr != r and not f)
        real(tab, r, j, col, d)

    with mock.patch.object(lp._RevisedSimplex, "pivot", spy):
        for name in example_names():
            analyze(parse_model(example_document(name)))
            if skipped:
                break
    assert skipped


LARGE = pathlib.Path(__file__).parent / "golden" / "large"


def test_large_tree_report_is_pinned_and_its_integers_stay_small():
    """The analysis of a T=4, N=3 binomial tree whose agents share one
    measure: there is no collective arbitrage, and each agent's market is
    complete, so exact eliminations of equality rows give every interior
    point, the arbitrage search's answer and every agent's price, and the
    analysis solves 2 programs, rho_Y's and the canonical exchange, the
    largest with 99 rows.  With the eliminations read as below full rank,
    it solves the 14 programs it solved before them: the interior points
    (up to 65 rows), the agents' and the pooled market's searches and
    prices as well.  Both reports match the golden byte for byte, and every
    integer the kernel stores after a pivot (row entries, stamps, ``y`` and
    its stamp) fits in 64 bits, since a row in lowest terms is as large as
    its values, not as the basis determinant.  The model is
    ``bench/trees.py``'s draw, made with

        python3 -c 'import json, random, sys; sys.path.insert(0, "bench"); import trees; print(json.dumps(trees.tree_doc(random.Random("x/4/3"), 4, 3, "shared", {"kind": "Y0", "t": 3}), indent=2))' > tests/golden/large/tree-T4N3-shared.json

    and the golden is its ``render_json(analyze(load_model(...)))``."""
    widest = 0
    real = lp._RevisedSimplex.pivot

    def spy(tab, r, j, col, d):
        nonlocal widest
        real(tab, r, j, col, d)
        stored = [tab.y_scale, *tab.y, *tab.scale, *(v for row in tab.rows for v in row.values())]
        widest = max(widest, *(v.bit_length() for v in stored))

    for rank_below_n, programs in ((False, 2), (True, 14)):
        solved = []
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(lp._RevisedSimplex, "pivot", spy))
            stack.enter_context(lp.observe(lambda program, outcome: solved.append(program)))
            for module in (arbitrage, pricing) if rank_below_n else ():
                stack.enter_context(mock.patch.object(module, "solve_equalities",
                                                      lambda n, rows: None))
            report = render_json(analyze(load_model(str(LARGE / "tree-T4N3-shared.json"))))
        assert report == (LARGE / "tree-T4N3-shared.report.json").read_text(encoding="utf-8")
        assert len(solved) == programs
        assert max(program.n_rows for program in solved) == 99
    assert 0 < widest <= 64, widest


@pytest.mark.parametrize("name", ["tree-T4N3-shared", "tree-T6N3-shared"])
def test_elimination_integers_stay_small_on_large_trees(name):
    """Every row the exact elimination of equality rows stores, scaled to
    integers in lowest terms or cleared against a pivot, holds integers of
    at most 64 bits on the large shared trees, where it fixes every interior
    point and every agent's price (12 bits at T=4 and 20 at T=6 when
    written), and the solutions it returns have numerators and common
    denominators as small."""
    widest = 0
    real, eliminate = lp._lowest, lp.solve_equalities

    def spy(row):
        nonlocal widest
        row = real(row)
        widest = max([widest, *(v.bit_length() for v in row.values())])
        return row

    def solutions(n, rows):
        nonlocal widest
        x = eliminate(n, rows)
        if isinstance(x, tuple):
            widest = max([widest, *(v.numerator.bit_length() for v in x),
                          *(v.denominator.bit_length() for v in x)])
        return x

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(lp, "_lowest", spy))
        for module in (arbitrage, pricing):
            stack.enter_context(mock.patch.object(module, "solve_equalities", solutions))
        analyze(load_model(str(LARGE / f"{name}.json")))
    assert 0 < widest <= 64, widest


def test_redundant_rows_are_dropped_alike():
    res = both([[1, 1, 0], [2, 2, 0], [0, 1, 1]], [2, 4, 1], [1, 2, 0])
    assert res["status"] == "optimal" and res["duals"][1] == 0


def test_negative_drive_out_pivot():
    # phase 1 leaves the second artificial basic at zero; the only nonzero
    # of its row is -4, so driving it out pivots on a negative entry (the
    # ratio test pivots only on positive ones)
    real = lp._RevisedSimplex.pivot
    pivots = []

    def spy(tab, r, j, col, d):
        pivots.append(col[r])
        real(tab, r, j, col, d)

    with mock.patch.object(lp._RevisedSimplex, "pivot", spy):
        res = both([[2, -2], [0, -2]], [2, 0], [2, 0])
    assert any(p < 0 for p in pivots)
    assert res == {"status": "optimal", "point": [1, 0], "duals": [1, -1], "value": 2}


def test_mixed_denominators():
    # the rows need L = 12 and the objective K = 12 to become integers
    res = agree(standard_program([[F(1, 2), F(2, 3), 0], [F(3, 4), 0, F(-5, 6)]],
                                 [F(5, 6), F(1, 3)], [F(1, 3), F(-1, 2), F(1, 4)]))
    assert res.status == "optimal"


def test_infeasible_farkas_vector():
    res = both([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert res["status"] == "infeasible"


def test_unbounded_ray():
    res = both([[1, -1, 0], [0, 1, -1]], [1, 0], [-1, 0, 0])
    assert res["status"] == "unbounded" and res["ray"] == [1, 1, 1]


_PHASE1_NOT_OPTIMAL = """
from collective_arb import lp
from collective_arb.errors import InternalInvariantError
lp._RevisedSimplex.run = lambda self: ("unbounded", (0, [1]))
program = lp.LinearProgram(sense=lp.MIN, objective=(lp.ONE,), row_coeffs=((lp.ONE,),),
                           row_rels=(lp.GE,), row_rhs=(lp.ONE,), lower=(lp.ZERO,))
try:
    lp.solve(program)
except InternalInvariantError as e:
    print("raised:", e)
"""


def test_invariant_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _PHASE1_NOT_OPTIMAL],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.startswith("raised: phase 1"), out.stdout + out.stderr
