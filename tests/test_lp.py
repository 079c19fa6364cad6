"""Tests for the exact-rational LP kernel.

The independent oracle used here enumerates basic solutions: pick n active
constraints/bounds, solve the exact linear system, keep feasible points,
and take the best objective.  No simplex machinery is shared with it.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from collective_arb import lp as lp_module
from collective_arb.errors import InternalInvariantError
from collective_arb.lp import (EQ, GE, INCONSISTENT, LE, MAX, MIN, Infeasible, LinearProgram,
                               LPBuilder, Optimal, Unbounded, solve, solve_equalities)
from collective_arb.verify import check_lp_outcome

F = Fraction


def lp(sense, objective, rows, lower):
    """The program of ``rows`` (coefficients, relation, rhs), each variable
    free (lower bound None) or nonnegative (lower bound 0)."""
    coeffs = tuple(tuple(F(a) for a in r[0]) for r in rows)
    rels = tuple(r[1] for r in rows)
    rhs = tuple(F(r[2]) for r in rows)
    return LinearProgram(sense=sense, objective=tuple(F(c) for c in objective),
                         row_coeffs=coeffs, row_rels=rels, row_rhs=rhs,
                         lower=tuple(None if lo is None else F(lo) for lo in lower))


def solve_checked(program):
    out = solve(program)
    check_lp_outcome(program, out)
    return out


def test_box_max():
    out = solve_checked(lp(MAX, [1], [([1], LE, 1)], [0]))
    assert isinstance(out, Optimal) and out.value == 1 and out.point == (F(1),)


def test_unbounded_above():
    out = solve_checked(lp(MAX, [1], [], [0]))
    assert isinstance(out, Unbounded)


def test_hedging_toy():
    # min m with m + h >= 3 and m - h >= 1: basic-solution enumeration over
    # the two constraints gives m = 2 at h = 1.
    out = solve_checked(lp(MIN, [1, 0],
                           [([1, 1], GE, 3), ([1, -1], GE, 1)],
                           [None, None]))
    assert isinstance(out, Optimal) and out.value == 2
    assert out.point == (F(2), F(1))


def test_infeasible_simple():
    out = solve_checked(lp(MIN, [0], [([1], GE, 2), ([1], LE, 1)], [None]))
    assert isinstance(out, Infeasible)


def test_infeasible_bounds_only():
    # the empty box 3 <= x <= 2, written as rows on a free variable
    out = solve_checked(lp(MIN, [1], [([1], GE, 3), ([1], LE, 2)], [None]))
    assert isinstance(out, Infeasible)


def test_equality_and_range_bounds():
    # 0 <= x, y <= 2: nonnegative variables with their upper bounds as rows
    out = solve_checked(lp(MIN, [1, 1], [([1, 1], EQ, 3), ([1, 0], LE, 2), ([0, 1], LE, 2)],
                           [0, 0]))
    assert isinstance(out, Optimal) and out.value == 3


@pytest.mark.parametrize("bounds", [F(1)])
def test_only_free_and_nonnegative_variables(bounds):
    # a lower bound is None or 0, and there are no upper bounds
    with pytest.raises(ValueError):
        lp(MIN, [1], [], [bounds])


def _one_variable(lower):
    return LinearProgram(sense=MIN, objective=(F(1),), row_coeffs=((F(1),),),
                         row_rels=(GE,), row_rhs=(F(2),), lower=(lower,))


@pytest.mark.parametrize("lower", [0.0, False, F(-1), "0"])
def test_a_lower_bound_is_an_exact_zero(lower):
    # a float or a bool equal to 0 is not the exact bound 0, which the
    # solver and the audit would take it for
    with pytest.raises(ValueError):
        _one_variable(lower)


@pytest.mark.parametrize("lower", [None, 0, F(0)])
def test_free_and_zero_lower_bounds_are_accepted(lower):
    assert solve_checked(_one_variable(lower)).value == 2


@pytest.mark.parametrize("entry", [{"objective": (0.5,)}, {"row_rhs": (1.5,)},
                                   {"row_coeffs": ((True,),)}, {"row_coeffs": (("1",),)}])
def test_every_number_is_an_int_or_a_fraction(entry):
    # a float reached the compile, which raised AttributeError, and a bool
    # coefficient solved as 1
    fields = dict(sense=MIN, objective=(F(1),), row_coeffs=((F(1),),), row_rels=(GE,),
                  row_rhs=(F(2),), lower=(None,))
    with pytest.raises(ValueError, match="entry 0 is"):
        LinearProgram(**{**fields, **entry})


def test_redundant_rows_are_fine():
    out = solve_checked(lp(MIN, [1, 1],
                           [([1, 1], EQ, 2), ([2, 2], EQ, 4), ([1, 1], GE, 2)],
                           [0, 0]))
    assert isinstance(out, Optimal) and out.value == 2


def test_max_sense_value_sign():
    out = solve_checked(lp(MAX, [2, -1], [([1, 1], LE, 4), ([1, 0], LE, 3), ([0, 1], LE, 3)],
                           [0, 0]))
    assert isinstance(out, Optimal) and out.value == 6 and out.point == (F(3), F(0))


def test_free_variable_negative_solution():
    out = solve_checked(lp(MIN, [1], [([1], GE, -5)], [None]))
    assert isinstance(out, Optimal) and out.value == -5


def test_determinism_bit_for_bit():
    program = lp(MIN, [1, 2, 0],
                 [([1, 1, 1], GE, 2), ([1, -1, 0], LE, 1), ([0, 1, 1], EQ, 1),
                  ([0, 0, 1], LE, 5)],
                 [0, None, 0])
    assert repr(solve(program)) == repr(solve(program))


def test_builder_round_trip():
    b = LPBuilder(MIN)
    m = b.var("m", obj=1)
    h = b.var("h")
    b.row("up", {m: 1, h: 1}, GE, 3)
    b.row("down", {m: 1, h: -1}, GE, 1)
    out = b.solve()
    assert out.status == "optimal" and out.value == 2
    assert out.point[h] == 1
    assert sum(out.row_duals) == 1


def test_to_text_mentions_rows_and_bounds():
    program = lp(MIN, [1, 1], [([1, 2], LE, 3)], [0, None])
    text = program.to_text()
    assert "subject to" in text and "free" in text and "<= 3" in text


# ---------------------------------------------------------------------------
# brute-force oracle on random small programs
# ---------------------------------------------------------------------------


def _solve_linear_system(rows, rhs):
    """Exact Gaussian elimination; returns one solution or None."""
    m, n = len(rows), len(rows[0])
    a = [list(map(F, row)) + [F(r)] for row, r in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for ccol in range(n):
        piv = next((i for i in range(r, m) if a[i][ccol] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][ccol] for v in a[r]]
        for i in range(m):
            if i != r and a[i][ccol] != 0:
                f = a[i][ccol]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(ccol)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [F(0)] * n
    for i, c in enumerate(piv_cols):
        x[i if False else c] = a[i][n]
    return x


def candidate_rows(program):
    """(coefficients, rhs) of every row and of every lower bound, as rows."""
    n = program.n_vars
    units = [(tuple(F(1) if k == i else F(0) for k in range(n)), lo)
             for i, lo in enumerate(program.lower) if lo is not None]
    return list(zip(program.row_coeffs, program.row_rhs)) + units


def rank(rows):
    """Exact rank of rational rows, by Gaussian elimination."""
    a, r = [list(row) for row in rows], 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def brute_force_min(program):
    """Enumerate basic solutions of all active-set choices; None if none
    feasible."""
    n = program.n_vars
    cand_rows = candidate_rows(program)

    def feasible(x):
        for j in range(program.n_rows):
            lhs = sum(c * v for c, v in zip(program.row_coeffs[j], x))
            rel, rhs = program.row_rels[j], program.row_rhs[j]
            if rel == LE and lhs > rhs:
                return False
            if rel == GE and lhs < rhs:
                return False
            if rel == EQ and lhs != rhs:
                return False
        for i in range(n):
            if program.lower[i] is not None and x[i] < program.lower[i]:
                return False
        return True

    sgn = 1 if program.sense == MIN else -1
    best = None
    for k in range(0, n + 1):
        for combo in itertools.combinations(range(len(cand_rows)), k):
            rows = [cand_rows[i][0] for i in combo]
            rhs = [cand_rows[i][1] for i in combo]
            if k == 0:
                x = [F(0)] * n
            else:
                x = _solve_linear_system(rows, rhs)
                if x is None:
                    continue
            if feasible(x):
                val = sgn * sum(c * v for c, v in zip(program.objective, x))
                if best is None or val < best:
                    best = val
    return best


rat = st.integers(-4, 4).map(F)


@st.composite
def small_lp(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    sense = draw(st.sampled_from([MIN, MAX]))
    objective = tuple(draw(rat) for _ in range(n))
    rows, rels, rhs = [], [], []
    for _ in range(m):
        rows.append(tuple(draw(rat) for _ in range(n)))
        rels.append(draw(st.sampled_from([LE, GE, EQ])))
        rhs.append(draw(rat))
    # the kernel takes free and nonnegative variables; a box or a sign
    # bound x <= 0 becomes rows on a free variable
    lower = []
    for i in range(n):
        kind = draw(st.sampled_from(["pos", "free", "box", "neg"]))
        lower.append(F(0) if kind == "pos" else None)
        unit = tuple(F(1) if k == i else F(0) for k in range(n))
        if kind == "neg":
            rows.append(unit)
            rels.append(LE)
            rhs.append(F(0))
        elif kind == "box":
            lo = draw(rat)
            rows += [unit, unit]
            rels += [GE, LE]
            rhs += [lo, lo + draw(st.integers(0, 5))]
    return LinearProgram(sense=sense, objective=objective,
                         row_coeffs=tuple(rows), row_rels=tuple(rels),
                         row_rhs=tuple(rhs), lower=tuple(lower))


@settings(max_examples=250, deadline=None)
@given(small_lp())
def test_random_lp_against_bruteforce(program):
    out = solve(program)
    check_lp_outcome(program, out)
    oracle = brute_force_min(program)
    if isinstance(out, Infeasible):
        assert oracle is None
    elif isinstance(out, Optimal):
        sgn = 1 if program.sense == MIN else -1
        assert oracle == sgn * out.value
    elif rank(row for row, _ in candidate_rows(program)) == program.n_vars:
        # the certificate proves the program feasible and unbounded; with the
        # rows and the lower bounds of full column rank, its feasible set has
        # a vertex, a basic point the oracle enumerates
        assert oracle is not None


def _scipy_linprog(program, objective):
    """scipy's HiGHS on the program's data with a MIN objective."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for j in range(program.n_rows):
        row = [float(v) for v in program.row_coeffs[j]]
        rel, rhs = program.row_rels[j], float(program.row_rhs[j])
        if rel == LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif rel == GE:
            a_ub.append([-v for v in row])
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [(None if lo is None else float(lo), None) for lo in program.lower]
    return linprog(objective, A_ub=a_ub or None, b_ub=b_ub or None,
                   A_eq=a_eq or None, b_eq=b_eq or None,
                   bounds=bounds, method="highs")


# unbounded (point 0, ray (1, -1, 1)), but HiGHS's presolve in scipy 1.17.1
# reports it infeasible
_HIGHS_CALLS_INFEASIBLE = lp(MIN, [0, 1, 0],
                             [([1, 1, 1], GE, -1), ([0, -1, -1], GE, 0), ([1, 0, -1], LE, 0)],
                             [0, None, 0])


@settings(max_examples=150, deadline=None)
@given(small_lp())
@example(_HIGHS_CALLS_INFEASIBLE)
def test_random_lp_against_scipy(program):
    """Float sanity oracle: our exact certificate must check, and scipy's
    HiGHS on the same data must agree on status and (approximately) on the
    optimal value.  HiGHS can misreport a status, so where it disagrees the
    certificate decides, and HiGHS on the zero-objective feasibility problem
    must still agree on whether the program is feasible."""
    out = solve(program)
    check_lp_outcome(program, out)
    sgn = 1 if program.sense == MIN else -1
    res = _scipy_linprog(program, [sgn * float(v) for v in program.objective])
    if isinstance(out, Optimal) and res.status == 0:
        assert abs(res.fun - float(sgn * out.value)) < 1e-7
    elif res.status != {Optimal: 0, Infeasible: 2, Unbounded: 3}[type(out)]:
        feasibility = _scipy_linprog(program, [0.0] * program.n_vars)
        assert feasibility.status == (2 if isinstance(out, Infeasible) else 0)


# ---------------------------------------------------------------------------
# exact elimination of equality rows
# ---------------------------------------------------------------------------


def test_elimination_finds_the_one_solution():
    assert solve_equalities(2, [({0: 1, 1: 1}, 3), ({0: 1, 1: -1}, 1)]) == (F(2), F(1))
    # negative and Fraction coefficients and right-hand sides
    rows = [({0: F(-1, 2), 1: 3}, F(7, 3)), ({0: 4, 1: F(-5, 6)}, -2)]
    x = solve_equalities(2, rows)
    assert all(sum(a * x[j] for j, a in c.items()) == r for c, r in rows)
    assert all(type(v) is Fraction for v in x)


def test_elimination_reports_inconsistent_rows():
    assert solve_equalities(2, [({0: 1, 1: 1}, 3), ({0: 2, 1: 2}, 7)]) is INCONSISTENT
    assert solve_equalities(1, [({}, 1)]) is INCONSISTENT
    # a row checked by substitution once the rank is full
    assert solve_equalities(1, [({0: 2}, 1), ({0: 4}, 3)]) is INCONSISTENT


def test_elimination_below_full_rank_gives_none():
    # more rows than unknowns, still of rank 1
    rows = [({0: 1, 1: 1}, 3), ({0: 2, 1: 2}, 6), ({0: F(-1, 3), 1: F(-1, 3)}, -1)]
    assert solve_equalities(2, rows) is None
    assert solve_equalities(2, [({0: 1}, 1)]) is None


def test_elimination_skips_zero_and_duplicate_rows():
    rows = [({}, 0), ({0: 0, 1: 0}, 0), ({0: 1, 1: 2}, 5), ({0: 1, 1: 2}, 5), ({1: 1}, 2)]
    assert solve_equalities(2, rows) == (F(1), F(2))


def test_elimination_substitution_guard_fires(monkeypatch):
    """A wrong solution never leaves the elimination: a clearing step that
    corrupts its rhs gives a point that misses the rows, and the guard
    raises, also under python -O."""
    clear = lp_module._clear

    def corrupt(row, c, prow):
        out = clear(row, c, prow)
        out[2] = out.get(2, 0) + 1  # key n = 2 holds the rhs
        return out

    monkeypatch.setattr(lp_module, "_clear", corrupt)
    with pytest.raises(InternalInvariantError, match="does not meet its rows"):
        solve_equalities(2, [({0: 1, 1: 1}, 3), ({0: 1, 1: -1}, 1)])


def _reference_equalities(n, rows):
    """The brute-force answer of dense Fraction elimination: INCONSISTENT,
    None below rank n, else the one solution."""
    dense = [[F(c.get(j, 0)) for j in range(n)] for c, _ in rows]
    if _solve_linear_system(dense, [F(r) for _, r in rows]) is None:
        return INCONSISTENT
    if rank(dense) < n:
        return None
    return tuple(_solve_linear_system(dense, [F(r) for _, r in rows]))


def test_elimination_matches_brute_force_on_random_systems():
    from collective_arb.randgen import seeded_rng

    rng = seeded_rng()
    seen = {"solution": 0, "inconsistent": 0, "rank": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        base = [{j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.7}
                for _ in range(m)]
        # some rows are combinations of earlier ones, to lower the rank
        rows = []
        for c in base:
            if rows and rng.random() < 0.3:
                k, a = rng.randrange(len(rows)), F(rng.randint(-2, 2), rng.randint(1, 3))
                c = {j: a * v for j, v in rows[k][0].items()}
                rhs = a * rows[k][1] + (rng.randint(-1, 1) if rng.random() < 0.3 else 0)
            else:
                rhs = F(rng.randint(-5, 5), rng.randint(1, 4))
            rows.append((c, rhs))
        got, want = solve_equalities(n, rows), _reference_equalities(n, rows)
        assert got == want, (n, rows)
        seen["inconsistent" if got is INCONSISTENT else "rank" if got is None
             else "solution"] += 1
    assert all(v > 10 for v in seen.values()), seen
