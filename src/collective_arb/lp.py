"""Exact rational linear programming with verifiable certificates.

Solves min/max problems over rational data with a two-phase primal simplex
using Bland's rule (termination under the heavy degeneracy typical of tree
markets).  Every outcome carries an exact certificate:

* ``Optimal``    -- primal point plus row duals; complementary slackness and
                    sign conditions re-verify with plain arithmetic.
* ``Infeasible`` -- Farkas multipliers over rows and lower bounds combining
                    the constraints into an impossible ``0 > 0`` inequality.
* ``Unbounded``  -- a feasible point plus an improving feasible ray.

The kernel is a revised simplex on Python integers.  ``_solve_general``
compiles each program straight to sparse integer columns and an integer
right-hand side, each row scaled by its own factor ``L_r > 0`` and the
objective by one ``K > 0``, and it alone knows them: it divides them back
out of the duals, the Farkas vector and the value.  ``_solve_standard`` and
``_RevisedSimplex`` see and hand back integers only.  The state is the
basis inverse ``B^-1`` with the right-hand side, kept as sparse integer
rows, each in lowest terms over its own positive stamp, so that its
integers are as large as the values they stand for.  A pivot updates only
the rows with a nonzero in the entering column.  The columns of ``A`` are
never updated: Bland's rule prices them on demand and computes only the
entering column for the ratio test.  Points, duals, Farkas vectors and rays
are converted to `fractions.Fraction` once, at the end: one per nonzero
entry, from integers combined first, and ``ZERO`` per zero entry.  There
are no tolerances anywhere.
Results are deterministic: identical programs yield identical outcomes.

Every variable is either free or nonnegative.  Those are the two kinds the
finite duality of the paper needs: cash, strategy and lineality weights are
free; measures, ray weights and polar elements are nonnegative.  A free
variable compiles to two standard columns, a nonnegative one to one, and
any other bound is rejected when the program is built, as is any number
that is not an int or a Fraction; outside numbers become exact in ``market``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .errors import InternalInvariantError

LE = "<="
EQ = "=="
GE = ">="
_RELS = (LE, EQ, GE)

MIN = "min"
MAX = "max"

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective.x subject to rows and per-variable lower bounds.

    Rows are (coefficients, relation, rhs).  Each variable's lower bound is
    ``None`` for a free variable or an int or Fraction 0 for a nonnegative
    one; no variable has an upper bound.  All rows must have the same length
    as the objective, and every number is an int or a Fraction.  ``var_names``
    and ``row_names`` only label the listing (``to_text``).
    """

    sense: str
    objective: tuple
    row_coeffs: tuple
    row_rels: tuple
    row_rhs: tuple
    lower: tuple
    var_names: tuple = ()
    row_names: tuple = ()

    def __post_init__(self):
        n = len(self.objective)
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad sense {self.sense!r}")
        for k, nums in enumerate((self.objective, self.row_rhs, *self.row_coeffs)):
            if k > 1 and len(nums) != n:
                raise ValueError("row length differs from objective length")
            if not {int, Fraction}.issuperset(map(type, nums)):  # a bool is not an int here
                where = ("objective", "rhs")[k] if k < 2 else f"row {k - 2}"
                j, a = next((j, a) for j, a in enumerate(nums) if type(a) not in (int, Fraction))
                raise ValueError(f"{where} entry {j} is {a!r}, not an int or a Fraction")
        for rel in self.row_rels:
            if rel not in _RELS:
                raise ValueError(f"bad relation {rel!r}")
        if not (len(self.row_coeffs) == len(self.row_rels) == len(self.row_rhs)):
            raise ValueError("inconsistent row data")
        if len(self.lower) != n:
            raise ValueError("bounds length differs from variable count")
        for i, lo in enumerate(self.lower):
            if lo is not None and not (type(lo) in (int, Fraction) and lo == 0):
                raise ValueError(f"variable {i} has lower bound {lo}; "
                                 "only free or nonnegative variables are supported")

    @property
    def upper(self) -> tuple:
        """All ``None``: no variable has an upper bound.  Kept read-only for
        readers of the (lower, upper) shape: the benchmark's tracer
        (``bench/tracer.py``) hashes it."""
        return (None,) * len(self.objective)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.row_coeffs)

    def to_text(self) -> str:
        """Plain-text listing of the program, for --dump-lp inspection."""
        names = self.var_names or tuple(f"x{i}" for i in range(self.n_vars))
        rnames = self.row_names or tuple(f"r{j}" for j in range(self.n_rows))

        def lin(coeffs):
            terms = [f"{c} {names[i]}" for i, c in enumerate(coeffs) if c != 0]
            return " + ".join(terms).replace("+ -", "- ") if terms else "0"

        out = [f"{self.sense}: {lin(self.objective)}", "subject to:"]
        for j, coeffs in enumerate(self.row_coeffs):
            out.append(f"  {rnames[j]}: {lin(coeffs)} {self.row_rels[j]} {self.row_rhs[j]}")
        out.append("bounds:")
        for i, lo in enumerate(self.lower):
            out.append(f"  {names[i]} free" if lo is None else f"  {names[i]} >= {lo}")
        return "\n".join(out)


@dataclass(frozen=True)
class Optimal:
    """value in the original sense; duals follow the minimisation convention
    (>= rows have nonnegative duals, <= rows nonpositive, == rows free)."""

    value: Fraction
    point: tuple
    row_duals: tuple

    status = "optimal"


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: with w over rows (w>=0 on >= rows, w<=0 on <= rows)
    and z>=0 over the lower bounds of the nonnegative variables,
    sum_j w_j a_j + z = 0 while w.b > 0 (the lower bounds are 0)."""

    farkas_rows: tuple
    farkas_lower: tuple

    status = "infeasible"

    @property
    def farkas_upper(self) -> tuple:
        """All zero: no variable has an upper bound.  Kept read-only for
        readers of the (lower, upper) shape: the benchmark's tracer
        (``bench/tracer.py``) hashes it."""
        return (ZERO,) * len(self.farkas_lower)


@dataclass(frozen=True)
class Unbounded:
    """A feasible point and a feasible direction strictly improving the
    objective in the original sense."""

    point: tuple
    ray: tuple

    status = "unbounded"


LPOutcome = Union[Optimal, Infeasible, Unbounded]


# ---------------------------------------------------------------------------
# simplex over the integer standard form  min c.x  s.t.  A x = b, x >= 0, b >= 0
# ---------------------------------------------------------------------------


class _RevisedSimplex:
    """Revised simplex state over sparse rows of the basis inverse, each in
    lowest terms over its own stamp.

    The structural columns ``cols`` are sparse integer columns, lists of
    ``(row, value)`` pairs, and are never updated.  Each live row ``r`` of
    ``B^-1`` (the block the artificial columns of a full tableau would
    carry) with its right-hand side is a dict of its nonzero integers, key
    ``m`` for the right-hand side, over its own stamp ``scale[r] > 0``, and
    the gcd of the integers and the stamp is 1.  ``y`` holds the simplex
    multipliers ``c_B B^-1`` over the same ``m + 1`` columns (its last
    entry is the objective value) alike, as a dense list over ``y_scale``.

    A column's reduced cost is priced on demand as ``y_scale * c_j - y .
    A_j`` and its tableau column as ``row_r . A_j`` per row; each is the
    true value times a positive stamp, so Bland's sign tests and the ratio
    test's ``rhs_r / a_r`` (where a row's stamp cancels) make the same
    pivots as a full tableau.  A pivot on ``p`` sets the pivot row ``P`` to
    ``P / p``, negated if ``p < 0``.  That is in lowest terms, since a row
    in lowest terms over ``s`` has content 1: its ``B^-1`` part times the
    integer basis is ``s`` times a unit row, so the content divides ``s``.
    Each row ``R`` over ``s`` whose entry ``f`` of the entering column is
    nonzero becomes ``(p*R - f*P) / (s*p)``, divided by the gcd of its
    integers and its stamp; a row with a zero there is not touched.
    """

    def __init__(self, cols, rhs):
        self.m = m = len(rhs)
        self.cols = cols
        self.n = len(cols)
        self.rows = [{r: 1, m: b} if b else {r: 1} for r, b in enumerate(rhs)]
        self.scale = [1] * m
        self.basis = [self.n + r for r in range(m)]
        self.orig_index = list(range(m))  # live row -> input row
        self.c = None
        self.y = None
        self.y_scale = 1

    def set_costs(self, c, c_art):
        """Integer costs ``c`` over the structural columns and ``c_art``
        over the artificial ones, one per input row."""
        n, s_y = self.n, lcm(*self.scale)
        self.c = c
        y = [0] * (self.m + 1)
        for row, s, bj in zip(self.rows, self.scale, self.basis):
            cb = c[bj] if bj < n else c_art[bj - n]
            if cb:
                k = cb * (s_y // s)
                for i, v in row.items():
                    y[i] += k * v
        self._set_y(y, s_y)

    def _set_y(self, y, s):
        """Keep ``y`` over the stamp ``s > 0`` in lowest terms."""
        g = gcd(s, *y)
        self.y, self.y_scale = ([a // g for a in y], s // g) if g > 1 else (y, s)

    def price(self, j):
        """The reduced cost of column j times ``y_scale``."""
        y = self.y
        return self.y_scale * self.c[j] - sum(y[i] * a for i, a in self.cols[j])

    def column(self, j):
        """Column j of the tableau over the live rows, each entry times its
        row's stamp."""
        colj = self.cols[j]
        out = []
        for row in self.rows:
            t = 0
            for i, a in colj:
                if i in row:
                    t += row[i] * a
            out.append(t)
        return out

    def pivot(self, r, j, col, d):
        """Bring column j into the basis at row r, given its tableau column
        ``col`` and its priced reduced cost ``d``."""
        rows, scale = self.rows, self.scale
        prow, p = rows[r], col[r]
        if p < 0:
            prow, p = {i: -v for i, v in prow.items()}, -p
        rows[r], scale[r] = prow, p
        for rr, f in enumerate(col):
            if f and rr != r:
                # with gcd(f, p) cancelled first, a row whose multiplier q
                # is 1 is updated in place
                g = gcd(f, p)
                q, f = p // g, f // g
                row = {i: a * q for i, a in rows[rr].items()} if q > 1 else rows[rr]
                for i, v in prow.items():
                    a = row[i] - f * v if i in row else -f * v
                    if a:
                        row[i] = a
                    else:
                        del row[i]
                s = scale[rr] * q
                g = gcd(s, *row.values())
                if g > 1:
                    row, s = {i: a // g for i, a in row.items()}, s // g
                rows[rr], scale[rr] = row, s
        # y takes the cost row's update with the opposite sign
        if d:
            y = [a * p for a in self.y]
            for i, v in prow.items():
                y[i] += d * v
            self._set_y(y, self.y_scale * p)
        self.basis[r] = j

    def run(self):
        """Bland's rule over the structural columns; returns ('optimal',
        None) or ('unbounded', (entering col, its tableau column))."""
        cols, c, m = self.cols, self.c, self.m
        while True:
            ys, y = self.y_scale, self.y
            enter = -1
            for j, colj in enumerate(cols):
                d = ys * c[j]
                for i, a in colj:
                    d -= y[i] * a
                if d < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", None
            col = self.column(enter)
            # min ratio rhs/a over a > 0 by cross-multiplication (a row's
            # stamp cancels); ties go to the smallest basic variable
            leave, best_rhs, best_a = -1, 0, 1
            for r, (a, row) in enumerate(zip(col, self.rows)):
                if a > 0:
                    b = row.get(m, 0)
                    lhs, rhs = b * best_a, best_rhs * a
                    if leave < 0 or lhs < rhs or (
                            lhs == rhs and self.basis[r] < self.basis[leave]):
                        leave, best_rhs, best_a = r, b, a
            if leave < 0:
                return "unbounded", (enter, col)
            self.pivot(leave, enter, col, d)

    def point(self):
        """The nonzero basic values, {column: (numerator, its row's stamp)}."""
        n, m = self.n, self.m
        return {bj: (row[m], s) for row, s, bj in zip(self.rows, self.scale, self.basis)
                if bj < n and m in row}

    def drop_row(self, r):
        del self.rows[r]
        del self.scale[r]
        del self.basis[r]
        del self.orig_index[r]


def _solve_standard(cols, rhs, c, art_costs):
    """min c.x s.t. Ax=b (b>=0), x>=0, for the sparse integer columns
    ``cols`` of ``A``, the integer ``rhs`` and integer costs ``c``; phase 1
    minimises the artificials weighted by the positive integers
    ``art_costs``, one per row.  Returns a dict with 'status' and per-status
    data in integers: point and ray as {column: (numerator, stamp)} over
    their nonzeros, duals/value or farkas duals over the stamp 'y_scale'."""
    n, m = len(cols), len(rhs)
    tab = _RevisedSimplex(cols, rhs)

    tab.set_costs([0] * n, art_costs)
    status, _ = tab.run()
    if status != "optimal":
        raise InternalInvariantError(f"phase 1 ended {status!r}, not optimal")
    if tab.y[-1] != 0:
        # every row is still live
        return {"status": "infeasible", "farkas": tab.y[:m], "y_scale": tab.y_scale}

    # drive artificials out of the basis; drop redundant rows
    r = 0
    while r < len(tab.rows):
        if tab.basis[r] >= n:
            row = tab.rows[r]
            if row.get(m, 0) != 0:
                raise InternalInvariantError("basic artificial with nonzero value after phase 1")
            j = next((j for j, col in enumerate(cols)
                      if sum(row.get(i, 0) * a for i, a in col)), -1)
            if j < 0:
                tab.drop_row(r)
                continue
            tab.pivot(r, j, tab.column(j), tab.price(j))
        r += 1

    tab.set_costs(c, [0] * m)
    status, entering = tab.run()
    if status == "unbounded":
        enter, col = entering
        ray = {enter: (1, 1)}
        for bj, a, s in zip(tab.basis, col, tab.scale):
            if bj < n and a:
                ray[bj] = (-a, s)
        return {"status": "unbounded", "point": tab.point(), "ray": ray}

    # dropped rows keep y_r = 0
    live = set(tab.orig_index)
    return {"status": "optimal", "point": tab.point(), "value": tab.y[-1], "y_scale": tab.y_scale,
            "duals": [v if r in live else 0 for r, v in enumerate(tab.y[:m])]}


# ---------------------------------------------------------------------------
# compilation of the general form to the integer standard form and back
# ---------------------------------------------------------------------------

_observers: ContextVar[tuple] = ContextVar("lp_observers", default=())


@contextmanager
def observe(fn):
    """Call ``fn(program, outcome)`` after each solve in the block, in this thread or task only."""
    _observers.set(_observers.get() + (fn,))
    try:
        yield
    finally:  # drop this block's fn only: an audit set within the block stays
        rest = list(_observers.get())
        rest.remove(fn)
        _observers.set(tuple(rest))


def _audit(lp: LinearProgram, outcome: LPOutcome) -> None:
    from .verify import check_lp_outcome  # looked up per call: verify imports lp

    check_lp_outcome(lp, outcome)


def set_audit(enabled: bool) -> None:
    """Test mode: re-verify each solve's certificate, in this thread or task, before returning."""
    rest = tuple(fn for fn in _observers.get() if fn is not _audit)
    _observers.set(rest + (_audit,) if enabled else rest)


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve an exact-rational program; see module docstring for contracts."""
    outcome = _solve_general(lp)
    for fn in _observers.get():
        fn(lp, outcome)
    return outcome


def _solve_general(lp: LinearProgram) -> LPOutcome:
    n = lp.n_vars

    # a nonnegative variable is one standard column; a free one is the
    # difference of two, x = x+ - x-; each inequality then gets a slack
    free = [lo is None for lo in lp.lower]
    cols = []           # first standard column of each variable
    width = 0
    for f in free:
        cols.append(width)
        width += 2 if f else 1

    def spread(nonzeros, scale):
        """(standard column, scale * a) for each (variable i, nonzero a);
        scale is a multiple of every denominator, so the values are
        integers."""
        for i, a in nonzeros:
            v = a.numerator * (scale // a.denominator)
            yield cols[i], v
            if free[i]:
                yield cols[i] + 1, -v

    # row r is scaled by its own factor L_r > 0, the lcm of its and its
    # rhs's denominators, and negated where its rhs is negative, so by
    # s_r = sigma_r * L_r; the objective is scaled by K > 0, and negated
    # for a max.  The rows go onto sparse integer columns, each slack a
    # column of its own
    scales, rhs, columns = [], [], [[] for _ in range(width)]
    for r, (coeffs, rel, b) in enumerate(zip(lp.row_coeffs, lp.row_rels, lp.row_rhs)):
        nonzeros = [(i, a) for i, a in enumerate(coeffs) if a]
        L_r = lcm(b.denominator, *{a.denominator for _, a in nonzeros})
        scales.append(s := -L_r if b < 0 else L_r)
        for j, v in spread(nonzeros, s):
            columns[j].append((r, v))
        if rel != EQ:
            columns.append([(r, s if rel == LE else -s)])
        rhs.append(b.numerator * (s // b.denominator))
    nonzeros = [(i, a) for i, a in enumerate(lp.objective) if a]
    K = lcm(*{a.denominator for _, a in nonzeros})
    k = K if lp.sense == MIN else -K
    c = [0] * len(columns)
    for j, v in spread(nonzeros, k):
        c[j] = v

    # row r's artificial stands for L_r / L times the artificial of the
    # same row scaled by the common L = lcm(L_r), so the phase-1 cost
    # L / L_r gives phase 1 the objective, the pivots and the Farkas
    # vector of one common scale
    L = lcm(*scales)
    res = _solve_standard(columns, rhs, c, [L // abs(s) for s in scales])

    def map_back(xs, nil=(0, 1)):
        """{standard column: (numerator, stamp)} -> original variables
        (points and rays alike), x+ - x- combined in integers."""
        pairs = ((xs.get(j, nil), xs.get(j + 1, nil) if f else nil) for j, f in zip(cols, free))
        return tuple(Fraction(p * e - q * d, d * e) if p or q else ZERO
                     for (p, d), (q, e) in pairs)

    if res["status"] == "unbounded":
        return Unbounded(point=map_back(res["point"]), ray=map_back(res["ray"]))

    ys = res["y_scale"]
    if res["status"] == "optimal":
        # the integer program's value is k times the original one, and the
        # dual of row r is K / s_r times the original one, each over ys
        return Optimal(
            value=Fraction(res["value"], k * ys),
            point=map_back(res["point"]),
            row_duals=tuple(Fraction(s * y_r, K * ys) if y_r else ZERO
                            for s, y_r in zip(scales, res["duals"])),
        )

    # infeasible: with the phase-1 costs above, the kernel's Farkas vector
    # is that of the rows scaled by the common L, and a Farkas vector is
    # invariant under positive scaling, so s_r / L folds it back onto the
    # original rows; a nonnegative variable's zero bound takes up the rest
    # of its column, tau, which must vanish on a free variable; column
    # cols[i] holds s_r * a_ri, so tau_i = sum of y_r * s_r * a_ri / (L ys)
    y = res["farkas"]
    w = [Fraction(s * y_r, L * ys) if y_r else ZERO for s, y_r in zip(scales, y)]
    zlo = []
    for i in range(n):
        tau = sum(y[r] * v for r, v in columns[cols[i]])
        if tau > 0 or (free[i] and tau):
            raise InternalInvariantError(
                f"Farkas multiplier of the bounds of variable {i} has the wrong sign")
        zlo.append(Fraction(-tau, L * ys) if tau else ZERO)
    return Infeasible(farkas_rows=tuple(w), farkas_lower=tuple(zlo))


# ---------------------------------------------------------------------------
# exact elimination of equality rows
# ---------------------------------------------------------------------------

INCONSISTENT = "inconsistent"


def _lowest(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: a // g for j, a in row.items()} if g > 1 else row


def _clear(row: dict, c: int, prow: dict) -> dict:
    """``row`` minus the multiple of ``prow`` that clears its column c."""
    g = gcd(prow[c], row[c])
    p, f = prow[c] // g, row[c] // g
    out = {j: a * p for j, a in row.items()}
    for j, v in prow.items():
        out[j] = out.get(j, 0) - f * v
    return _lowest({j: a for j, a in out.items() if a})


def solve_equalities(n: int, rows):
    """The one solution of ``rows``, equations ``({column: a}, rhs)`` in n
    unknowns, as a tuple of Fractions; INCONSISTENT when there is none; None
    below rank n.  An exact sparse Gauss-Jordan elimination in the order
    given, on integer rows in lowest terms (the rhs at key n), as the kernel
    keeps its rows; after n pivots each row is a check by substitution, and
    the solution is substituted into every row in integers first."""
    def scaled(coeffs, rhs):
        row = {j: a for j, a in {**coeffs, n: rhs}.items() if a}
        L = lcm(*(a.denominator for a in row.values()))
        return _lowest({j: a.numerator * (L // a.denominator) for j, a in row.items()})

    rows, pivots = [scaled(*r) for r in rows], {}
    for last, row in enumerate(rows):
        for c in [c for c in row if c in pivots]:
            row = _clear(row, c, pivots[c])
        if row:
            c = min(row)
            if c == n:
                return INCONSISTENT
            pivots = {k: _clear(p, c, row) if c in p else p for k, p in pivots.items()}
            pivots[c] = row
        if len(pivots) == n:
            break
    else:
        return None
    x = [Fraction(pivots[j].get(n, 0), pivots[j][j]) for j in range(n)]
    D = lcm(*(v.denominator for v in x))
    X = [v.numerator * (D // v.denominator) for v in x] + [-D]
    misses = [k for k, row in enumerate(rows) if sum(a * X[j] for j, a in row.items())]
    if misses and misses[0] <= last:
        raise InternalInvariantError("elimination's solution does not meet its rows")
    return INCONSISTENT if misses else tuple(x)


# ---------------------------------------------------------------------------
# small builder, used by every formulation module
# ---------------------------------------------------------------------------


class LPBuilder:
    """Assemble a LinearProgram.  ``var`` returns the variable's handle, its
    column index; rows and the objective are keyed by handles, and the
    outcome of ``solve`` is read at them (``out.point[v]``, ``out.ray[v]``).
    Numbers are stored as given, absent ones as int 0, and checked at build.
    Variable and row names only label the listing (``to_text``, --dump-lp)."""

    def __init__(self, sense: str = MIN):
        self.sense = sense
        self._vars: dict = {}   # name -> lower bound, in column order
        self._obj: dict = {}
        self.rows: list = []    # (name, coeffs, rel, rhs), in order

    def var(self, name: str, lo=None, obj=None) -> int:
        """A free variable, or a nonnegative one with ``lo=0``."""
        if name in self._vars:
            raise ValueError(f"duplicate variable {name!r}")
        v = len(self._vars)
        self._vars[name] = lo
        if obj is not None:
            self._obj[v] = obj
        return v

    def add_objective(self, v: int, coeff) -> None:
        if v not in range(len(self._vars)) or v in self._obj:
            raise ValueError(f"unknown variable, or one with a cost: {v!r}")
        self._obj[v] = coeff

    def row(self, name: str, coeffs: Mapping[int, Fraction], rel: str, rhs) -> None:
        handles = range(len(self._vars))
        for v in coeffs:
            if v not in handles:
                raise ValueError(f"unknown variable {v!r} in row {name!r}")
        self.rows.append((name, dict(coeffs), rel, rhs))

    def build(self) -> LinearProgram:
        n = len(self._vars)
        objective = [0] * n
        for v, a in self._obj.items():
            objective[v] = a
        coeffs, rels, rhs, rnames = [], [], [], []
        for rname, cmap, rel, b in self.rows:
            dense = [0] * n
            for v, a in cmap.items():
                dense[v] = a
            coeffs.append(tuple(dense))
            rels.append(rel)
            rhs.append(b)
            rnames.append(rname)
        return LinearProgram(
            sense=self.sense, objective=tuple(objective),
            row_coeffs=tuple(coeffs), row_rels=tuple(rels), row_rhs=tuple(rhs),
            lower=tuple(self._vars.values()), var_names=tuple(self._vars),
            row_names=tuple(rnames),
        )

    def solve(self) -> LPOutcome:
        return solve(self.build())
