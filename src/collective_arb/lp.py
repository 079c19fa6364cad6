"""Exact rational linear programming with verifiable certificates.

Solves min/max problems over rational data with a two-phase primal simplex
using Bland's rule (termination under the heavy degeneracy typical of tree
markets).  Every outcome carries an exact certificate:

* ``Optimal``    -- primal point plus row duals; complementary slackness and
                    sign conditions re-verify with plain arithmetic.
* ``Infeasible`` -- Farkas multipliers over rows and finite bounds combining
                    the constraints into an impossible ``0 > 0`` inequality.
* ``Unbounded``  -- a feasible point plus an improving feasible ray.

The kernel is a revised simplex on Python integers.  ``_solve_general``
compiles each program straight to sparse integer columns and an integer
right-hand side, the rows scaled by one factor ``L > 0`` and the objective
by one ``K > 0``, and it alone knows them: it divides them back out of the
duals and the value.  ``_solve_standard`` and ``_RevisedSimplex`` see
integers only.  The state is the explicit basis inverse over one common
positive denominator, ``den * B^-1``, with the right-hand side and the
simplex multipliers, and each pivot updates only those ``m + 1`` columns
per row by Bareiss's exact fraction-free step.  The columns of ``A`` are
never updated: Bland's rule prices them on demand and computes only the
entering column for the ratio test.  Points, duals, Farkas vectors and rays
are converted to `fractions.Fraction` once, at the end.  There are no
tolerances anywhere.  Results are deterministic: identical programs yield
identical outcomes.

Every variable is either free or nonnegative.  Those are the two kinds the
finite duality of the paper needs: cash, strategy and lineality weights are
free; measures, ray weights and polar elements are nonnegative.  A free
variable compiles to two standard columns, a nonnegative one to one, and
any other bound is rejected when the program is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Union

from .errors import InternalInvariantError

LE = "<="
EQ = "=="
GE = ">="
_RELS = (LE, EQ, GE)

MIN = "min"
MAX = "max"

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '5/6' and Fractions to Fraction.  A bool is
    not a number here, although Python makes it an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective.x subject to rows and per-variable bounds.

    Rows are (coefficients, relation, rhs).  Each variable's bound pair
    (lower, upper) is ``(None, None)`` for a free variable or ``(0, None)``
    for a nonnegative one.  ``upper`` is therefore all ``None``; it is kept
    so that readers of general bounds, such as the certificate checker in
    ``verify``, see the usual (lower, upper) shape.  All rows must have the
    same length as the objective, and every number is an int or a Fraction.
    """

    sense: str
    objective: tuple
    row_coeffs: tuple
    row_rels: tuple
    row_rhs: tuple
    lower: tuple
    upper: tuple
    var_names: tuple = ()
    row_names: tuple = ()

    def __post_init__(self):
        n = len(self.objective)
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad sense {self.sense!r}")
        for coeffs in self.row_coeffs:
            if len(coeffs) != n:
                raise ValueError("row length differs from objective length")
        for rel in self.row_rels:
            if rel not in _RELS:
                raise ValueError(f"bad relation {rel!r}")
        if not (len(self.row_coeffs) == len(self.row_rels) == len(self.row_rhs)):
            raise ValueError("inconsistent row data")
        if not (len(self.lower) == len(self.upper) == n):
            raise ValueError("bounds length differs from variable count")
        for i, bounds in enumerate(zip(self.lower, self.upper)):
            if bounds not in ((None, None), (0, None)):
                raise ValueError(f"variable {i} has bounds {bounds}; "
                                 "only free or nonnegative variables are supported")

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
    and zlo>=0 / zup<=0 over finite lower/upper bounds,
    sum_j w_j a_j + zlo + zup = 0 while w.b + zlo.lower + zup.upper > 0.
    No variable has an upper bound, so ``farkas_upper`` is all zero."""

    farkas_rows: tuple
    farkas_lower: tuple
    farkas_upper: tuple

    status = "infeasible"


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
    """Revised simplex state over the explicit integer basis inverse.

    The structural columns ``cols`` are sparse integer columns, lists of
    ``(row, value)`` pairs, and are never updated.  Each live row ``r`` holds
    row ``r`` of ``den * B^-1`` (over the original rows, the block the
    artificial columns of a full tableau would carry) followed by its
    right-hand side, ``m + 1`` integers; ``den > 0`` is the basis
    determinant.  ``y`` holds ``den`` times the simplex multipliers
    ``c_B B^-1`` over the same ``m + 1`` columns, so its last entry is
    ``den`` times the objective value.  A column's reduced cost times ``den``
    is priced on demand as ``den * c_j - y . A_j`` and its tableau column as
    ``(den * B^-1) A_j``; both equal, integer for integer, what a full
    tableau would hold, so Bland's rule makes the same pivots.  A pivot on
    ``p`` updates each other row by ``a' = (a*p - f*v) // den`` (exact:
    Bareiss's fraction-free elimination) before ``den`` becomes ``p``.
    """

    def __init__(self, cols, rhs):
        self.m = m = len(rhs)
        self.cols = cols
        self.n = len(cols)
        self.rows = [[1 if i == r else 0 for i in range(m)] + [b] for r, b in enumerate(rhs)]
        self.den = 1
        self.basis = [self.n + r for r in range(m)]
        self.orig_index = list(range(m))  # live row -> input row
        self.c = None
        self.y = None

    def set_costs(self, c, c_art):
        # integer costs c over the structural columns, c_art on every
        # artificial one
        n = self.n
        self.c = c
        y = [0] * (self.m + 1)
        for row, bj in zip(self.rows, self.basis):
            cb = c[bj] if bj < n else c_art
            if cb:
                y = [a + cb * v for a, v in zip(y, row)]
        self.y = y

    def price(self, j):
        """den times the reduced cost of column j."""
        y = self.y
        return self.den * self.c[j] - sum(y[i] * a for i, a in self.cols[j])

    def column(self, j):
        """Column j of the tableau, (den * B^-1) A_j, over the live rows."""
        rows = self.rows
        col = [0] * len(rows)
        for i, a in self.cols[j]:
            col = [v + row[i] * a for v, row in zip(col, rows)]
        return col

    def pivot(self, r, j, col, d):
        """Bring column j into the basis at row r, given its tableau column
        ``col`` and its priced reduced cost ``d``."""
        rows = self.rows
        prow = rows[r]
        p = col[r]
        if p < 0:
            # negating the pivot row negates the whole updated state and
            # its denominator, which keeps den positive
            prow = rows[r] = [-v for v in prow]
            p = -p
        den = self.den
        for rr, row in enumerate(rows):
            if rr == r:
                continue
            f = col[rr]
            if f:
                rows[rr] = [(a * p - f * v) // den for a, v in zip(row, prow)]
            elif p != den:
                rows[rr] = [a * p // den for a in row]
        # y takes the cost row's update with the opposite sign
        if d:
            self.y = [(a * p + d * v) // den for a, v in zip(self.y, prow)]
        elif p != den:
            self.y = [a * p // den for a in self.y]
        self.den = p
        self.basis[r] = j

    def run(self):
        """Bland's rule over the structural columns; returns ('optimal',
        None) or ('unbounded', (entering col, its tableau column))."""
        cols, c = self.cols, self.c
        while True:
            den, y = self.den, self.y
            enter = -1
            for j, colj in enumerate(cols):
                d = den * c[j]
                for i, a in colj:
                    d -= y[i] * a
                if d < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", None
            col = self.column(enter)
            # min ratio rhs/a over a > 0 by cross-multiplication; ties go
            # to the smallest basic variable
            leave, best_rhs, best_a = -1, 0, 1
            for r, (a, row) in enumerate(zip(col, self.rows)):
                if a > 0:
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if leave < 0 or lhs < rhs or (
                            lhs == rhs and self.basis[r] < self.basis[leave]):
                        leave, best_rhs, best_a = r, row[-1], a
            if leave < 0:
                return "unbounded", (enter, col)
            self.pivot(leave, enter, col, d)

    def point(self):
        x = [ZERO] * self.n
        for r, bj in enumerate(self.basis):
            if bj < self.n:
                x[bj] = Fraction(self.rows[r][-1], self.den)
        return x

    def drop_row(self, r):
        del self.rows[r]
        del self.basis[r]
        del self.orig_index[r]


def _solve_standard(cols, rhs, c):
    """min c.x s.t. Ax=b (b>=0), x>=0, for the sparse integer columns
    ``cols`` of ``A``, the integer ``rhs`` and integer costs ``c``.  Returns
    a dict with 'status' and per-status data: point/duals/value, farkas
    duals, or ray."""
    n, m = len(cols), len(rhs)
    tab = _RevisedSimplex(cols, rhs)

    # phase 1: cost 1 on every artificial
    tab.set_costs([0] * n, 1)
    status, _ = tab.run()
    if status != "optimal":
        raise InternalInvariantError(f"phase 1 ended {status!r}, not optimal")
    if tab.y[-1] != 0:
        # every row is still live
        return {"status": "infeasible", "farkas": [Fraction(v, tab.den) for v in tab.y[:m]]}

    # drive artificials out of the basis; drop redundant rows
    r = 0
    while r < len(tab.rows):
        if tab.basis[r] >= n:
            row = tab.rows[r]
            if row[-1] != 0:
                raise InternalInvariantError("basic artificial with nonzero value after phase 1")
            j = next((j for j, col in enumerate(cols) if sum(row[i] * a for i, a in col)), -1)
            if j < 0:
                tab.drop_row(r)
                continue
            tab.pivot(r, j, tab.column(j), tab.price(j))
        r += 1

    tab.set_costs(c, 0)
    status, entering = tab.run()
    if status == "unbounded":
        enter, col = entering
        ray = [ZERO] * n
        ray[enter] = ONE
        for bj, a in zip(tab.basis, col):
            if bj < n:
                ray[bj] = Fraction(-a, tab.den)
        return {"status": "unbounded", "point": tab.point(), "ray": ray}

    # dropped rows keep y_r = 0
    den, y = tab.den, tab.y
    duals = [ZERO] * m
    for orig in tab.orig_index:
        duals[orig] = Fraction(y[orig], den)
    return {
        "status": "optimal",
        "point": tab.point(),
        "duals": duals,
        "value": Fraction(y[-1], den),
    }


# ---------------------------------------------------------------------------
# compilation of the general form to the integer standard form and back
# ---------------------------------------------------------------------------

_dump_sink: Optional[list] = None
_audit = False


def set_dump_sink(sink) -> None:
    """Collect a text listing of every program solved (CLI --dump-lp)."""
    global _dump_sink
    _dump_sink = sink


def set_audit(enabled: bool) -> None:
    """Test mode: re-verify the certificate of every solve before returning."""
    global _audit
    _audit = enabled


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve an exact-rational program; see module docstring for contracts."""
    if _dump_sink is not None:
        _dump_sink.append(lp.to_text())
    outcome = _solve_general(lp)
    if _audit:
        from .verify import check_lp_outcome

        check_lp_outcome(lp, outcome)
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

    def spread(coeffs, scale):
        """(standard column, scale * a) for each nonzero a of ``coeffs``;
        scale is a multiple of every denominator, so the values are
        integers."""
        for i, a in enumerate(coeffs):
            if a:
                v = a.numerator * (scale // a.denominator)
                yield cols[i], v
                if free[i]:
                    yield cols[i] + 1, -v

    # every row is scaled by one factor L > 0, the lcm of the row and rhs
    # denominators, and negated where its rhs is negative (sigma = -1);
    # the objective is scaled by K > 0, and negated for a max.  The rows go
    # onto sparse integer columns, each slack a column of its own
    L = lcm(*{a.denominator for coeffs in lp.row_coeffs for a in coeffs},
            *{b.denominator for b in lp.row_rhs})
    columns = [[] for _ in range(width)]
    rhs, sigma = [], []
    for r, (coeffs, rel, b) in enumerate(zip(lp.row_coeffs, lp.row_rels, lp.row_rhs)):
        s = -L if b < 0 else L
        for j, v in spread(coeffs, s):
            columns[j].append((r, v))
        if rel != EQ:
            columns.append([(r, s if rel == LE else -s)])
        rhs.append(b.numerator * (s // b.denominator))
        sigma.append(1 if s > 0 else -1)
    K = lcm(*{a.denominator for a in lp.objective})
    k = K if lp.sense == MIN else -K
    c = [0] * len(columns)
    for j, v in spread(lp.objective, k):
        c[j] = v

    res = _solve_standard(columns, rhs, c)

    def map_back(xs):
        """standard values -> original variables (points and rays alike)."""
        return tuple(xs[j] - xs[j + 1] if free[i] else xs[j] for i, j in enumerate(cols))

    if res["status"] == "unbounded":
        return Unbounded(point=map_back(res["point"]), ray=map_back(res["ray"]))

    if res["status"] == "optimal":
        # the integer program's value is k times the original one, and its
        # duals are K / (sigma * L) times the original ones
        return Optimal(
            value=res["value"] / k,
            point=map_back(res["point"]),
            row_duals=tuple(sg * L * y / K for sg, y in zip(sigma, res["duals"])),
        )

    # infeasible: a Farkas vector is invariant under positive scaling, so
    # only sigma folds back onto the original rows; a nonnegative
    # variable's zero bound takes up the rest of its column, tau, which
    # must vanish on a free variable
    w = [sg * y for sg, y in zip(sigma, res["farkas"])]
    zlo = []
    for i in range(n):
        tau = sum((w[j] * frac(row[i]) for j, row in enumerate(lp.row_coeffs)
                   if w[j] and row[i]), ZERO)
        if tau > 0 or (free[i] and tau):
            raise InternalInvariantError(
                f"Farkas multiplier of the bounds of variable {i} has the wrong sign")
        zlo.append(ZERO if free[i] else -tau)
    return Infeasible(farkas_rows=tuple(w), farkas_lower=tuple(zlo), farkas_upper=(ZERO,) * n)


# ---------------------------------------------------------------------------
# small builder with named variables/rows, used by every formulation module
# ---------------------------------------------------------------------------


class LPBuilder:
    """Assemble a LinearProgram with named variables and rows."""

    def __init__(self, sense: str = MIN):
        self.sense = sense
        self._vars: dict = {}
        self._obj: dict = {}
        self._rows: list = []

    def var(self, name: str, lo=None, obj=ZERO) -> str:
        """A free variable, or a nonnegative one with ``lo=0``."""
        if name in self._vars:
            raise ValueError(f"duplicate variable {name!r}")
        self._vars[name] = None if lo is None else frac(lo)
        if obj:
            self._obj[name] = self._obj.get(name, ZERO) + frac(obj)
        return name

    def add_objective(self, name: str, coeff) -> None:
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}")
        self._obj[name] = self._obj.get(name, ZERO) + frac(coeff)

    def row(self, name: str, coeffs: Mapping[str, Fraction], rel: str, rhs) -> None:
        for v in coeffs:
            if v not in self._vars:
                raise ValueError(f"unknown variable {v!r} in row {name!r}")
        self._rows.append((name, dict(coeffs), rel, frac(rhs)))

    def build(self) -> LinearProgram:
        names = tuple(self._vars)
        index = {v: i for i, v in enumerate(names)}
        objective = tuple(self._obj.get(v, ZERO) for v in names)
        coeffs, rels, rhs, rnames = [], [], [], []
        for rname, cmap, rel, b in self._rows:
            dense = [ZERO] * len(names)
            for v, a in cmap.items():
                dense[index[v]] += frac(a)
            coeffs.append(tuple(dense))
            rels.append(rel)
            rhs.append(b)
            rnames.append(rname)
        return LinearProgram(
            sense=self.sense, objective=objective,
            row_coeffs=tuple(coeffs), row_rels=tuple(rels), row_rhs=tuple(rhs),
            lower=tuple(self._vars.values()), upper=(None,) * len(names),
            var_names=names, row_names=tuple(rnames),
        )

    def solve(self) -> "Solution":
        lp = self.build()
        return Solution(lp, solve(lp))


class Solution:
    """Name-indexed view over an LPOutcome."""

    def __init__(self, lp: LinearProgram, outcome: LPOutcome):
        self.lp = lp
        self.outcome = outcome
        self.status = outcome.status

    @property
    def value(self) -> Fraction:
        return self.outcome.value

    def primal(self) -> dict:
        return dict(zip(self.lp.var_names, self.outcome.point))

    def dual(self, row_name: str) -> Fraction:
        return self.outcome.row_duals[self.lp.row_names.index(row_name)]

    def ray(self) -> dict:
        return dict(zip(self.lp.var_names, self.outcome.ray))
