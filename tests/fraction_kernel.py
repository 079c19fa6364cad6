"""The exact-Fraction simplex kernel, kept as a test-only reference.

This is the dense ``Fraction`` tableau with Bland's rule that
``collective_arb.lp`` used before its kernel moved to integer
(fraction-free) pivoting, and ``solve``, the ``Fraction`` standard form
that ``collective_arb.lp`` compiled every program to before it compiled
straight to integer rows.  ``tests/test_lp_kernel.py`` runs both kernels on
the same programs and requires equal outcomes: the same status, point,
duals, value, Farkas vector and ray.
"""

from fractions import Fraction

from collective_arb.errors import InternalInvariantError
from collective_arb.lp import (EQ, LE, MIN, ONE, ZERO, Infeasible, LinearProgram, LPOutcome,
                               Optimal, Unbounded, frac)


class _Tableau:
    """Dense tableau with one artificial variable per row.

    Artificial columns double as a running copy of the basis inverse, which
    is what makes exact duals and Farkas vectors cheap to read off.
    """

    def __init__(self, A, b, ncols):
        self.m = len(A)
        self.n = ncols
        self.rows = [list(A[r]) + [ONE if i == r else ZERO for i in range(self.m)] + [b[r]]
                     for r in range(self.m)]
        self.basis = [self.n + r for r in range(self.m)]
        self.orig_index = list(range(self.m))  # tableau row -> input row
        self.zrow = None

    def set_costs(self, costs):
        # costs over the n + m columns; rebuild reduced costs from scratch
        width = self.n + self.m + 1
        z = [costs[j] if j < self.n + self.m else ZERO for j in range(width - 1)] + [ZERO]
        for r, row in enumerate(self.rows):
            cb = costs[self.basis[r]]
            if cb:
                for j in range(width):
                    z[j] -= cb * row[j]
        self.zrow = z

    def pivot(self, r, j):
        prow = self.rows[r]
        piv = prow[j]
        if piv != ONE:
            inv = ONE / piv
            for k, v in enumerate(prow):
                if v:
                    prow[k] = v * inv
        nz = [k for k, v in enumerate(prow) if v]
        for rr, other in enumerate(self.rows):
            if rr == r:
                continue
            f = other[j]
            if f:
                for k in nz:
                    other[k] -= f * prow[k]
        f = self.zrow[j]
        if f:
            z = self.zrow
            for k in nz:
                z[k] -= f * prow[k]
        self.basis[r] = j

    def run(self, enterable):
        """Bland's rule; returns 'optimal' or ('unbounded', entering col)."""
        while True:
            z = self.zrow
            enter = -1
            for j in range(self.n + self.m):
                if z[j] < 0 and enterable(j):
                    enter = j
                    break
            if enter < 0:
                return "optimal", -1
            leave, best = -1, None
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[r] < self.basis[leave]):
                        leave, best = r, ratio
            if leave < 0:
                return "unbounded", enter
            self.pivot(leave, enter)

    def value(self):
        return -self.zrow[-1]

    def duals(self, costs):
        # y_r = cost of artificial r minus its reduced cost, per live row
        y = {}
        for orig in self.orig_index:
            col = self.n + orig
            y[orig] = costs[col] - self.zrow[col]
        return y

    def point(self):
        x = [ZERO] * (self.n + self.m)
        for r, bj in enumerate(self.basis):
            x[bj] = self.rows[r][-1]
        return x

    def drop_row(self, r):
        del self.rows[r]
        del self.basis[r]
        del self.orig_index[r]


def _solve_standard(A, b, c, n):
    """min c.x s.t. Ax=b (b>=0), x>=0 over n columns.  Returns a dict with
    'status' and per-status data: point/duals/value, farkas duals, or ray."""
    m = len(A)
    tab = _Tableau(A, b, n)

    phase1 = [ZERO] * n + [ONE] * m
    tab.set_costs(phase1)
    status, _ = tab.run(lambda j: j < n)
    assert status == "optimal"
    if tab.value() != 0:
        y = tab.duals(phase1)
        return {"status": "infeasible", "farkas": [y.get(r, ZERO) for r in range(m)]}

    # drive artificials out of the basis; drop redundant rows
    r = 0
    while r < len(tab.rows):
        if tab.basis[r] >= n:
            assert tab.rows[r][-1] == 0
            for j in range(n):
                if tab.rows[r][j] != 0:
                    tab.pivot(r, j)
                    break
            else:
                tab.drop_row(r)
                continue
        r += 1

    phase2 = list(c) + [ZERO] * m
    tab.set_costs(phase2)
    status, enter = tab.run(lambda j: j < n)
    if status == "unbounded":
        ray = [ZERO] * n
        ray[enter] = ONE
        for r, bj in enumerate(tab.basis):
            if bj < n:
                ray[bj] = -tab.rows[r][enter]
        point = tab.point()[:n]
        return {"status": "unbounded", "point": point, "ray": ray}

    y = tab.duals(phase2)
    return {
        "status": "optimal",
        "point": tab.point()[:n],
        "duals": [y.get(r, ZERO) for r in range(m)],
        "value": tab.value(),
    }


def solve(lp: LinearProgram) -> LPOutcome:
    """Compile ``lp`` to the ``Fraction`` standard form, solve it with this
    kernel and map the result back onto the program's variables and rows."""
    n = lp.n_vars
    minimise = lp.sense == MIN
    c = [frac(v) if minimise else -frac(v) for v in lp.objective]

    # a nonnegative variable is one standard column; a free one is the
    # difference of two, x = x+ - x-
    free = [lo is None for lo in lp.lower]
    cols = []           # first standard column of each variable
    std_cols = 0
    for f in free:
        cols.append(std_cols)
        std_cols += 2 if f else 1

    def substitute(coeffs):
        """original coefficients -> standard coefficient list."""
        out = [ZERO] * std_cols
        for i, a in enumerate(coeffs):
            a = frac(a)
            if a:
                out[cols[i]] += a
                if free[i]:
                    out[cols[i] + 1] -= a
        return out

    # one standard row per original row, a slack appended per inequality,
    # and rows with a negative rhs negated (sigma = -1)
    std_rows = []       # (dense coeffs incl slack, rhs, sigma)
    total_cols = std_cols
    for j in range(lp.n_rows):
        coeffs = substitute(lp.row_coeffs[j])
        rhs = frac(lp.row_rhs[j])
        if lp.row_rels[j] != EQ:
            coeffs += [ZERO] * (total_cols - std_cols)
            coeffs.append(ONE if lp.row_rels[j] == LE else -ONE)
            total_cols += 1
        sigma = ONE
        if rhs < 0:
            sigma = -ONE
            coeffs = [-v for v in coeffs]
            rhs = -rhs
        std_rows.append((coeffs, rhs, sigma))

    A = [coeffs + [ZERO] * (total_cols - len(coeffs)) for coeffs, _, _ in std_rows]
    b = [rhs for _, rhs, _ in std_rows]
    c_std = substitute(c) + [ZERO] * (total_cols - std_cols)

    res = _solve_standard(A, b, c_std, total_cols)

    def map_back(xs):
        """standard values -> original variables (points and rays alike)."""
        return tuple(xs[j] - xs[j + 1] if free[i] else xs[j] for i, j in enumerate(cols))

    if res["status"] == "unbounded":
        return Unbounded(point=map_back(res["point"]), ray=map_back(res["ray"]))

    if res["status"] == "optimal":
        return Optimal(
            value=res["value"] if minimise else -res["value"],
            point=map_back(res["point"]),
            row_duals=tuple(sigma * y for (_, _, sigma), y in zip(std_rows, res["duals"])),
        )

    # infeasible: fold the standard-form Farkas vector back onto the
    # original rows; a nonnegative variable's zero bound takes up the rest
    # of its column, tau, which must vanish on a free variable
    w = [sigma * y for (_, _, sigma), y in zip(std_rows, res["farkas"])]
    zlo = []
    for i in range(n):
        tau = sum((w[j] * frac(row[i]) for j, row in enumerate(lp.row_coeffs)
                   if w[j] and row[i]), ZERO)
        if tau > 0 or (free[i] and tau):
            raise InternalInvariantError(
                f"Farkas multiplier of the bounds of variable {i} has the wrong sign")
        zlo.append(ZERO if free[i] else -tau)
    return Infeasible(farkas_rows=tuple(w), farkas_lower=tuple(zlo), farkas_upper=(ZERO,) * n)
