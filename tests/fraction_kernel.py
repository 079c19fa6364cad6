"""The exact-Fraction simplex kernel, kept as a test-only reference.

This is the dense ``Fraction`` tableau with Bland's rule that
``collective_arb.lp`` used before its kernel moved to integer
(fraction-free) pivoting.  ``tests/test_lp_kernel.py`` runs both kernels on
the same standard-form programs and requires equal result dicts: the same
status, point, duals, value, Farkas vector and ray.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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
