"""Per-layer tracing from outside the package.

The tracer wraps the public functions that form each layer by rebinding
every name, in every package module, that refers to the original function
(and the class attribute for ``LPBuilder.build``).  No source is edited and
``restore`` puts the originals back.  Each call records a span (name,
start, end, parent, op id) in memory; ``layer_metrics`` folds the spans
into per-layer counts and times, and ``write_spans`` saves them.

Bookkeeping done after a call returns (LP sizes, bit lengths, the distinct
key) runs on a paused clock, so it is not charged to any span.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name); span names group into layers below
TARGETS = (
    [("lp", "solve", "lp.solve"),
     ("market", "build_market", "market.build_market"),
     ("market", "gains_basis", "market.gains_basis"),
     ("cones", "cone_contains", "cones.cone_contains"),
     ("model_io", "parse_model", "model_io.parse_model"),
     ("verify", "check_lp_outcome", "verify.check_lp_outcome"),
     ("report", "analyze", "report.analyze"),
     ("report", "render_json", "report.render_json")]
    + [("cones", f, "cones.construct") for f in (
        "make_zero", "make_Y0", "make_grouping", "make_span", "make_rays", "cone_add")]
    + [("verify", f, "verify.certificates") for f in (
        "verify_arbitrage_found", "verify_single_market_witness", "verify_polar_witness",
        "verify_measure_vector", "verify_primal_optimizer", "verify_fairness")]
    + [("arbitrage", f, f"arbitrage.{f}") for f in (
        "detect_NA_agent", "detect_NA_global", "detect_NCA", "find_emm_vector",
        "polar_witness", "martingale_polytope", "install_emm_system",
        "emm_coordinate_range", "emm_is_singleton")]
    + [("pricing", f, f"pricing.{f}") for f in (
        "claim_vector", "rho_agent_plus", "rho_agent_plus_dual", "rho_N_plus", "pi_N_plus",
        "rho_Y_plus", "pi_Y_plus", "rho_Y_minus", "pi_Y_minus", "rho_N_minus",
        "dual_rho_Y", "rho_under_measure", "fairness_allocation",
        "value_of_cooperation", "price_compatibility", "rho_full_market")]
)

# layer -> metrics it reports; "arbitrage" and "pricing" sum their functions
LAYERS = {
    "lp.solve": ("self_s",),
    "lp.build": ("calls", "busy_s"),
    "cones.cone_contains": ("calls", "busy_s"),
    "cones.construct": ("busy_s",),
    "market.build_market": ("busy_s",),
    "market.gains_basis": ("calls", "busy_s"),
    "model_io.parse_model": ("busy_s",),
    "arbitrage": ("calls", "busy_s", "self_s"),
    "pricing": ("calls", "busy_s", "self_s"),
    "verify.certificates": ("busy_s",),
    "verify.check_lp_outcome": ("calls", "busy_s"),
    "report.analyze": ("self_s",),
    "report.render_json": ("busy_s",),
}

SOLVE_COUNTS = ("calls", "distinct", "rows_max", "cols_max", "nnz_total",
                "in_bits_max", "out_bits_max", "optimal", "infeasible", "unbounded")


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in ("arbitrage", "pricing") else span_name


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _max_bits(values) -> int:
    return max((_bits(v) for v in values if v is not None), default=0)


def _outcome_values(outcome):
    if outcome.status == "optimal":
        return (outcome.value,) + outcome.point + outcome.row_duals
    if outcome.status == "infeasible":
        return outcome.farkas_rows + outcome.farkas_lower + outcome.farkas_upper
    return outcome.point + outcome.ray


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.op_id = 0
        self._stack = []
        self._paused = 0.0
        self._patched = []
        self.solves = {"calls": 0, "rows_max": 0, "cols_max": 0, "nnz_total": 0,
                       "in_bits_max": 0, "out_bits_max": 0,
                       "optimal": 0, "infeasible": 0, "unbounded": 0}
        self._distinct = set()

    def _clock(self) -> float:
        return perf_counter() - self._paused

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self._clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self._clock()
                stack.pop()
            if after is not None:
                t0 = perf_counter()
                after(args, result)
                self._paused += perf_counter() - t0
            return result

        return traced

    def _count_solve(self, args, outcome) -> None:
        lp = args[0]
        s = self.solves
        s["calls"] += 1
        s[outcome.status] += 1
        s["rows_max"] = max(s["rows_max"], lp.n_rows)
        s["cols_max"] = max(s["cols_max"], lp.n_vars)
        s["nnz_total"] += sum(1 for row in lp.row_coeffs for a in row if a)
        data = (lp.objective + lp.row_rhs + lp.lower + lp.upper
                + tuple(a for row in lp.row_coeffs for a in row))
        s["in_bits_max"] = max(s["in_bits_max"], _max_bits(data))
        s["out_bits_max"] = max(s["out_bits_max"], _max_bits(_outcome_values(outcome)))
        # two solves are the same program when everything but the names agrees
        self._distinct.add((lp.sense, lp.objective, lp.row_coeffs, lp.row_rels,
                            lp.row_rhs, lp.lower, lp.upper))

    def install(self, pkg) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg.__name__
                                         or name.startswith(pkg.__name__ + "."))]
        for modname, attr, span in TARGETS:
            original = getattr(getattr(pkg, modname), attr)
            wrapped = self._wrap(span, original,
                                 self._count_solve if span == "lp.solve" else None)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapped)
        builder = pkg.lp.LPBuilder
        self._patched.append((builder, "build", builder.build))
        builder.build = self._wrap("lp.build", builder.build)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def counts(self) -> dict:
        """Deterministic counts: the same inputs give the same numbers."""
        out = {f"lp.solve.{k}": self.solves[k] for k in SOLVE_COUNTS if k != "distinct"}
        out["lp.solve.distinct"] = len(self._distinct)
        calls = {}
        for rec in self.spans:
            layer = layer_of(rec[0])
            calls[layer] = calls.get(layer, 0) + 1
        for layer, metrics in LAYERS.items():
            if "calls" in metrics:
                out[f"{layer}.calls"] = calls.get(layer, 0)
        return out

    def layer_metrics(self) -> dict:
        """Counts plus busy (inclusive, outermost span of a layer only) and
        self (busy minus time covered by child spans) seconds per layer."""
        n = len(self.spans)
        child_time = [0.0] * n
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        layers = [layer_of(rec[0]) for rec in self.spans]
        busy, self_s = {}, {}
        for i, rec in enumerate(self.spans):
            layer, dur = layers[i], rec[2] - rec[1]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
            p = rec[3]
            while p >= 0 and layers[p] != layer:
                p = self.spans[p][3]
            if p < 0:
                busy[layer] = busy.get(layer, 0.0) + dur
        out = self.counts()
        calls = out.get("lp.solve.calls", 0)
        out["lp.solve.distinct_ratio"] = out["lp.solve.distinct"] / calls if calls else 1.0
        for layer, metrics in LAYERS.items():
            if "busy_s" in metrics:
                out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
            if "self_s" in metrics:
                out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
