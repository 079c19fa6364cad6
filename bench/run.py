"""Engine benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload tree_ladder --seed 20240 --seconds 25 --trace 0

``--trace 0`` times whole passes over the workload's inputs with no
instrumentation and prints the end-to-end metrics.  ``--trace 1`` runs one
pass without instrumentation and then the same pass traced, and prints the
per-layer metrics, the deterministic-count fingerprint and the tracing
overhead; spans go to ``.bench_out/`` in the repository root.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``bench/README.md``.

Single process, one thread, closed loop with one client: each op starts
when the previous one has finished.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "collective_arb"

import battery  # noqa: E402  (bench/ is the script directory)
import reference  # noqa: E402
import trees  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DEFAULT_SEED = 20240
HELD_OUT_SEED = 90417
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


def load_package():
    """Import the package afresh from this checkout's ``src``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / PACKAGE}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    for sub in ("report", "verify"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TreeWorkload:
    """One op is the CLI path on one model: parse_model, analyze with all
    sections, render_json; the audit is off."""

    audit = False

    def __init__(self, name, generate):
        self.name = name
        self.generate = generate

    def inputs(self, pkg, seed):
        return [(doc, reference.predict(doc)) for doc in self.generate(seed)]

    def covered(self, items, seen) -> bool:
        """Both NCA outcomes occur among the inputs."""
        return {expected["nca"] for _, expected in items} == {True, False}

    def op(self, pkg, item):
        model = pkg.model_io.parse_model(item[0])
        return pkg.report.render_json(pkg.report.analyze(model))

    def check(self, index, item, result, seen) -> None:
        reference.check_report(item[1], result)
        first = seen.setdefault(index, result)
        if result != first:
            raise reference.ReferenceMismatch("report differs from an earlier op on the same input")


class BatteryWorkload:
    """One op runs the full exact invariant battery on one instance with
    every LP certificate audited."""

    name = "battery_audited"
    audit = True

    def inputs(self, pkg, seed):
        return battery.instances(pkg, seed)

    def covered(self, items, seen) -> bool:
        """Both NCA outcomes occur among the instances run."""
        return 0 < sum(1 for hit in seen.values() if hit["nca_holds"]) < len(items)

    def op(self, pkg, item):
        market, cone, info, claims, check_seed = item
        return battery.check_instance(pkg, market, cone, info, claims,
                                      random.Random(check_seed))

    def check(self, index, item, result, seen) -> None:
        first = seen.setdefault(index, result)
        if result != first:
            raise battery.BatteryCheckFailed("branches exercised differ from an earlier op")


WORKLOADS = {
    "tree_ladder": TreeWorkload("tree_ladder", trees.tree_ladder),
    "agents_wide": TreeWorkload("agents_wide", trees.agents_wide),
    "battery_audited": BatteryWorkload(),
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    p = 99
    while p > 1 and n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p


def nearest_rank(sorted_values, p: int) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.latencies = []      # successful ops only
        self.busy = 0.0          # all attempted ops
        self.seen = {}
        self.errors = []
        self.pkg = None
        self.items = None

    def setup(self) -> list:
        """SETUP_REPEATS fresh set-ups; the last one's package and inputs
        are kept.  Each is: import the package, make the inputs, one
        untimed warm-up op."""
        times = []
        start = T_START
        for _ in range(SETUP_REPEATS):
            self.pkg = load_package()
            self.pkg.lp.set_audit(self.wl.audit)
            self.items = self.wl.inputs(self.pkg, self.seed)
            self.seen = {}
            self.run_op(0, timed=False)
            times.append(perf_counter() - start)
            start = perf_counter()
        self.attempted = self.failed = 0
        return times

    def run_op(self, index, timed=True) -> None:
        """One op, timed; its answer is checked outside the timed span.  An
        op fails if it raises (InternalInvariantError included) or if the
        check rejects its answer."""
        item = self.items[index]
        t0 = perf_counter()
        try:
            result = self.wl.op(self.pkg, item)
        except Exception as exc:
            result, error = None, exc
        else:
            error = None
        dt = perf_counter() - t0
        if error is None:
            try:
                self.wl.check(index, item, result, self.seen)
            except Exception as exc:
                error = exc
        if error is not None and len(self.errors) < 5:
            self.errors.append(f"op {index}: {type(error).__name__}: {error}")
        if timed:
            self.attempted += 1
            self.busy += dt
            if error is None:
                self.latencies.append(dt)
            else:
                self.failed += 1

    def run_pass(self, deadline=math.inf, tracer=None) -> float:
        """Every input once, in an order shuffled from the seed, so that a
        stretch of seconds in which the host runs slow falls on inputs of
        every size rather than on one tier of like inputs; stops early only
        past ``deadline``, which keeps a much slower program inside the
        run's time limit."""
        order = list(range(len(self.items)))
        random.Random(f"{self.wl.name}/order/{self.seed}").shuffle(order)
        t0 = perf_counter()
        for done, index in enumerate(order):
            if perf_counter() > deadline:
                print(f"pass cut after {done} of {len(self.items)} ops", file=sys.stderr)
                break
            if tracer is not None:
                tracer.op_id = index
            self.run_op(index)
        return perf_counter() - t0


def timed_run(runner: Runner, seconds: float) -> dict:
    """Whole passes until about ``seconds`` have elapsed, so every run
    times the same mix of inputs.  A pass is sized to take about 25 s on
    the baseline, so one pass is the usual run; the tail percentile is
    fixed by the pass size, so it does not move when a faster program fits
    more passes."""
    gc.collect()
    loop_start = perf_counter()
    deadline = loop_start + 4 * seconds
    passes = 0
    while True:
        last = runner.run_pass(deadline)
        passes += 1
        elapsed = perf_counter() - loop_start
        if elapsed + last / 2 >= seconds or elapsed > 4 * seconds:
            break
    lat = sorted(runner.latencies)
    p = tail_percentile(len(runner.items))
    print(f"passes {passes} of {len(runner.items)} ops; tail percentile p{p} of {len(lat)} ops")
    return {
        "ops_per_s": (len(lat) / runner.busy, "1/s"),
        "op_p50_s": (statistics.median(lat) if lat else math.inf, "s"),
        "op_tail_s": (nearest_rank(lat, p) if lat else math.inf, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((SRC / PACKAGE).glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def fingerprint_status(name: str, seed: int, counts: dict):
    """Compare the counts (and the digest of every answer) with an earlier
    run of the same code and seed."""
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"fingerprint-{name}-{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        status = "steady" if earlier == counts else "UNSTEADY"
    else:
        path.write_text(json.dumps(counts, sort_keys=True, indent=1), encoding="utf-8")
        status = "recorded"
    return digest, status


def traced_run(runner: Runner, seconds: float) -> dict:
    """One pass without instrumentation, then the same pass traced."""
    gc.collect()
    plain = runner.run_pass(perf_counter() + 2.5 * seconds)
    tracer = Tracer()
    tracer.install(runner.pkg)
    try:
        gc.collect()
        traced = runner.run_pass(perf_counter() + 2.5 * seconds, tracer)
    finally:
        tracer.restore()
    metrics = {k: (v, "s" if k.endswith("_s") else "ratio" if k.endswith("ratio")
                   else "bits" if "bits" in k else "count")
               for k, v in tracer.layer_metrics().items()}
    metrics["trace.overhead_ratio"] = (traced / plain - 1, "ratio")
    metrics["trace.untraced_s"] = (plain, "s")
    metrics["trace.traced_s"] = (traced, "s")
    counts = tracer.counts()
    answers = hashlib.sha256()
    for index in sorted(runner.seen):
        answers.update(json.dumps(runner.seen[index], sort_keys=True).encode())
    counts["answers"] = answers.hexdigest()[:16]
    digest, status = fingerprint_status(runner.wl.name, runner.seed, counts)
    print(f"fingerprint {digest} {status}")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.wl.name}-{runner.seed}.jsonl"
    tracer.write_spans(spans)
    print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    return metrics


def per_layer_names() -> list:
    names = [f"lp.solve.{k}" for k in ("calls", "distinct", "distinct_ratio", "rows_max",
                                       "cols_max", "nnz_total", "in_bits_max",
                                       "out_bits_max", "optimal", "infeasible", "unbounded")]
    names += [f"{layer}.{m}" for layer, ms in LAYERS.items() for m in ms]
    return names + ["trace.overhead_ratio", "trace.untraced_s", "trace.traced_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], args.seed)
    try:
        setups = runner.setup()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runner.items)} inputs; set-ups " + " ".join(f"{t:.3f}" for t in setups))
    try:
        if args.trace:
            metrics = traced_run(runner, args.seconds)
        else:
            metrics = timed_run(runner, args.seconds)
            metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    finally:
        runner.pkg.lp.set_audit(False)
    for line in runner.errors:
        print(f"failed {line}", file=sys.stderr)
    covered = runner.wl.covered(runner.items, runner.seen)
    if not covered:
        print("inputs do not cover both NCA outcomes", file=sys.stderr)
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"failed_ops_ratio {ratio:.6g} ratio ({runner.failed} of {runner.attempted})")
    if args.trace:
        metrics = {name: metrics[name] for name in per_layer_names()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and covered,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
