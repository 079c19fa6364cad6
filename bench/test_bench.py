"""Tests of the benchmark itself: seeded inputs, deterministic counts,
coverage of the held-out seed and the reference check."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run as bench
import trees
from tracer import Tracer

SEEDS = (bench.DEFAULT_SEED, bench.HELD_OUT_SEED)


@pytest.fixture
def pkg():
    """A fresh import of the package, with the previous modules put back
    afterwards so other test modules keep the objects they imported."""
    prefix = bench.PACKAGE
    saved = {k: v for k, v in sys.modules.items() if k == prefix or k.startswith(prefix + ".")}
    try:
        yield bench.load_package()
    finally:
        for k in [k for k in sys.modules if k == prefix or k.startswith(prefix + ".")]:
            del sys.modules[k]
        sys.modules.update(saved)


def runner_for(pkg, name, seed, n_items):
    runner = bench.Runner(bench.WORKLOADS[name], seed)
    runner.pkg = pkg
    runner.items = runner.wl.inputs(pkg, seed)[:n_items]
    return runner


def traced_counts(pkg, name, seed, n_items):
    runner = runner_for(pkg, name, seed, n_items)
    pkg.lp.set_audit(runner.wl.audit)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        runner.run_pass()
    finally:
        tracer.restore()
        pkg.lp.set_audit(False)
    assert runner.failed == 0, runner.errors
    return tracer.counts()


@pytest.mark.parametrize("generate", [trees.tree_ladder, trees.agents_wide])
def test_tree_inputs_repeat_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_battery_inputs_repeat_per_seed(pkg):
    def shape(items):
        return [(m.assets, m.agents, m.space, c.generators, info, g.rows, s)
                for m, c, info, g, s in items]

    assert shape(bench.battery.instances(pkg, 7)) == shape(bench.battery.instances(pkg, 7))
    assert shape(bench.battery.instances(pkg, 7)) != shape(bench.battery.instances(pkg, 8))


@pytest.mark.parametrize("name,n_items", [("tree_ladder", 6), ("agents_wide", 2),
                                          ("battery_audited", 12)])
def test_counts_repeat_per_seed(pkg, name, n_items):
    first = traced_counts(pkg, name, bench.DEFAULT_SEED, n_items)
    assert first["lp.solve.calls"] > 0
    assert traced_counts(pkg, name, bench.DEFAULT_SEED, n_items) == first


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generate", [trees.tree_ladder, trees.agents_wide])
def test_tree_seeds_cover_both_regimes_and_outcomes(generate, seed):
    docs = generate(seed)
    predictions = [reference.predict(doc)["nca"] for doc in docs]
    assert set(predictions) == {True, False}
    measures = [reference.agent_measures(doc) for doc in docs]
    agree = [all(q == m[0] for q in m) for m in measures]
    assert 0 < sum(agree) < len(docs)


@pytest.mark.parametrize("seed", SEEDS)
def test_battery_seeds_cover_both_nca_outcomes(pkg, seed):
    outcomes = [pkg.arbitrage.detect_NCA(market, cone).found
                for market, cone, _, _, _ in bench.battery.instances(pkg, seed)]
    assert 0 < sum(outcomes) < len(outcomes)


def test_reference_matches_report(pkg):
    runner = runner_for(pkg, "tree_ladder", bench.HELD_OUT_SEED, 4)
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (8, 0), runner.errors


def test_perturbed_rho_i_counts_as_failed_op(pkg):
    runner = runner_for(pkg, "tree_ladder", bench.DEFAULT_SEED, 1)
    honest = runner.wl.op

    def perturbed(pkg, item):
        report = json.loads(honest(pkg, item))
        report["pricing"]["rho_i"][0] += "+1"
        return json.dumps(report)

    runner.wl = bench.TreeWorkload("tree_ladder", trees.tree_ladder)
    runner.wl.op = perturbed
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "rho_i" in runner.errors[0]


def test_tail_percentile_leaves_ten_beyond():
    for n in (11, 28, 36, 216, 1000):
        p = bench.tail_percentile(n)
        assert n - -(-p * n // 100) >= 10
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10


def test_refuses_to_run_without_package_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in Path(bench.BENCH).iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((bench.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "tree_ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_file_lists_what_the_runs_print():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == bench.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
