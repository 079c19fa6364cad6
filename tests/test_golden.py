"""Golden files: the full JSON report of every built-in model, and the
listing of every LP its analysis solves, pinned byte for byte.

``tests/golden/<name>.json`` holds ``render_json(analyze(...))`` with all
sections.  A change that moves any reported number, optimizer or
certificate fails there.  ``tests/golden/<name>.lp.txt`` holds the
``--dump-lp`` listing of the same analysis: every program in solve
order, with its variable and row order.  The simplex uses Bland's rule, so
column order alone can change a reported optimizer; the listing catches such
a change even where the report happens to stay the same.  To regenerate both
kinds after an intended change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import pathlib

import pytest

from collective_arb import lp
from collective_arb.examples_builtin import example_document, example_names
from collective_arb.model_io import load_model, parse_model
from collective_arb.report import analyze, render_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report_text(name: str) -> str:
    return render_json(analyze(parse_model(example_document(name))))


def solved_programs(name: str) -> list:
    sink = []
    with lp.observe(lambda program, outcome: sink.append(program.to_text())):
        analyze(parse_model(example_document(name)))
    return sink


def lp_listing(name: str) -> str:
    return "".join(f"--- LP {k + 1} ---\n{text}\n"
                   for k, text in enumerate(solved_programs(name)))


def test_every_builtin_model_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == example_names()
    assert sorted(p.name[:-len(".lp.txt")] for p in GOLDEN.glob("*.lp.txt")) == example_names()


@pytest.mark.parametrize("name", example_names())
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_text(name) == expected


@pytest.mark.parametrize("name", example_names())
def test_lp_listing_matches_golden(name):
    expected = (GOLDEN / f"{name}.lp.txt").read_text(encoding="utf-8")
    assert lp_listing(name) == expected


@pytest.mark.parametrize("name", example_names())
def test_analysis_solves_each_program_once(name):
    # One analysis hands its prices and witnesses along instead of solving
    # them again.
    programs = solved_programs(name)
    assert len(set(programs)) == len(programs)


def test_grouping_tree_report_is_pinned_and_reads_pi_off_the_hedge():
    """A T=2, N=5 binomial tree with the two cash groups {0, 1} and
    {2, 3, 4}: pi_Y = 43/40 is not rho_Y / 5 = 413/450, and the report is
    pinned byte for byte.  Both pi_Y and pi_Y_minus are read off the
    verified hedges of rho_Y and of rho_+(-g), so the analysis solves no
    shared-cash program.  Every agent trades one asset on the tree, so its
    market is complete: the interior points and the agents' prices are read
    off exact eliminations, and 4 programs are left (15 before they were).
    The model is ``bench/trees.py``'s draw, made with

        python3 -c 'import json, random, sys; sys.path.insert(0, "bench"); import trees; print(json.dumps(trees.tree_doc(random.Random("grouping/2/5"), 2, 5, "differ", {"kind": "grouping", "t": 1, "groups": [[0, 1], [2, 3, 4]]}, clusters=[0, 0, 1, 1, 1]), indent=2))' > tests/golden/large/tree-T2N5-grouping.json

    and the golden is its ``render_json(analyze(load_model(...)))``."""
    model = load_model(str(GOLDEN / "large" / "tree-T2N5-grouping.json"))
    assert model.exchange.meta.groups == ((0, 1), (2, 3, 4))
    sink = []
    with lp.observe(lambda program, outcome: sink.append(program.to_text())):
        report = render_json(analyze(model))
    expected = GOLDEN / "large" / "tree-T2N5-grouping.report.json"
    assert report == expected.read_text(encoding="utf-8")
    assert len(sink) == 4
    assert not any(text.startswith("min: 1 m\n") for text in sink)


def test_large_shared_tree_report_is_pinned_and_solves_two_programs():
    """The acceptance tier of a large market: a T=6, N=3 binomial tree (64
    atoms) whose agents share one measure, with the cone Y0(5).  Each agent
    trades one asset, so each agent's market is complete: every interior
    point, both arbitrage searches and every agent's price are read off
    exact eliminations of equality rows, and the analysis solves 2 programs
    (14 before): rho_Y's and the fairness canonical exchange.  The report
    is pinned byte for byte; it was made before the eliminations, with every
    program solved.  ``analyze`` took 2.8 s of CPU before and 0.9 s after
    (best of three, Python 3.11.7 on a shared 2-CPU host).  The model is
    ``bench/trees.py``'s draw, made with

        python3 -c 'import json, random, sys; sys.path.insert(0, "bench"); import trees; print(json.dumps(trees.tree_doc(random.Random("x/6/3"), 6, 3, "shared", {"kind": "Y0", "t": 5}), indent=2))' > tests/golden/large/tree-T6N3-shared.json

    and the golden is its ``render_json(analyze(load_model(...)))``."""
    model = load_model(str(GOLDEN / "large" / "tree-T6N3-shared.json"))
    solved = []
    with lp.observe(lambda program, outcome: solved.append(program)):
        report = render_json(analyze(model))
    expected = GOLDEN / "large" / "tree-T6N3-shared.report.json"
    assert report == expected.read_text(encoding="utf-8")
    assert len(solved) == 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for model_name in example_names():
        (GOLDEN / f"{model_name}.json").write_text(report_text(model_name), encoding="utf-8")
        (GOLDEN / f"{model_name}.lp.txt").write_text(lp_listing(model_name), encoding="utf-8")
