"""Golden reports: the full JSON report of every built-in model, pinned
byte for byte.

The files under ``tests/golden/`` hold ``render_json(analyze(...))`` with
all sections.  A change that moves any reported number, optimizer or
certificate fails here.  To regenerate after an intended change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import pathlib

import pytest

from collective_arb.examples_builtin import example_document, example_names
from collective_arb.model_io import parse_model
from collective_arb.report import analyze, render_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report_text(name: str) -> str:
    return render_json(analyze(parse_model(example_document(name))))


def test_every_builtin_model_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == example_names()


@pytest.mark.parametrize("name", example_names())
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_text(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for model_name in example_names():
        (GOLDEN / f"{model_name}.json").write_text(report_text(model_name), encoding="utf-8")
