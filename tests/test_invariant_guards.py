"""The solver-status guards of the pricing and cone modules raise
InternalInvariantError, also under ``python -O``, which strips ``assert``,
and the CLI still maps a failed certificate check to exit code 2 there.

A subprocess runs with ``-O`` and with every LP forced to end "unbounded",
a status the guarded call sites never expect, or with one certificate
tampered with.  The collective duality check and the measure-vector guard
fire in process, so they run under ``-O`` whenever this file does.  So does
the scan that keeps ``assert`` statements out of the package.
"""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from collective_arb import lp, report
from collective_arb.errors import InternalInvariantError
from collective_arb.examples_builtin import example_document, write_example
from collective_arb.model_io import parse_model

_FORCED_UNBOUNDED = """
import types
from collective_arb import cones, lp, pricing
from collective_arb.errors import InternalInvariantError
from collective_arb.examples_builtin import example_document
from collective_arb.model_io import parse_model

model = parse_model(example_document("toy71"))
lp.LPBuilder.solve = lambda self: types.SimpleNamespace(status="unbounded")
assert False, "asserts must be stripped"
calls = [lambda: pricing.rho_agent_plus_dual(model.market, 0, model.claims.rows[0]),
         lambda: cones.cone_contains(model.exchange, model.claims)]
for call in calls:
    try:
        call()
    except InternalInvariantError as e:
        print("raised:", e)
"""

# the first agent's single-market witness gets a zero probability
_TAMPERED_WITNESS = """
import sys
from collective_arb import arbitrage, cli

assert False, "asserts must be stripped"
point = arbitrage.interior_point
def tampered(*args, **kwargs):
    least, (first, *rest) = point(*args, **kwargs)
    return least, ((0,) + first[1:], *rest)
arbitrage.interior_point = tampered
sys.exit(cli.main(["analyze", sys.argv[1]]))
"""


def _run_O(script, *args):
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script, *args],
                          capture_output=True, text=True, env=env)


def test_status_guards_survive_python_O():
    out = _run_O(_FORCED_UNBOUNDED)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised: single-market dual LP ended unbounded",
        "raised: membership LP ended unbounded",
    ], out.stdout + out.stderr


def test_cli_exits_2_on_a_tampered_certificate_under_python_O(tmp_path):
    out = _run_O(_TAMPERED_WITNESS, write_example("toy71", str(tmp_path)))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == "internal invariant violation: witness not strictly positive\n"


def test_duality_check_fires_when_the_price_is_minus_inf(monkeypatch):
    # toy71-span has rho_Y = -inf, and so the dual value -inf, both certified
    # by the program's ray: a hedge of the zero claim at negative cost; with
    # its cash turned around, the ray certifies nothing
    certificate = report.price_certificate

    def tampered(*args, **kwargs):
        cert = certificate(*args, **kwargs)
        if cert.value.finite:
            return cert
        m = tuple(-v for v in cert.hedge.m)
        return dataclasses.replace(cert, hedge=dataclasses.replace(cert.hedge, m=m))

    monkeypatch.setattr(report, "price_certificate", tampered)
    with pytest.raises(InternalInvariantError, match="price ray does not lower the cash"):
        report.analyze(parse_model(example_document("toy71-span")))


def test_missing_measure_vector_without_arbitrage_is_an_invariant_violation(monkeypatch):
    # tree72's cone contains RN0 and has no collective arbitrage, so Y + Y0(0)
    # has none either and cannot explain a missing measure vector
    monkeypatch.setattr(report, "find_emm_vector", lambda *args: None)
    with pytest.raises(InternalInvariantError,
                       match="measure vector disagrees with detection"):
        report.analyze(parse_model(example_document("tree72")))


def test_package_has_no_assert_statements():
    # python -O strips assert, so a runtime check in the package must raise
    package = pathlib.Path(lp.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
