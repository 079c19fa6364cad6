"""The solver-status guards of the pricing and cone modules raise
InternalInvariantError, also under ``python -O``, which strips ``assert``.

A subprocess runs with ``-O`` and with every LP forced to end "unbounded",
a status the guarded call sites never expect.
"""

import os
import subprocess
import sys

from collective_arb import lp

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


def test_status_guards_survive_python_O():
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _FORCED_UNBOUNDED],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == [
        "raised: single-market dual LP ended unbounded",
        "raised: membership LP ended unbounded",
    ], out.stdout + out.stderr
