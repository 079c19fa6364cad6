"""The demo scripts print exactly what they printed when their golden files
were written.

Each script in ``demos/`` runs in a subprocess with the package's source
directory on ``PYTHONPATH``; its stdout must equal
``tests/golden/demos/<name>.txt`` byte for byte.  To regenerate after an
intended change:

    for f in demos/*.py; do PYTHONPATH=src python3 "$f" > "tests/golden/demos/$(basename "$f" .py).txt"; done
"""

import os
import pathlib
import subprocess
import sys

import pytest

from collective_arb import lp

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden_file():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(script):
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (GOLDEN / f"{script.stem}.txt").read_bytes()
