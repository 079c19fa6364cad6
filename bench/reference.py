"""Independent reference answers for the tree workloads, in exact Fractions.

Nothing here imports the package.  Each agent's market is a complete
binomial market, so it has one martingale measure Q_i, read off the price
tree node by node.  From the Q_i alone this module predicts:

* ``pricing.rho_i[i]`` = E_{Q_i}[g_i] (complete-market replication cost);
* ``table["NCA(Y)"]``: no collective arbitrage exactly when the Q_i agree
  on every block of the cone's settlement partition (within each group,
  for a grouping cone);
* ``pricing.rho_Y`` = sum_i E_{Q_i}[g_i] when NCA(Y) holds and -inf when
  it fails, since the compatible measure vector, if any, is (Q_1..Q_N).
"""

from __future__ import annotations

import json
from fractions import Fraction


class ReferenceMismatch(Exception):
    """A report disagrees with the reference answer."""


def agent_measures(doc: dict) -> list:
    """Q_i as atom probabilities, one list per agent."""
    T = doc["times"]
    n = len(doc["atoms"])
    out = []
    for agent in doc["agents"]:
        rows = [[Fraction(v) for v in r] for r in doc["assets"][agent["assets"][0]]]
        q = [Fraction(1)] * n
        for t in range(1, T + 1):
            for block in _blocks(doc, t - 1):
                s = rows[t - 1][block[0]]
                up, down = rows[t][block[0]], rows[t][block[-1]]
                p_up = (s - down) / (up - down)
                half = len(block) // 2
                for k in block[:half]:
                    q[k] *= p_up
                for k in block[half:]:
                    q[k] *= 1 - p_up
        out.append(q)
    return out


def _blocks(doc: dict, t: int) -> list:
    index = {a: k for k, a in enumerate(doc["atoms"])}
    return [[index[a] for a in blk] for blk in doc["global_filtration"][t]]


def predict(doc: dict) -> dict:
    """Reference answers for one document."""
    Q = agent_measures(doc)
    cone = doc["exchange"]
    if cone["kind"] == "Y0":
        groups = [list(range(len(Q)))]
    elif cone["kind"] == "grouping":
        groups = cone["groups"]
    else:
        raise ValueError(f"no reference for cone kind {cone['kind']!r}")
    blocks = _blocks(doc, cone["t"])
    nca = all(sum(Q[i][k] for k in blk) == sum(Q[g[0]][k] for k in blk)
              for g in groups for i in g for blk in blocks)
    rho_i = [sum((q * Fraction(v) for q, v in zip(Q[i], doc["claims"][i])), Fraction(0))
             for i in range(len(Q))]
    return {
        "rho_i": [str(v) for v in rho_i],
        "nca": nca,
        "rho_Y": str(sum(rho_i)) if nca else "-inf",
    }


def check_report(expected: dict, report_text: str) -> None:
    """Raise ReferenceMismatch unless the JSON report matches ``expected``."""
    report = json.loads(report_text)
    pricing = report["pricing"]
    got = {"rho_i": pricing["rho_i"], "nca": report["table"]["NCA(Y)"],
           "rho_Y": pricing["rho_Y"]}
    for key, want in expected.items():
        if got[key] != want:
            raise ReferenceMismatch(f"{key}: report has {got[key]!r}, reference {want!r}")
