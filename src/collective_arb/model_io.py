"""Model-file ingestion: JSON documents describing market, exchange, claims.

Schema (all rationals are strings like "5/6" or "3"; plain ints accepted,
floats rejected):

    {
      "atoms": ["w1", ...],
      "prob": ["1/2", ...],
      "times": T,
      "global_filtration": [[block, ...], ...]   # one partition per time,
                                                 # blocks are label lists
      "assets": {"X1": [row_0, ..., row_T], ...} # row: scalar or per-atom list
      "agents": [{"assets": ["X1"], "filtration": "global" | partitions}, ...],
      "exchange": cone spec (optional),
      "claims": [per-atom row per agent] (optional)
    }

Cone specs: {"kind":"Y0","t":t} | {"kind":"grouping","groups":[[...]],"t":t}
| {"kind":"span","generators":[matrix...]} | {"kind":"sum","parts":[...]}
| {"kind":"zero"}.

Objects and arrays nest at most 256 deep, which leaves room for a sum cone
about 127 deep; a deeper document is rejected, from any caller alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .cones import ExchangeCone, cone_add, make_grouping, make_span, make_Y0, make_zero
from .errors import ValidationError
from .market import MarketModel, build_market
from .pricing import ClaimVector, claim_vector


@dataclass(frozen=True)
class ModelFile:
    market: MarketModel
    exchange: Optional[ExchangeCone]
    claims: Optional[ClaimVector]


# the float scan and the cone parser recurse once per level; a bound of the
# document's own keeps them inside Python's recursion limit from any caller
_MAX_DEPTH = 256
_TOO_DEEP = "the document is nested too deeply"


def _reject_floats(node, path="$", depth=1):
    if isinstance(node, float):
        raise ValidationError(path, "rationals must be strings like '5/6', not floats")
    if isinstance(node, (dict, list)) and depth > _MAX_DEPTH:
        raise ValidationError("$", _TOO_DEEP)
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_floats(v, f"{path}.{k}", depth + 1)
    elif isinstance(node, list):
        for k, v in enumerate(node):
            _reject_floats(v, f"{path}[{k}]", depth + 1)


def parse_cone(spec, market: MarketModel) -> ExchangeCone:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("exchange", "cone spec must be an object with 'kind'")
    for key in ("groups", "generators", "parts"):
        if not isinstance(spec.get(key, []), list):
            raise ValidationError(f"exchange.{key}", "must be a list")
    kind = spec["kind"]
    if kind == "zero":
        return make_zero(market)
    if kind == "Y0":
        if "t" not in spec:
            raise ValidationError("exchange", "Y0 cone needs a time 't'")
        return make_Y0(market, spec["t"])
    if kind == "grouping":
        return make_grouping(market, spec.get("groups", []), spec.get("t", market.T))
    if kind == "span":
        return make_span(market, spec.get("generators", []))
    if kind == "sum":
        parts = spec.get("parts", [])
        if not parts:
            raise ValidationError("exchange", "sum cone needs parts")
        cone = parse_cone(parts[0], market)
        for part in parts[1:]:
            cone = cone_add(market, cone, parse_cone(part, market))
        return cone
    raise ValidationError("exchange", f"unknown cone kind {kind!r}")


def parse_model(doc: dict) -> ModelFile:
    _reject_floats(doc)
    market = build_market(doc)
    exchange = None
    if "exchange" in doc:
        exchange = parse_cone(doc["exchange"], market)
    claims = None
    if "claims" in doc:
        claims = claim_vector(market, doc["claims"])
    return ModelFile(market=market, exchange=exchange, claims=claims)


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(path, f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(path, f"cannot read the file: {e}")
    except RecursionError:  # json.load recurses before any depth check
        raise ValidationError(path, _TOO_DEEP) from None
    if not isinstance(doc, dict):
        raise ValidationError(path, "top-level JSON value must be an object")
    return parse_model(doc)
