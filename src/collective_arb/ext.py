"""Extended rational values: exact fractions plus +inf / -inf price codes."""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .market import frac


@total_ordering
class Ext:
    """A Fraction or an infinity; ordered, hashable, printable as '5/6',
    '-inf' or '+inf'."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: int, value=None):
        self.kind = kind  # -1, 0, +1
        self.value = value

    @classmethod
    def of(cls, v) -> "Ext":
        return cls(0, frac(v))

    @classmethod
    def neg_inf(cls) -> "Ext":
        return cls(-1)

    @classmethod
    def pos_inf(cls) -> "Ext":
        return cls(1)

    @property
    def finite(self) -> bool:
        return self.kind == 0

    def __eq__(self, other):
        other = _coerce(other)
        return self.kind == other.kind and (self.kind != 0 or self.value == other.value)

    def __lt__(self, other):
        other = _coerce(other)
        if self.kind != other.kind:
            return self.kind < other.kind
        return self.kind == 0 and self.value < other.value

    def __hash__(self):
        return hash(self.value) if self.kind == 0 else hash((self.kind, None))

    def __neg__(self):
        return Ext(-self.kind, None if self.kind else -self.value)

    def __add__(self, other):
        other = _coerce(other)
        if self.kind == 0 and other.kind == 0:
            return Ext(0, self.value + other.value)
        if -1 in (self.kind, other.kind):
            return Ext.neg_inf()  # -inf dominates: +inf - inf = -inf
        return Ext.pos_inf()

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, scalar):
        s = frac(scalar)
        if self.kind == 0:
            return Ext(0, self.value * s)
        if s == 0:
            return Ext(0, Fraction(0))
        return Ext(self.kind if s > 0 else -self.kind)

    def __str__(self):
        return {-1: "-inf", 1: "+inf"}.get(self.kind) or str(self.value)

    def __repr__(self):
        return f"Ext({self})"


def _coerce(v) -> Ext:
    if isinstance(v, Ext):
        return v
    return Ext.of(v)


def ext_sum(values) -> Ext:
    """Sum with the convention that -inf dominates +inf."""
    values = [_coerce(v) for v in values]
    if any(v.kind == -1 for v in values):
        return Ext.neg_inf()
    if any(v.kind == 1 for v in values):
        return Ext.pos_inf()
    return Ext(0, sum((v.value for v in values), Fraction(0)))


def ext_max(values) -> Ext:
    out = None
    for v in values:
        v = _coerce(v)
        if out is None or v > out:
            out = v
    if out is None:
        raise ValueError("ext_max of empty sequence")
    return out
