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

    def _key(self):
        return self.kind, self.value if self.kind == 0 else 0

    def __eq__(self, other):
        return self._key() == _coerce(other)._key() if _exact(other) else NotImplemented

    def __lt__(self, other):
        return self._key() < _coerce(other)._key() if _exact(other) else NotImplemented

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


def _exact(v) -> bool:
    """An Ext, an int that is not a bool, or a Fraction: what an Ext compares with and adds."""
    return isinstance(v, (Ext, int, Fraction)) and not isinstance(v, bool)


def _coerce(v) -> Ext:
    if not _exact(v):
        raise TypeError(f"not an exact rational: {v!r}")
    return v if isinstance(v, Ext) else Ext.of(v)


def ext_sum(values) -> Ext:
    """Sum with the convention that -inf dominates +inf."""
    return sum(values, Ext.of(0))


def ext_max(values) -> Ext:
    return max(map(_coerce, values))
