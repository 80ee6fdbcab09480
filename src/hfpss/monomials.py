"""Monomials u^a u1^b alpha^c, their grading, and the named-class registry.

Grading conventions (Adams chart coordinates):

    |u| = -2, |u1| = 0, alpha in filtration 1 with internal degree 2,

so the monomial u^a u1^b alpha^c has internal degree t = -2a + 2c,
filtration s = c, stem n = t - s = -2a + c.

A cyclic group of order 3 acts on everything; u and u1 carry weight 1 and
alpha weight 2, so the weight of a monomial is (a + b + 2c) mod 3.  The
weight-0 monomials span the C6-family pages inside the C2-family pages.

Canonical text format is "u^{a}u1^{b}a^{c}" with zero exponents omitted,
exponent 1 written without a caret, and the unit monomial rendered "1".

>>> str(Monomial(-2, 0, 1))
'u^{-2}a'
>>> parse_monomial("u^{-4}u1") * NAMED["alpha"]
Monomial(u=-4, u1=1, al=1)
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Monomial(NamedTuple):
    u: int    # exponent of u (any sign)
    u1: int   # exponent of u1 (>= 0)
    al: int   # exponent of alpha (>= 0)

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(self.u + other.u, self.u1 + other.u1, self.al + other.al)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.u * n, self.u1 * n, self.al * n)

    @property
    def degree(self) -> int:
        """Internal degree t."""
        return -2 * self.u + 2 * self.al

    @property
    def filt(self) -> int:
        return self.al

    @property
    def stem(self) -> int:
        return -2 * self.u + self.al

    @property
    def weight(self) -> int:
        return (self.u + self.u1 + 2 * self.al) % 3

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.stem, self.filt)

    def is_one(self) -> bool:
        return self == ONE

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for sym, e in (("u", self.u), ("u1", self.u1), ("a", self.al)):
            if e == 0:
                continue
            parts.append(sym if e == 1 else f"{sym}^{{{e}}}")
        return "".join(parts)


ONE = Monomial(0, 0, 0)

_FACTOR = re.compile(r"\s*(u1|u|a)\s*(?:\^\s*(?:\{\s*(-?\d+)\s*\}|(-?\d+)))?")


def parse_monomial(s: str) -> Monomial:
    """Parse a monomial; factors may appear in any order, braces optional.

    >>> parse_monomial("a^3") == parse_monomial("a^{3}")
    True
    >>> parse_monomial("1")
    Monomial(u=0, u1=0, al=0)
    """
    s = s.strip()
    if s in ("1", ""):
        return ONE
    exps = {"u": 0, "u1": 0, "a": 0}
    pos = 0
    while pos < len(s):
        m = _FACTOR.match(s, pos)
        if not m:
            raise ValueError(f"bad monomial {s!r} at position {pos}")
        sym = m.group(1)
        e = m.group(2) or m.group(3)
        exps[sym] += int(e) if e is not None else 1
        pos = m.end()
    if exps["u1"] < 0 or exps["a"] < 0:
        raise ValueError(f"negative u1/a exponent in {s!r}")
    return Monomial(exps["u"], exps["u1"], exps["a"])


# ---------------------------------------------------------------------------
# Named classes.  These are the standing abbreviations used on the charts
# and in the homotopy group tables; every one of them is weight 0.

NAMED: dict[str, Monomial] = {
    "u": Monomial(1, 0, 0),
    "u1": Monomial(0, 1, 0),
    "alpha": Monomial(0, 0, 1),
    "h": Monomial(1, 0, 1),           # h = alpha * u
    "v1": Monomial(-1, 1, 0),         # u1 u^-1
    "v2": Monomial(-3, 0, 0),         # u^-3
    "j0": Monomial(0, 3, 0),          # u1^3
    "w5": Monomial(-2, 0, 1),         # u^-2 alpha
    "v1v2": Monomial(-4, 1, 0),       # u1 u^-4
    "v2sq": Monomial(-6, 0, 0),       # u^-6
    "eta": Monomial(0, 1, 1),         # alpha u1
    "g": Monomial(2, 0, 2),           # w5^2 / v2sq = alpha^2 u^2
    "v1sq": Monomial(-2, 2, 0),       # v1v2^2 / v2sq = u1^2 u^-2
    "mu": Monomial(-2, 3, 1),         # eta * v1sq
    "nu": Monomial(0, 0, 3),          # alpha^3
    "kappabar": Monomial(-8, 0, 4),   # alpha^4 u^-8
}
