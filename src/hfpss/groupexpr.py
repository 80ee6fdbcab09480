"""The homotopy-group table grammar.

A group expression is a formal sum of terms

    term := [2-power] monomial coeff [series]
    coeff := "W" | "W/4" | "F4"
    series := "[[u1]]" | "[[u1^3]]"

for example "2u^{-4}W + u^{-4}u1W[[u1]]" or "a^{2}F4 + u^{-1}W/4[[u1]]".
The zero group renders as "0".  Parsing is permissive about whitespace,
factor order, and braces; render(parse(s)) is the canonical form.

A term is also what tower recognition on a computed page returns, so
pages, assembly, charts, the long exact sequences and serialization all
read one record.  Every term determines a truncated module over W/2^K
once (K, N) are fixed: a series term expands into one cyclic summand per
u1-exponent offset, offset+period, ... below N (Term.offsets); W
summands are free-at-K.  Term.covers tests membership in the untruncated
series.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .modules import HfpssError, Summand
from .monomials import Monomial, parse_monomial


class GroupExprError(HfpssError, ValueError):
    pass


# One 2-extension step, alpha^2 * u * u1 (2x = eta*alpha*x climbed by one
# cell): a W/4 term is an F4 series merged with the F4 series one step above.
ETA_ALPHA_CLIMB = Monomial(1, 1, 2)


@dataclass(frozen=True)
class Term:
    scalar: int              # 2-power prefix exponent
    mono: Monomial           # generator; its u1-exponent is the series offset
    coeff: str               # "W", "W/4", "F4"
    period: int | None       # series period, None for a single summand

    def __post_init__(self):
        if self.coeff not in ("W", "W/4", "F4"):
            raise GroupExprError(f"unknown coefficient {self.coeff!r}")
        if self.period not in (None, 1, 3):
            raise GroupExprError(f"unsupported series period {self.period}")

    @property
    def stem(self) -> int:
        return self.mono.stem

    @property
    def filt(self) -> int:
        return self.mono.filt

    @property
    def free(self) -> bool:
        return self.coeff == "W"

    def label(self) -> str:
        """Generator name: scalar prefix and monomial, without coefficient."""
        prefix = "" if self.scalar == 0 else str(1 << self.scalar)
        return prefix + str(self.mono)

    def offsets(self, N: int) -> range:
        """u1-exponents of the slots below N (one for an isolated class).

        >>> list(parse_term("u1F4[[u1^3]]").offsets(8))
        [1, 4, 7]
        >>> list(parse_term("u1^{5}F4").offsets(5))
        []
        """
        if self.period is None:
            return range(self.mono.u1, min(self.mono.u1 + 1, N))
        return range(self.mono.u1, N, self.period)

    def covers(self, mono: Monomial) -> bool:
        """Does mono generate one of the untruncated slots of this term?"""
        g = self.mono
        step = mono.u1 - g.u1
        if mono.u != g.u or mono.al != g.al or step < 0:
            return False
        return step == 0 if self.period is None else step % self.period == 0

    def render(self) -> str:
        parts = []
        if self.scalar:
            parts.append(str(1 << self.scalar))
        if not self.mono.is_one():
            parts.append(str(self.mono))
        parts.append(self.coeff)
        if self.period == 1:
            parts.append("[[u1]]")
        elif self.period == 3:
            parts.append("[[u1^3]]")
        return "".join(parts)


def _term_key(t: Term) -> tuple[int, int, int, int]:
    return (-t.mono.al, t.mono.u1, t.mono.u, -t.scalar)


@dataclass(frozen=True)
class GroupExpr:
    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=_term_key)))

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    def __str__(self) -> str:
        return self.render()


ZERO_GROUP = GroupExpr(())

_TERM = re.compile(
    r"^\s*(?P<scalar>\d+)?\s*(?P<body>[^\[\]]*?)\s*"
    r"(?P<coeff>W/4|W|F4)\s*"
    r"(?P<series>\[\[\s*u1\s*(?:\^\s*(?:\{\s*3\s*\}|3))?\s*\]\])?\s*$")


def parse_term(s: str) -> Term:
    m = _TERM.match(s)
    if not m:
        raise GroupExprError(f"cannot parse term {s!r}")
    scalar_txt = m.group("scalar")
    scalar = 0
    if scalar_txt:
        n = int(scalar_txt)
        if n < 1 or n & (n - 1):
            raise GroupExprError(f"scalar prefix {n} is not a 2-power")
        scalar = n.bit_length() - 1
    mono = parse_monomial(m.group("body"))
    period = None
    if m.group("series"):
        period = 3 if "3" in m.group("series") else 1
    return Term(scalar, mono, m.group("coeff"), period)


def parse_group_expr(s: str) -> GroupExpr:
    """Parse a sum of terms; "0" is the zero group.

    >>> parse_group_expr("W[[u1^3]]").terms[0].period
    3
    >>> parse_group_expr("a^3F4 + a u^{-1}u1^2 F4[[u1^3]]").render()
    'a^{3}F4 + u^{-1}u1^{2}aF4[[u1^3]]'
    """
    s = s.strip()
    if s == "0":
        return ZERO_GROUP
    parts = [p for p in s.split("+") if p.strip()]
    if not parts:
        raise GroupExprError(f"empty group expression {s!r}")
    return GroupExpr(tuple(parse_term(p) for p in parts))


def term_order_exp(t: Term, K: int) -> int:
    if t.coeff == "W":
        if t.scalar >= K:
            raise GroupExprError(f"scalar 2^{t.scalar} vanishes at K={K}")
        return K - t.scalar
    if t.coeff == "W/4":
        if K < 3:
            raise GroupExprError("W/4 terms need K >= 3 to be distinguishable")
        return 2
    return 1


def truncate_term(t: Term, K: int, N: int) -> list[Summand]:
    order = term_order_exp(t, K)
    return [Summand(t.scalar, Monomial(t.mono.u, b, t.mono.al), order, t.free)
            for b in t.offsets(N)]


def truncate_group(g: GroupExpr, K: int, N: int) -> list[Summand]:
    """Canonical truncated module: one cyclic summand per series slot.

    >>> [s.order for s in truncate_group(parse_group_expr("W/4[[u1]]"), 3, 4)]
    [2, 2, 2, 2]
    >>> len(truncate_group(parse_group_expr("u1F4[[u1]]"), 3, 4))
    3
    """
    out = []
    for t in g.terms:
        out.extend(truncate_term(t, K, N))
    out.sort(key=lambda s: (s.order, s.mono.u1, s.mono.u, s.mono.al, s.scalar))
    return out


def iso_invariants(g: GroupExpr, K: int, N: int) -> list[int]:
    """Multiset of cyclic summand orders at truncation (K, N): per term,
    its order once per slot, as truncate_group counts them (and raises)."""
    return sorted(o for t in g.terms for o in [term_order_exp(t, K)] * len(t.offsets(N)))
