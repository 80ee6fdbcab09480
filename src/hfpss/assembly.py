"""From Einfty columns to homotopy groups.

Extensions are read off the towers of a column.  On the Moore targets
c2-v0 and c6-v0 (smash with the mod-2 Moore spectrum V(0)), 2 = i*eta*p
(Toda), so "2x = eta*alpha*x climbed by one cell": a column holding a
filtration-0 series with no alpha and a filtration-2 series, which must be
eta*alpha partners, merges them into a single W/4-series on the lower
generator; upper classes below the pairing threshold survive as F4
summands.  On the integral targets and on Y every extension splits.  No
stem is read: that the merges fall on the stems congruent to 2 mod 8 is a
consequence of the page, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .groupexpr import ETA_ALPHA_CLIMB, GroupExpr, Term
from .modules import PipelineError
from .monomials import Monomial
from .pages import PageStack
from .targets import Target


class ExtensionError(PipelineError):
    """A column's eta*alpha pairing failed against the page."""


def _eta_alpha_partner(lower: Term, upper: Term) -> bool:
    """Is the series `upper` the alpha^2*u*u1-shift of the series `lower`?"""
    return (upper.period == lower.period and lower.coeff == upper.coeff == "F4"
            and upper.covers(lower.mono * ETA_ALPHA_CLIMB))


@dataclass
class AssembledGroup:
    stem: int
    expr: GroupExpr
    consulted: bool                  # a column of two or more towers, as a merge needs
    merged: list[tuple[str, str]] = field(default_factory=list)  # provenance


def assemble_pi(stem: int, towers: list[Term], target: Target) -> AssembledGroup:
    """Resolve the extensions in one Einfty column from its towers alone.

    >>> from hfpss.groupexpr import parse_term
    >>> pair = [parse_term("u^{-3}F4[[u1]]"), parse_term("u^{-2}a^{2}F4[[u1]]")]
    >>> assemble_pi(6, pair, Target.C2_V0).expr.render()
    'u^{-2}a^{2}F4 + u^{-3}W/4[[u1]]'
    """
    consulted = len(towers) >= 2
    towers = list(towers)
    terms: list[Term] = []
    merged: list[tuple[str, str]] = []

    if consulted and target.mod2 and not target.y_page:
        lowers = [t for t in towers if t.filt == 0 and t.period is not None and t.mono.al == 0]
        uppers = [t for t in towers if t.filt == 2 and t.period is not None]
        if lowers and uppers:
            if len(lowers) != 1 or len(uppers) != 1:
                raise ExtensionError(f"ambiguous merge pattern at stem {stem}")
            lower, upper = lowers[0], uppers[0]
            if not _eta_alpha_partner(lower, upper):
                raise ExtensionError(
                    f"merge at stem {stem}: {upper.label()} is not "
                    f"the eta*alpha partner of {lower.label()}")
            towers.remove(lower)
            towers.remove(upper)
            terms.append(replace(lower, coeff="W/4"))
            merged.append((lower.label(), upper.label()))
            # upper classes below the pairing threshold stay as F4 summands
            terms.extend(Term(upper.scalar, Monomial(upper.mono.u, b, upper.mono.al), "F4", None)
                         for b in upper.offsets(lower.mono.u1 + 1))

    terms.extend(towers)
    return AssembledGroup(stem, GroupExpr(tuple(terms)), consulted, merged)


def assemble_all(stack: PageStack) -> dict[int, AssembledGroup]:
    """Homotopy groups for every trusted stem of the window."""
    by_stem = {n: [] for n in range(stack.window.stem_lo, stack.window.stem_hi + 1)}
    for (stem, _), towers in stack.einfty.towers.items():  # trusted stems only
        by_stem[stem].extend(towers)
    return {stem: assemble_pi(stem, towers, stack.target) for stem, towers in by_stem.items()}
