"""From Einfty columns to homotopy groups.

Extensions are resolved by one declared table, MERGE_STEMS_MOD_8, never
inferred.  On the mod-2 targets the only nonsplit extensions pair a filtration-0 tower with
the filtration-2 tower one u1-step and one u-step above it (the relation
"2x = eta*alpha*x climbed by one cell"); the pair merges into a single
W/4-series on the filtration-0 generator and any upper classes below the
pairing threshold survive as separate F4 summands.  These pairs occur
exactly in stems congruent to 2 mod 8.  On the integral targets and on
the smash-with-Y target every extension splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .groupexpr import ETA_ALPHA_CLIMB, GroupExpr, Term
from .modules import PipelineError
from .monomials import Monomial
from .pages import PageStack
from .targets import Target


class ExtensionError(PipelineError):
    """A merge stem's pairing predicate failed against the page."""


# Stems, mod 8, where an eta*alpha pair merges; every other extension splits.
MERGE_STEMS_MOD_8 = {Target.C2_V0: 2, Target.C6_V0: 2}


def _eta_alpha_partner(lower: Term, upper: Term) -> bool:
    """Is `upper` the alpha^2*u*u1-shift of the series `lower`?"""
    return (lower.period is not None and upper.period == lower.period
            and lower.mono.al == 0
            and lower.coeff == upper.coeff == "F4"
            and upper.covers(lower.mono * ETA_ALPHA_CLIMB))


@dataclass
class AssembledGroup:
    stem: int
    expr: GroupExpr
    consulted: bool                  # a merge stem, or a column of two or more towers
    merged: list[tuple[str, str]] = field(default_factory=list)  # provenance


def assemble_pi(stem: int, towers: list[Term], target: Target) -> AssembledGroup:
    """Resolve the extensions in one Einfty column."""
    merge = stem % 8 == MERGE_STEMS_MOD_8.get(target)
    consulted = len(towers) >= 2 or merge

    towers = list(towers)
    terms: list[Term] = []
    merged: list[tuple[str, str]] = []

    if merge:
        lowers = [t for t in towers if t.filt == 0 and t.period is not None
                  and t.mono.al == 0]
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
            terms.extend(Term(upper.scalar, Monomial(upper.mono.u, b, upper.mono.al),
                              "F4", None)
                         for b in upper.offsets(lower.mono.u1 + 1))

    terms.extend(towers)
    return AssembledGroup(stem, GroupExpr(tuple(terms)), consulted, merged)


def assemble_all(stack: PageStack) -> dict[int, AssembledGroup]:
    """Homotopy groups for every trusted stem of the window."""
    by_stem = {n: [] for n in range(stack.window.stem_lo, stack.window.stem_hi + 1)}
    for (stem, _), towers in stack.einfty.towers.items():  # trusted stems only
        by_stem[stem].extend(towers)
    return {stem: assemble_pi(stem, towers, stack.target) for stem, towers in by_stem.items()}
