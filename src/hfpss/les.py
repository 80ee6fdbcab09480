"""Long exact sequence order checks on assembled homotopy groups.

Two cofiber sequences constrain the computed groups:

    (2)    X --2--> X --> X ^ V(0)            X the integral C2 tower,
    (eta)  S^1 ^ W --eta--> W --> W ^ C_eta   W the mod-2 C6 tower,

giving short exact sequences

    0 -> coker(2 | pi_n) -> pi_n(mod 2) -> ker(2 | pi_{n-1}) -> 0,
    0 -> coker(eta: pi_{n-1} -> pi_n) -> pi_n(^Y)
                                      -> ker(eta: pi_{n-2} -> pi_{n-1}) -> 0.

Orders of u1-truncated groups only match when both sides are counted
against the same u1 horizon.  Two conventions make that exact:

* a W/4 series counts 2 per fully-paired slot and 1 for the boundary
  slot whose extension partner lies beyond the horizon (which is also
  what the truncated Einfty column contains), and
* reduction mod 2 of a class with a 2-power prefix climbs the chart by
  one u1-step per factor of 2 (the eta*alpha extension pattern), so a
  free tower slot at u1-degree b with prefix 2^j contributes to the
  mod-2 group at u1-degree b + j and is counted only when b + j < N.

Kernel membership of a slot is decided in the untruncated model: a
multiplication whose image lies beyond the horizon is still injective
there, it just contributes no in-horizon image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .groupexpr import ETA_ALPHA_CLIMB, ZERO_GROUP, GroupExpr, Term, truncate_term
from .modules import HfpssError, Summand
from .monomials import Monomial
from .targets import Window

ETA = Monomial(0, 1, 1)


class LESError(HfpssError):
    pass


def expand_slots(expr: GroupExpr, K: int, N: int) -> list[Summand]:
    """Horizon-honest summands of a truncated group expression.

    These are groupexpr's summands, except that a W/4 slot whose partner
    (the swallowed filtration-2 class, one climb step up) lies at or
    above N counts as order 1.  So a W/4 slot in the horizon is exactly a
    slot that is not free and has order 2.

    >>> from hfpss.groupexpr import parse_group_expr
    >>> slots = expand_slots(parse_group_expr("u^{-1}W/4[[u1]]"), 3, 12)
    >>> [s.order for s in slots].count(2), [s.order for s in slots].count(1)
    (11, 1)
    """
    slots = []
    for t in expr.terms:
        for s in truncate_term(t, K, N):
            if t.coeff == "W/4" and (s.mono * ETA_ALPHA_CLIMB).u1 >= N:
                s = replace(s, order=1)
            slots.append(s)
    return slots


def degraded_log4(expr: GroupExpr, K: int, N: int) -> int:
    """log4 of the truncated order, with boundary-degraded W/4 slots."""
    return sum(s.order for s in expand_slots(expr, K, N))


def _lookup(expr: GroupExpr, mono: Monomial) -> tuple[Term, Monomial, int] | None:
    """(term, slot, depth) of mono in the untruncated group: depth 0 if mono
    is the slot, 1 if it is the partner of a W/4 slot, one climb step up."""
    c = ETA_ALPHA_CLIMB
    below = Monomial(mono.u - c.u, mono.u1 - c.u1, mono.al - c.al)
    for depth, slot in ((0, mono), (1, below)):
        for t in expr.terms:
            if t.covers(slot) and (depth == 0 or t.coeff == "W/4"):
                return t, slot, depth
    return None


@dataclass
class StemCheck:
    stem: int
    lhs: int
    coker: int
    ker: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.coker + self.ker


def check_two_les(c2_groups: dict[int, GroupExpr], v0_groups: dict[int, GroupExpr],
                  window: Window) -> list[StemCheck]:
    """|pi_n(mod 2)| = |coker(2 | pi_n)| * |ker(2 | pi_{n-1})| stem by stem."""
    K, N, lo, hi = window.K, window.N, window.stem_lo, window.stem_hi
    c2 = {n: expand_slots(c2_groups.get(n, ZERO_GROUP), K, N) for n in range(lo - 1, hi + 1)}
    out = []
    for n in range(lo, hi + 1):
        v0 = v0_groups.get(n, ZERO_GROUP)
        lhs = degraded_log4(v0, K, N)

        # coker(2): one F4 unit per summand, landing at u1-degree b + scalar.
        coker = sum(1 for s in c2[n] if s.mono.u1 + s.scalar < N)

        # ker(2): one F4 unit per finite summand, none for free towers; the
        # unit is hit by the class alpha*u steps below it on the mod-2 side.
        ker = 0
        for s in c2[n - 1]:
            if s.free:
                continue
            ker += 1
            if s.mono.al >= 1:
                preimage = Monomial(s.mono.u - 1, s.mono.u1, s.mono.al - 1)
                if _lookup(v0, preimage) is None:
                    raise LESError(
                        f"stem {n}: ker(2) class {s.mono} has no top-cell "
                        f"preimage {preimage} in the mod-2 group")
        out.append(StemCheck(n, lhs, coker, ker))
    return out


def _eta_map_counts(src: list[Summand], dst: GroupExpr,
                    dst_slots: list[Summand]) -> tuple[int, int]:
    """(in-horizon image log4, kernel log4) of eta: src -> dst."""
    by_mono = {s.mono: s for s in dst_slots}
    # image subgroup exponent accumulated per target slot
    image_t: dict[Monomial, int] = {}
    ker = 0
    for s in src:
        e, tgt = s.order, s.mono * ETA
        found = _lookup(dst, tgt)
        if found is None:
            ker += e
            continue
        t, gen, depth = found
        hit = by_mono.get(gen)
        if hit is not None and (depth == 0 or hit.order == 2):  # tgt in the horizon
            f = hit.order
            ker += e - min(e, f - depth)
            image_t[gen] = min(image_t.get(gen, f), max(depth, f - e))
        elif t.period is not None:
            # maps out past the horizon: kernel as in the infinite model,
            # but no in-horizon image (isolated classes are always inside)
            ker += e - min(e, (2 if t.coeff == "W/4" else 1) - depth)
        else:
            ker += e
    image = sum(by_mono[m].order - t for m, t in image_t.items())
    return image, ker


def check_eta_les(v0_groups: dict[int, GroupExpr], y_groups: dict[int, GroupExpr],
                  window: Window) -> list[StemCheck]:
    """|pi_n(^Y)| = |coker(eta)| * |ker(eta)| stem by stem."""
    K, N, lo, hi = window.K, window.N, window.stem_lo, window.stem_hi
    v0 = {n: v0_groups.get(n, ZERO_GROUP) for n in range(lo - 2, hi + 1)}
    slots = {n: expand_slots(g, K, N) for n, g in v0.items()}
    # (image, kernel) of eta: pi_{n-1} -> pi_n, once per map
    eta = {n: _eta_map_counts(slots[n - 1], v0[n], slots[n]) for n in range(lo - 1, hi + 1)}
    out = []
    for n in range(lo, hi + 1):
        lhs = degraded_log4(y_groups.get(n, ZERO_GROUP), K, N)
        coker = sum(s.order for s in slots[n]) - eta[n][0]
        out.append(StemCheck(n, lhs, coker, eta[n - 1][1]))
    return out
