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

from .groupexpr import ETA_ALPHA_CLIMB, GroupExpr, Term
from .modules import HfpssError
from .monomials import Monomial
from .targets import Window

ETA = Monomial(0, 1, 1)


class LESError(HfpssError):
    pass


@dataclass(frozen=True)
class Slot:
    mono: Monomial
    log4: int
    kind: str                 # "f4", "w4", "free"
    scalar: int
    partner: Monomial | None  # for w4: the swallowed filtration-2 class


def expand_slots(expr: GroupExpr, K: int, N: int) -> list[Slot]:
    """Horizon-honest summand list of a truncated group expression."""
    slots = []
    for t in expr.terms:
        for b in t.offsets(N):
            mono = Monomial(t.mono.u, b, t.mono.al)
            if t.coeff == "F4":
                slots.append(Slot(mono, 1, "f4", t.scalar, None))
            elif t.coeff == "W":
                slots.append(Slot(mono, K - t.scalar, "free", t.scalar, None))
            else:  # W/4 merge: the partner sits one u1- and one u-step up
                partner = mono * ETA_ALPHA_CLIMB
                if partner.u1 < N:
                    slots.append(Slot(mono, 2, "w4", t.scalar, partner))
                else:
                    slots.append(Slot(mono, 1, "f4", t.scalar, None))
    return slots


def degraded_log4(expr: GroupExpr, K: int, N: int) -> int:
    """log4 of the truncated order, with boundary-degraded W/4 slots."""
    return sum(s.log4 for s in expand_slots(expr, K, N))


def _partner(t: Term) -> Term:
    """The filtration-2 series a W/4 term swallowed, one climb step up."""
    return replace(t, mono=t.mono * ETA_ALPHA_CLIMB)


def group_contains(expr: GroupExpr, mono: Monomial) -> bool:
    """Does the untruncated group contain a class detected by mono?"""
    return any(t.covers(mono) or t.coeff == "W/4" and _partner(t).covers(mono)
               for t in expr.terms)


def _find_beyond_horizon(expr: GroupExpr, mono: Monomial) -> tuple[int, int] | None:
    """(order exponent, extension depth) of mono in the untruncated group."""
    for t in expr.terms:
        if t.period is None:
            continue  # isolated classes are always inside the horizon
        f = 2 if t.coeff == "W/4" else 1
        if t.covers(mono):
            return f, 0
        if t.coeff == "W/4" and _partner(t).covers(mono):
            return f, 1
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
    K, N = window.K, window.N
    zero = GroupExpr(())
    out = []
    for n in range(window.stem_lo, window.stem_hi + 1):
        lhs = degraded_log4(v0_groups.get(n, zero), K, N)

        # coker(2): one F4 unit per summand, landing at u1-degree b + scalar.
        coker = sum(1 for s in expand_slots(c2_groups.get(n, zero), K, N)
                    if s.mono.u1 + s.scalar < N)

        # ker(2): one F4 unit per finite summand, none for free towers; the
        # unit is hit by the class alpha*u steps below it on the mod-2 side.
        ker = 0
        for s in expand_slots(c2_groups.get(n - 1, zero), K, N):
            if s.kind == "free":
                continue
            ker += 1
            if s.mono.al >= 1:
                preimage = Monomial(s.mono.u - 1, s.mono.u1, s.mono.al - 1)
                if not group_contains(v0_groups.get(n, zero), preimage):
                    raise LESError(
                        f"stem {n}: ker(2) class {s.mono} has no top-cell "
                        f"preimage {preimage} in the mod-2 group")
        out.append(StemCheck(n, lhs, coker, ker))
    return out


def _eta_map_counts(src: GroupExpr, dst: GroupExpr, K: int, N: int) -> tuple[int, int]:
    """(in-horizon image log4, kernel log4) of eta: src -> dst."""
    src_slots = expand_slots(src, K, N)
    dst_slots = expand_slots(dst, K, N)
    by_gen = {s.mono: s for s in dst_slots}
    by_partner = {s.partner: s for s in dst_slots if s.partner is not None}
    # image subgroup exponent accumulated per target slot
    image_t: dict[Monomial, int] = {}
    ker = 0
    for s in src_slots:
        e = s.log4
        tgt_mono = s.mono * ETA
        hit = by_gen.get(tgt_mono)
        delta = 0
        if hit is None:
            hit = by_partner.get(tgt_mono)
            delta = 1
        if hit is not None:
            f = hit.log4
            ker += e - min(e, f - delta)
            t = max(delta, f - e)
            prev = image_t.get(hit.mono)
            image_t[hit.mono] = t if prev is None else min(prev, t)
        else:
            beyond = _find_beyond_horizon(dst, tgt_mono)
            if beyond is not None:
                # maps out past the horizon: kernel as in the infinite
                # model, but no in-horizon image
                f, delta = beyond
                ker += e - min(e, f - delta)
            else:
                ker += e
    by_mono = {s.mono: s for s in dst_slots}
    image = sum(by_mono[m].log4 - t for m, t in image_t.items())
    return image, ker


def check_eta_les(v0_groups: dict[int, GroupExpr], y_groups: dict[int, GroupExpr],
                  window: Window) -> list[StemCheck]:
    """|pi_n(^Y)| = |coker(eta)| * |ker(eta)| stem by stem."""
    K, N = window.K, window.N
    zero = GroupExpr(())
    out = []
    for n in range(window.stem_lo, window.stem_hi + 1):
        lhs = degraded_log4(y_groups.get(n, zero), K, N)
        image_in, _ = _eta_map_counts(v0_groups.get(n - 1, zero),
                                      v0_groups.get(n, zero), K, N)
        coker = degraded_log4(v0_groups.get(n, zero), K, N) - image_in
        _, ker = _eta_map_counts(v0_groups.get(n - 2, zero),
                                 v0_groups.get(n - 1, zero), K, N)
        out.append(StemCheck(n, lhs, coker, ker))
    return out
