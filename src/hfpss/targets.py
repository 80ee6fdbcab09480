"""The five target spectral sequences and computation windows."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Target(Enum):
    C2 = "c2"
    C2_V0 = "c2-v0"
    C6 = "c6"
    C6_V0 = "c6-v0"
    C6_Y = "c6-y"

    @property
    def period(self) -> int:
        """u1-period of the power series towers (3 on C6-family pages)."""
        return 3 if self in (Target.C6, Target.C6_V0, Target.C6_Y) else 1

    @property
    def mod2(self) -> bool:
        """Mod-2 pages: every tower is 2-torsion, and odd u-powers occur
        (integral pages hold even u-powers only)."""
        return self is not Target.C2 and self is not Target.C6

    @property
    def y_page(self) -> bool:
        return self is Target.C6_Y


# Padding around the requested window, by what the differentials reach.
# The only nonzero d_r are d3 and d7 (the d5 tables are empty), and every
# d_r lowers the stem by exactly 1 (RuleSet checks each value).  E8 at
# stem s is the homology of d7 on E4 at s+1 -> s -> s-1, and each of
# those E4 cells is the homology of d3 on E2 one stem to either side; the
# d3 target of cell i is cell i - 1, so E2 on s-2..s+2 fixes E8 at s:
# STEM_PAD = (page turns with a nonempty table) x (stem shift of a d_r).
# In filtration the same reach is 3 + 7 = 10, but 7 suffices: no d7 value
# of a trusted class lands on a cell whose own d3 value left the padding
# (tests pin this), so E4 is right wherever a trusted d7 reads it.
# check_padding certifies at run time that no trusted d3 or d7 value
# leaves the padded window.
STEM_PAD = 2
FILT_PAD = 7
U1_PAD = 6


@dataclass(frozen=True)
class Window:
    """Trusted region plus truncation parameters.

    stem_lo..stem_hi is inclusive and not empty (stem_hi >= stem_lo);
    filt_max >= 0 caps the filtration of reported classes (0 reports
    filtration 0 only).  K is the 2-adic truncation of the Witt ring and N
    the u1-truncation of reported power series towers.  K >= 3 so that
    W/4 differs from a free tower (4 != 0 mod 2^K, as term_order_exp
    needs); N >= 4, one past the largest series period 3, since below it a
    lone class at u1-offset 0 reaches N and reads as a series.  A window
    outside these bounds raises ValueError when built.
    Computation internally pads all three directions: stem_range and
    filt_range are the padded window.  The stem pad is what E8 reads of
    E2: d7 reads E4 one stem either side, and d3 reads E2 one stem either
    side of that, so E2 on stem_lo - 2..stem_hi + 2 fixes E8 on the
    trusted stems (2 = two nonempty page turns x a stem shift of 1).
    """

    stem_lo: int
    stem_hi: int
    filt_max: int = 40
    K: int = 3
    N: int = 12

    def __post_init__(self):
        if self.stem_hi < self.stem_lo:
            raise ValueError(f"empty stem range {self.stem_lo}..{self.stem_hi}")
        if self.filt_max < 0:
            raise ValueError(f"filt_max must be >= 0, got {self.filt_max}")
        for name, value, least in (("K", self.K, 3), ("N", self.N, 4)):
            if value < least:
                raise ValueError(f"truncation {name} must be >= {least}, got {value}")

    @property
    def stem_range(self) -> range:
        return range(self.stem_lo - STEM_PAD, self.stem_hi + STEM_PAD + 1)

    @property
    def filt_range(self) -> range:
        return range(0, self.filt_max + FILT_PAD + 1)

    @property
    def n_u1(self) -> int:
        """Internal u1-truncation; only exponents < N are reported."""
        return self.N + U1_PAD

    def trusted(self, stem: int, filt: int) -> bool:
        return self.stem_lo <= stem <= self.stem_hi and 0 <= filt <= self.filt_max

    def in_padded(self, stem: int, filt: int) -> bool:
        """(stem, filt) lies in stem_range x filt_range."""
        return stem in self.stem_range and filt in self.filt_range
