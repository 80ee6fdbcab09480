"""Starting pages of the five spectral sequences.

A bidegree (stem, filt) fixes a = (filt - stem)/2 and c = filt, so each
page is built column by column, as the range of u1-exponents b of its
monomials u^a u1^b alpha^c, and stored as rows of cells (modules.Page):

* integral C2 page: a even, every b; the c = 0 towers are free over the
  truncated Witt ring, everything with c >= 1 is killed by 2,
* mod-2 C2 page: all integer u-powers, every tower 2-torsion,
* C6 family: the weight-0 part of the corresponding C2 page, built
  directly, so the u1 towers have period 3 (b runs through one residue
  class mod 3),
* smash-with-Y page: the cokernel of eta-multiplication on the mod-2 C6
  page; concretely the weight-0 monomials with u1-exponent 0 or
  alpha-exponent 0, and u1 annihilates everything with alpha-exponent >= 1.

So free summands sit only in filtration 0 of the integral pages.  Every d_r
raises filtration by r >= 3 and never enters them, so they are flagged free
here, once, and page turns carry the flag.
"""

from __future__ import annotations

from .modules import Page, column_table
from .targets import Target, Window

E2_STRIDE = 12  # the period of _u1_residue in the stem, and in filt above 0


def _u1_residue(stem: int, filt: int) -> tuple:
    """What _u1_range reads of (stem, filt): the parity of stem + filt,
    a mod 6 (a mod 2 and mod the period), filt mod 3 and whether filt is 0."""
    return (stem + filt) % 2, (filt - stem) // 2 % 6, filt % 3, filt == 0


def _u1_range(target: Target, stem: int, filt: int, n_u1: int) -> range:
    """u1-exponents of the E2 slots at (stem, filt) below n_u1.

    For filt >= 0 it depends on (stem, filt) only through _u1_residue.
    """
    a = (filt - stem) // 2
    if filt < 0 or (stem + filt) % 2 != 0 or not target.mod2 and a % 2 != 0:
        return range(0)
    bs = range(-(a + 2 * filt) % target.period, n_u1, target.period)
    if target.y_page and filt > 0:
        return bs[:1] if 0 in bs else range(0)
    return bs


def build_e2(target: Target, window: Window) -> Page:
    """The E2 page on the padded window, in the column table of (target, K,
    n_u1), which keeps one interned Column per _u1_residue across computes,
    written to its stride-E2_STRIDE progression of a row (the residue's
    period in the stem).  Only cells with stem + filt even are visited:
    _u1_range is empty on the others.  Above filt 0 the residue has that
    period in filt too: row filt > 12 is row filt - 12."""
    K, start, width = window.K, window.stem_range.start, len(window.stem_range)
    table, rows = column_table(target, K, window.n_u1), []
    columns = table.e2  # by _u1_residue, None if empty
    for filt in range(min(E2_STRIDE + 1, len(window.filt_range))):  # filt_range starts at 0
        row = [None] * width
        for i in range((start + filt) % 2, min(E2_STRIDE, width), 2):
            key = _u1_residue(start + i, filt)
            try:
                col = columns[key]
            except KeyError:
                bs = _u1_range(target, start + i, filt, window.n_u1)
                free, n = not target.mod2 and filt == 0, len(bs)
                col = columns[key] = (table[tuple(bs), (0,) * n, (K if free else 1,) * n,
                                            free] if bs else None)
            if col is not None:
                row[i::E2_STRIDE] = [col] * ((width - 1 - i) // E2_STRIDE + 1)
        rows.append(table.row(row))
    rows += [rows[f % E2_STRIDE or E2_STRIDE] for f in range(len(rows), len(window.filt_range))]
    return Page(target, 2, window, tuple(rows), table)

