"""Structural facts of the paper's pages, checked on the rows by the tests,
and the cell reader, summand label and module builder the tests share.

Each check returns its failures as strings (empty = the fact holds).
"""

from dataclasses import replace

from hfpss.modules import BidegreeModule, PipelineError
from hfpss.monomials import NAMED
from hfpss.targets import Target


def cell(page, stem, filt):
    """The Column at (stem, filt) of the page's rows, None if none or outside them."""
    w = page.window
    return page.rows[filt][stem - w.stem_range.start] if w.in_padded(stem, filt) else None


def u1s(page, stem, filt):
    """The u1-exponents of the slots at (stem, filt), () if none or outside the rows."""
    col = cell(page, stem, filt)
    return col.u1s if col else ()


def label(s):
    """A Summand's generator name: its scalar's 2-power prefix and its monomial."""
    return ("" if s.scalar == 0 else str(1 << s.scalar)) + str(s.mono)


def from_summands(stem, filt, summands):
    """The module of these Summand records, which must form a u1-column at (stem, filt)."""
    ss = tuple(sorted(summands, key=lambda s: s.mono.u1))
    mod = BidegreeModule(stem, filt, tuple(s.mono.u1 for s in ss), tuple(s.scalar for s in ss),
                         tuple(s.order for s in ss), any(s.free for s in ss))
    if len(set(mod.u1s)) < len(ss) or mod.summands != ss:
        raise PipelineError(f"summands do not form a u1-column at ({stem},{filt})")
    return mod


def periodicity(page, shift, stems):
    """Trusted cells (n, f) of the page whose towers times shift are not those
    of (n + shift.stem, f), also trusted: the page is shift-periodic on stems."""
    towers, w, d = page.towers, page.window, shift.stem
    return [f"columns {n} and {n + d} differ at filtration {f}"
            for n in stems for f in range(w.filt_max + 1)
            if w.trusted(n, f) and w.trusted(n + d, f)
            and [replace(t, mono=t.mono * shift) for t in towers.get((n, f), ())]
            != towers.get((n + d, f), [])]


def hurewicz(einf):
    """The detectors of eta, nu and kappabar in the trusted window whose
    slot is gone from the Einfty page einf."""
    missing = []
    for name in ("eta", "nu", "kappabar"):
        m = NAMED[name]
        if einf.window.trusted(*m.bidegree) and m.u1 not in u1s(einf, *m.bidegree):
            missing.append(f"{name} = {m} died before Einfty")
    return missing


def eta_cokernel(page):
    """(failures, cokernel) of eta = alpha u1 on a mod-2 C6 page, which moves
    a slot u1^b at (stem, filt) to u1^(b+1) at (stem+1, filt+1).  Below the
    truncation eta must be injective, and above a nonempty trusted cell its
    only unhit slots are the b = 0 ones, which cokernel counts per cell."""
    if page.target is not Target.C6_V0:
        raise ValueError("eta injectivity is checked on the mod-2 C6 page")
    horizon = page.window.n_u1 - 1  # a slot below it has its image below the truncation
    failures, coker = [], {}
    for filt, (row, above) in enumerate(zip(page.rows, page.rows[1:])):
        for stem, col, nxt in zip(page.window.stem_range, row, above[1:]):
            if col is None:
                continue
            images, hit = {b + 1 for b in col.u1s if b < horizon}, nxt.u1s if nxt else ()
            failures += [f"eta kills u1^{b - 1} at ({stem},{filt})"
                         for b in sorted(images.difference(hit))]
            if nxt and page.window.trusted(stem, filt):
                failures += [f"unexpected cokernel slot u1^{b} at ({stem + 1},{filt + 1})"
                             for b in hit if 0 < b < horizon and b not in images]
                coker[(stem + 1, filt + 1)] = hit.count(0)
    return failures, coker


def y_page_is_eta_cokernel(v0, y):
    """eta_cokernel's failures on the C6-v0 page v0, and the cells where the
    smash-with-Y page y has another slot count than the cokernel."""
    failures, coker = eta_cokernel(v0)
    for (stem, filt), dim in coker.items():
        got = len(u1s(y, stem, filt))
        if got != dim:
            failures.append(f"Y page at ({stem},{filt}) has {got} slots, cokernel has {dim}")
    return failures
