"""Starting pages of the five spectral sequences.

Each page is assembled monomial by monomial:

* integral C2 page: monomials u^a u1^b alpha^c with a even; the c = 0
  towers are free over the truncated Witt ring, everything with c >= 1 is
  killed by 2,
* mod-2 C2 page: all integer u-powers, every tower 2-torsion,
* C6 family: the weight-0 part of the corresponding C2 page, so the u1
  towers have period 3,
* smash-with-Y page: the cokernel of eta-multiplication on the mod-2 C6
  page; concretely the weight-0 monomials with u1-exponent 0 or
  alpha-exponent 0, and u1 annihilates everything with alpha-exponent >= 1.

So free summands sit only in filtration 0 of the integral pages.  Every d_r
raises filtration by r >= 3 and never enters them, so they are flagged free
here, once, and page turns carry the flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import BidegreeModule, Page, PipelineError, Summand
from .monomials import NAMED, Monomial
from .targets import Target, Window


def e2_summands(target: Target, stem: int, filt: int, K: int, n_u1: int) -> tuple[Summand, ...]:
    if filt < 0 or (stem + filt) % 2 != 0:
        return ()
    c = filt
    a = (filt - stem) // 2
    if target.even_u_only and a % 2 != 0:
        return ()
    free = not target.mod2 and c == 0
    period = target.period  # C6 pages keep weight 0: a + b + 2c = 0 mod 3
    bs = range(-(a + 2 * c) % period, n_u1, period)
    if target.y_page and c > 0:
        bs = [0] if 0 in bs else []
    return tuple(Summand(0, Monomial(a, b, c), K if free else 1, free) for b in bs)


def build_e2(target: Target, window: Window, K: int | None = None) -> Page:
    K = window.K if K is None else K
    page = Page(target=target, r=2, window=window, K=K)
    for stem in window.stem_range:
        for filt in window.filt_range:
            summands = e2_summands(target, stem, filt, K, window.n_u1)
            if summands:
                page.modules[(stem, filt)] = BidegreeModule(stem, filt, summands)
    return page


_C3_RESTRICTION = {Target.C2: Target.C6, Target.C2_V0: Target.C6_V0}


def c3_invariants(page: Page) -> Page:
    """Weight-0 part of a C2-family page, reindexed with u1-period 3."""
    if page.target not in _C3_RESTRICTION:
        raise ValueError(f"{page.target} is not a C2-family page")
    out = Page(target=_C3_RESTRICTION[page.target], r=page.r,
               window=page.window, K=page.K, untrusted=set(page.untrusted))
    for key, mod in page.modules.items():
        kept = tuple(s for s in mod.summands if s.mono.weight == 0)
        if kept:
            out.modules[key] = BidegreeModule(mod.stem, mod.filt, kept)
    return out


@dataclass
class EtaReport:
    ok: bool
    failures: list[str]
    coker_dims: dict[tuple[int, int], int]


def eta_injectivity_check(page: Page) -> EtaReport:
    """Check that eta-multiplication is injective on a mod-2 C6 page.

    Multiplication by eta = alpha*u1 sends the slot at (stem, filt) to
    (stem+1, filt+1), shifting the u1-exponent by one.  The report lists
    the cokernel slot counts, which are exactly the starting-page slots of
    the smash-with-Y spectral sequence.
    """
    if page.target is not Target.C6_V0:
        raise ValueError("eta injectivity is checked on the mod-2 C6 page")
    eta = NAMED["eta"]
    failures = []
    coker: dict[tuple[int, int], int] = {}
    horizon = page.window.n_u1 - 1  # slots whose image stays below truncation
    for (stem, filt), mod in sorted(page.modules.items()):
        tgt = page.module(stem + 1, filt + 1)
        hit = set()
        for s in mod.summands:
            if s.mono.u1 >= horizon:
                continue
            t = s.mono * eta
            row = tgt.slot_of(t)
            if row is None:
                if page.window.in_padded(stem + 1, filt + 1):
                    failures.append(f"eta kills {s.label()} at ({stem},{filt})")
                continue
            hit.add(row)
        if page.window.trusted(stem, filt):
            n_coker = sum(1 for t in tgt.summands if t.mono.u1 == 0 or t.mono.al == 0)
            # the unhit slots must be exactly the b = 0 / c = 0 monomials
            for i, t in enumerate(tgt.summands):
                if i not in hit and not (t.mono.u1 == 0 or t.mono.al == 0) \
                        and t.mono.u1 < horizon:
                    failures.append(f"unexpected cokernel slot {t.label()}")
            if tgt:
                coker[(stem + 1, filt + 1)] = n_coker
    return EtaReport(ok=not failures, failures=failures, coker_dims=coker)


def check_y_page_is_eta_cokernel(window: Window) -> None:
    """The direct smash-with-Y construction matches the eta-cokernel."""
    v0 = build_e2(Target.C6_V0, window)
    report = eta_injectivity_check(v0)
    if not report.ok:
        raise PipelineError("; ".join(report.failures[:5]))
    y = build_e2(Target.C6_Y, window)
    for (stem, filt), dim in report.coker_dims.items():
        got = len(y.module(stem, filt).summands)
        if got != dim:
            raise PipelineError(
                f"Y page at ({stem},{filt}) has {got} slots, cokernel has {dim}")
