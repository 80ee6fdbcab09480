"""High-level driver: window defaults and the full page-to-groups pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import AssembledGroup, assemble_all
from .pages import PageStack, run_to_einfty
from .targets import Target, Window

# Stems covered by the published tables: 16 for the C2 family, 48 for the
# C6 family.
DEFAULT_STEMS = {
    Target.C2: (0, 15),
    Target.C2_V0: (0, 15),
    Target.C6: (0, 47),
    Target.C6_V0: (0, 47),
    Target.C6_Y: (0, 47),
}


def default_window(target: Target, stem_lo: int | None = None,
                   stem_hi: int | None = None, K: int = Window.K,
                   N: int = Window.N) -> Window:
    lo, hi = DEFAULT_STEMS[target]
    if stem_lo is not None:
        lo = stem_lo
    if stem_hi is not None:
        hi = stem_hi
    return Window(lo, hi, K=K, N=N)


@dataclass
class ComputeResult:
    target: Target
    window: Window
    stack: PageStack
    groups: dict[int, AssembledGroup]


def compute(target: Target, window: Window | None = None) -> ComputeResult:
    if window is None:
        window = default_window(target)
    stack = run_to_einfty(target, window)
    groups = assemble_all(stack)
    return ComputeResult(target, window, stack, groups)
