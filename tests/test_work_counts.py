"""Work counts as the performance contract: exact call counts per compute.

Each target is computed cold on windows of 2, 4 and 8 stem periods (16
stems on the C2 family, 48 on the C6 family) at filt_max 12.  The cell
work (rule evaluations, homology, tower shapes) is constant in the width;
the periodicity checks of the tiled walks stop growing once every walk
tiles; tower naming and assembly still cost one call per reported cell
and per stem.  The widest window is also computed at filt_max 60, tall
enough for propagate's row memo to hit (its d_r rows repeat in filt with
period 2 * u_modulus), and once more with its column table kept.  A
change that moves any of these counts changes a pin here.
"""

from collections import Counter

import pytest

from hfpss import assembly, modules, pages, rules
from hfpss.engine import DEFAULT_STEMS, compute
from hfpss.modules import column_table
from hfpss.targets import Target, Window

WIDTHS = (2, 4, 8)  # stem periods per window
CELL_WORK = ("_values_at", "homology_at", "tower_shapes")
COUNTED = CELL_WORK + ("periodic", "towers_at", "assemble_pi")

# Per target, the counts of COUNTED in one cold compute: per width at
# filt_max 12, then the widest at filt_max 60.
PINNED = {
    Target.C2: ({2: (25, 15, 6, 0, 24, 32), 4: (25, 15, 6, 32, 48, 64),
                 8: (25, 15, 6, 67, 96, 128)}, (25, 15, 6, 128, 96, 128)),
    Target.C2_V0: ({2: (38, 9, 3, 0, 40, 32), 4: (38, 9, 3, 32, 80, 64),
                    8: (38, 9, 3, 67, 160, 128)}, (38, 9, 3, 128, 160, 128)),
    Target.C6: ({2: (53, 29, 12, 32, 56, 96), 4: (53, 29, 12, 67, 112, 192),
                 8: (53, 29, 12, 67, 224, 384)}, (53, 29, 12, 128, 224, 384)),
    Target.C6_V0: ({2: (70, 15, 5, 32, 88, 96), 4: (70, 15, 5, 67, 176, 192),
                    8: (70, 15, 5, 67, 352, 384)}, (70, 15, 5, 128, 352, 384)),
    Target.C6_Y: ({2: (146, 8, 5, 0, 96, 96), 4: (146, 8, 5, 43, 192, 192),
                   8: (146, 8, 5, 43, 384, 384)}, (146, 8, 5, 79, 384, 384)),
}


def _recording(monkeypatch) -> Counter:
    """A Counter of the calls of COUNTED from now on; `periodic` counts
    the rows a Tiling checks, not the answers it already keeps."""
    counts = Counter()
    for module, name in ((rules, "_values_at"), (pages, "homology_at"), (pages, "tower_shapes"),
                         (pages, "towers_at"), (assembly, "assemble_pi")):
        def recorded(*args, _f=getattr(module, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, recorded)
    periodic = modules.Tiling.periodic

    def recorded_periodic(self, row):
        counts["periodic"] += id(row) not in self.seen
        return periodic(self, row)
    monkeypatch.setattr(modules.Tiling, "periodic", recorded_periodic)
    return counts


def _counted(counts: Counter, target: Target, window: Window, cold=True) -> tuple[int, ...]:
    if cold:
        column_table.cache_clear()
    counts.clear()
    compute(target, window)
    return tuple(counts[name] for name in COUNTED)


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_work_per_compute_is_pinned_at_2_4_and_8_stem_periods(target, monkeypatch):
    counts, period = _recording(monkeypatch), DEFAULT_STEMS[target][1] + 1
    got = {k: _counted(counts, target, Window(0, k * period - 1, filt_max=12))
           for k in WIDTHS}
    assert len({found[:len(CELL_WORK)] for found in got.values()}) == 1, got
    tall = Window(0, WIDTHS[-1] * period - 1, filt_max=60)
    assert (got, _counted(counts, target, tall)) == PINNED[target]
    # a repeat with the table kept does none of the cell work, and the rest again
    warm = _counted(counts, target, tall, cold=False)
    assert warm == (0,) * len(CELL_WORK) + PINNED[target][1][len(CELL_WORK):]
