"""The slotwise homology path against the Smith normal form oracle.

Every bidegree turned by real pipeline runs is recomputed by both
routes, which must name identical summands and sections: valuation
arithmetic is how the engine turns pages, and the general SNF route
checks it.  The check reads the built stacks, so it covers what
turn_page stored at each bidegree, whether homology_at ran there or the
result of an equal input was reused.
"""

from dataclasses import replace

import pytest

import hfpss.modules as modules
import hfpss.snf as snf
from hfpss.engine import compute
from hfpss.modules import BidegreeModule, rows_view
from hfpss.targets import Target, Window


@pytest.mark.parametrize("target", [Target.C2, Target.C2_V0, Target.C6_Y])
def test_pipeline_identical_through_general_snf(target):
    window = Window(0, 10, filt_max=12, N=6)
    checked = set()
    for w in (window, replace(window, K=window.K + 1)):
        stack = compute(target, w).stack
        for r, page, turned in ((3, stack.pages[2], stack.pages[4]),
                                (7, stack.pages[4], stack.pages[8])):
            prop = stack.maps[r]
            for (stem, filt), col in rows_view(page.rows, w).items():
                d_out = prop.maps.get((stem, filt))
                d_in = prop.maps.get((stem + 1, filt - r))
                got = modules.homology_at(stem, filt, col, d_in, d_out)
                assert snf.homology_at(stem, filt, col, d_in, d_out, w.K) == got, \
                    (stem, filt, w.K)
                assert (BidegreeModule(stem, filt, *got) if got[0] else None) \
                    == turned.modules.get((stem, filt)), (r, stem, filt, w.K)
                checked.add((r, w.K))
    # every bidegree of E2 and E4, at K and at K+1
    assert checked == {(r, K) for r in (3, 7) for K in (window.K, window.K + 1)}
