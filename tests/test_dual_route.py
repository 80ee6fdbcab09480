"""The slotwise homology path against the Smith normal form oracle.

Every page turn of real pipeline runs goes through both routes, which
must name identical summands and sections: valuation arithmetic is how
the engine turns pages, and the general SNF route checks it.
"""

from dataclasses import replace

import pytest

import hfpss.modules as modules
import hfpss.pages as pages
import hfpss.snf as snf
from hfpss.engine import compute
from hfpss.targets import Target, Window


@pytest.mark.parametrize("target", [Target.C2, Target.C2_V0, Target.C6_Y])
def test_pipeline_identical_through_general_snf(target, monkeypatch):
    window = Window(0, 10, filt_max=12, N=6)
    calls = []

    def both_routes(module, d_in, d_out, K):
        got = modules.homology_at(module, d_in, d_out, K)
        assert snf.homology_at(module, d_in, d_out, K) == got, \
            (module.stem, module.filt, K)
        calls.append((module.stem, module.filt, K))
        return got

    monkeypatch.setattr(pages, "homology_at", both_routes)
    results = [compute(target, w) for w in (window, replace(window, K=window.K + 1))]
    # every bidegree of E2 and E4, at K and at K+1, was turned through both
    turned = sum(len(res.stack.pages[r].modules) for res in results for r in (2, 4))
    assert len(calls) == turned > 0
    assert {K for (_, _, K) in calls} == {window.K, window.K + 1}
