"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
All tolerances are exact (integer arithmetic throughout).
"""

import pathlib
import time

from hfpss.charts import render_text, tower_count
from hfpss.engine import compute, default_window
from hfpss.les import check_eta_les, check_two_les
from hfpss.monomials import Monomial
from hfpss.pages import check_collapse, check_even_r_vanishing, run_to_einfty
from hfpss.rules import rule_table
from hfpss.targets import Target, Window
from hfpss.verify import verify_target

from pagechecks import periodicity

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_table_reproduction(computed_all):
    """verify --all reproduces all 176 homotopy groups, exactly, fast."""
    t0 = time.time()
    total = matched = 0
    for target in Target:
        result = compute(target)  # timed end to end, fixtures included
        report = verify_target(result)
        assert report.ok, report.render_text()
        assert not [e for e in report.entries if not e.name_match and not e.exception]
        total += report.n_checked
        matched += report.n_iso_matches
    elapsed = time.time() - t0
    assert matched == total == 176
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(1, f"176/176 isomorphism matches at (K=3, N=12) in {elapsed:.1f}s")


def test_criterion_2_extension_spot_checks(computed_c2_v0, computed_c6_v0):
    assert computed_c2_v0.groups[2].expr.render() == "a^{2}F4 + u^{-1}W/4[[u1]]"
    assert computed_c2_v0.groups[10].expr.render() == \
        "u^{-4}u1a^{2}F4 + u^{-5}u1W/4[[u1]]"
    w4_stems = [n for n, g in computed_c6_v0.groups.items()
                if any(t.coeff == "W/4" for t in g.expr.terms)]
    assert w4_stems == [2, 10, 18, 26, 34, 42]
    _report(2, "pi_2, pi_10 mod-2 extensions and all six W/4 towers exact")


def _check_d_squared(page, prop, r):
    """Reference check, independent of the page turn: compose every pair
    of d_r maps; exponents add, and 2^K = 0."""
    for (stem, filt), first in prop.maps.items():
        second = prop.maps.get((stem - 1, filt + r))
        if second is None:
            continue
        orders = second.target.orders
        composite = [[(row, e1 + e2) for mid, e1 in col for row, e2 in second.cols[mid]
                      if e1 + e2 < page.K]
                     for col in first.cols]
        for col in composite:
            for i, exp in col:
                assert exp >= orders[i], f"d{r} o d{r} != 0 at bidegree ({stem},{filt})"


def test_criterion_3_differential_certificates(computed_all):
    # d o d = 0 on every computed page of every target
    for res in computed_all.values():
        for r in (3, 7):
            page = res.stack.page(r)
            _check_d_squared(page, res.stack.maps[r], r)
    # module Leibniz and v1-linearity run as dedicated property tests
    from test_leibniz import (_check_leibniz, test_nu_linearity_of_y_d7,
                              test_v1_linearity_of_y_d7)
    n3 = _check_leibniz(3)
    n7 = _check_leibniz(7)
    test_v1_linearity_of_y_d7()
    test_nu_linearity_of_y_d7()
    _report(3, f"d_r∘d_r = 0 everywhere; Leibniz on {n3}+{n7} pairs "
               f"in stems [-8,16]; v1- and nu-linearity on the Y page")


def test_criterion_4_structural_page_facts(computed_all):
    for target, res in computed_all.items():
        stack = res.stack
        # E2 = E3 (aliased, no d2 rule set exists)
        assert stack.page(3) is stack.page(2)
        # E4 = E7 via empty d5 rule set and even-r vanishing
        assert stack.page(5) is stack.page(4)
        assert stack.page(7) is stack.page(4)
        assert rule_table(target, 5).values == {}
        check_even_r_vanishing(stack.page(2))
        check_even_r_vanishing(stack.page(4))
        check_collapse(stack.einfty)
        assert any("collapse" in c for c in stack.certificates)
    _report(4, "E2=E3, E4=E7 (empty d5, no even-r overlap), E8 collapse "
               "certified for all five targets")


def test_criterion_5_periodicity():
    stack = run_to_einfty(Target.C6, Window(0, 72))
    assert periodicity(stack.page(4), Monomial(-12, 0, 0), range(0, 25)) == []
    for target in (Target.C6, Target.C6_V0, Target.C6_Y):
        stack = run_to_einfty(target, Window(0, 96))
        assert periodicity(stack.page(8), Monomial(-24, 0, 0), range(0, 49)) == []
    _report(5, "E4(C6) is (24,0)-periodic on stems 0..24; E8 of the C6 "
               "family is 48-periodic on stems 0..48 (labeled isomorphisms)")


def test_criterion_6_oracle_equivalence():
    # the enumeration comparison runs once per session (cached in test_snf)
    from test_snf import _check_dense_enumeration
    trials = _check_dense_enumeration()
    assert trials == 100
    _report(6, "the chain-ring SNF oracle's homology matches exhaustive "
               f"enumeration on {trials} random presentations over W/8")


def test_criterion_7_les_order_checks():
    groups = {}
    for target in Target:
        hi = 15 if target in (Target.C2, Target.C2_V0) else 47
        res = compute(target, default_window(target, -2, hi))
        groups[target] = {s: g.expr for s, g in res.groups.items()}
    two = check_two_les(groups[Target.C2], groups[Target.C2_V0], Window(0, 15))
    assert all(c.ok for c in two), [c for c in two if not c.ok]
    eta = check_eta_les(groups[Target.C6_V0], groups[Target.C6_Y], Window(0, 47))
    assert all(c.ok for c in eta), [c for c in eta if not c.ok]
    _report(7, f"2-cofiber identity exact at {len(two)} stems; eta-cofiber "
               f"identity exact at {len(eta)} stems")


def test_criterion_8_chart_golden_tests():
    cases = [
        ("c2_v0_e3", Target.C2_V0, Window(0, 12, filt_max=12), 3, True),
        ("c6_e7", Target.C6, Window(0, 48, filt_max=14), 7, True),
        ("c6_y_einf", Target.C6_Y, Window(0, 48, filt_max=10), 8, False),
    ]
    for name, target, window, r, with_arrows in cases:
        stack = run_to_einfty(target, window)
        page = stack.page(r)
        prop = stack.maps.get(r) if with_arrows else None
        text = render_text(page, prop, page_index=r)
        golden = (GOLDEN / f"{name}.txt").read_text()
        assert text == golden, f"{name} differs from golden"
        grid = golden.split("\n\narrows:")[0].split("\n", 1)[1]
        glyphs = sum(grid.count(c) for c in ".o#")
        assert glyphs == tower_count(page)
    _report(8, "three text charts byte-identical to reviewed goldens; "
               "glyph counts equal page module counts")
