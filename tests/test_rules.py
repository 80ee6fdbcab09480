"""Differential rule tables, factorization, and propagation."""

import pytest

from hfpss.e2 import build_e2
from hfpss.monomials import parse_monomial
from hfpss.rules import (C6_D3_CROSS_CHECKS, C6_D7_CROSS_CHECKS,
                         C6_V0_D3_CROSS_CHECKS, C6_V0_D7_CROSS_CHECKS,
                         RuleCoverageError, Y_D7_PUBLISHED_VALUES, Y_D7_VALUES,
                         propagate, rule_table, validate_coverage)
from hfpss.targets import Target, Window

m = parse_monomial


def test_c2_d3_value():
    rules = rule_table(Target.C2, 3)
    assert rules.values == {m("u^{-2}"): m("u1a^{3}")}
    assert set(rules.transversal) == {m("1"), m("u^{-2}")}


def test_c2_d7_value():
    rules = rule_table(Target.C2, 7)
    assert rules.values == {m("u^{-4}"): m("a^{7}")}
    assert set(rules.transversal) == {m("1"), m("u^{-2}"), m("u^{-4}"), m("u^{-6}")}


def test_c2_v0_d3_values():
    rules = rule_table(Target.C2_V0, 3)
    assert rules.values == {m("u^{-2}"): m("u1a^{3}"),
                            m("u^{-3}"): m("u^{-1}u1a^{3}")}
    assert len(rules.transversal) == 4


def test_c2_v0_d5_empty():
    assert rule_table(Target.C2_V0, 5).values == {}


def test_c2_v0_d7_values():
    rules = rule_table(Target.C2_V0, 7)
    assert rules.values == {m("u^{-4}"): m("a^{7}"), m("u^{-5}"): m("u^{-1}a^{7}")}
    assert len(rules.transversal) == 8


def test_c6_y_d7_has_nine_published_values():
    rules = rule_table(Target.C6_Y, 7)
    for g, v in Y_D7_PUBLISHED_VALUES.items():
        assert rules.values[g] == v
    assert rules.values[m("u^{-6}")] == m("u^{-2}a^{7}")
    assert len(Y_D7_PUBLISHED_VALUES) == 9
    assert len(rules.values) == 12


def test_y_values_weight_and_grading():
    for g, v in Y_D7_VALUES.items():
        assert g.weight == 0 and v.weight == 0
        assert v.stem == g.stem - 1
        assert v.filt == g.filt + 7


def test_ruleset_rejects_misgraded_value():
    from hfpss.rules import RuleSet
    with pytest.raises(ValueError):
        RuleSet(3, 4, (m("1"), m("u^{-2}")),
                {m("u^{-2}"): m("a^{3}u^{-2}")})


def test_unknown_page_rejected():
    with pytest.raises(ValueError):
        rule_table(Target.C2, 4)


def test_factorize_examples():
    r3 = rule_table(Target.C2_V0, 3)
    # u = u^4 * u^-3
    assert r3.factorize(m("u")) == (m("u^{4}"), m("u^{-3}"))
    r3c2 = rule_table(Target.C2, 3)
    assert r3c2.factorize(m("u^{-6}u1^{3}a^{2}")) == \
        (m("u^{-4}u1^{3}a^{2}"), m("u^{-2}"))
    ry = rule_table(Target.C6_Y, 7)
    # strip one v1 = u^-1 u1, leaving the u^-6 transversal class
    assert ry.factorize(m("u^{-7}u1")) == (m("u^{-1}u1"), m("u^{-6}"))
    # alpha-cube stripping
    assert ry.factorize(m("u^{2}u1^{0}a^{11}")) == (m("u^{24}a^{9}"), m("u^{-22}a^{2}"))


def test_factorize_rejects_mixed_y_monomial():
    ry = rule_table(Target.C6_Y, 7)
    with pytest.raises(RuleCoverageError):
        ry.factorize(m("u^{-1}u1a^{3}"))  # b > 0 with c > 0: not a Y-basis class


def test_coverage_over_padded_windows():
    # the window meets every transversal class, so coverage here is
    # coverage on every window
    win = Window(0, 48)
    for target in Target:
        page = build_e2(target, win)
        for r in (3, 5, 7):
            rules = rule_table(target, r)
            validate_coverage(rules, page)
            reached = {rules.factorize(s.mono)[1]
                       for mod in page.modules.values() for s in mod.summands}
            assert reached == set(rules.transversal), (target, r)


def test_propagate_d3_on_u():
    win = Window(-6, 8, filt_max=14, N=4)
    page = build_e2(Target.C2_V0, win)
    prop = propagate(page, rule_table(Target.C2_V0, 3))
    # d3(u) = u^4 * d3(u^-3) = a^3 u^3 u1, a class at stem -3, filt 3
    lm = prop.maps[(-2, 0)]
    j = lm.source.slot_of(m("u"))
    (row, exp), = lm.cols[j]
    assert lm.target.summands[row].mono == m("u^{3}u1a^{3}")
    assert exp == 0


def test_propagate_d3_zero_on_u_minus_4():
    win = Window(0, 15, filt_max=14, N=4)
    page = build_e2(Target.C2, win)
    prop = propagate(page, rule_table(Target.C2, 3))
    lm = prop.maps.get((8, 0))
    if lm is not None:
        j = lm.source.slot_of(m("u^{-4}"))
        assert lm.cols[j] == []


def test_propagate_d7_dead_target_is_zero():
    # d7(u^-4 u1^j) = a^7 u1^j = 0 on E7 for j >= 1: the target died at d3
    from hfpss.pages import run_to_einfty
    stack = run_to_einfty(Target.C2_V0, Window(0, 15, N=6))
    e7 = stack.page(7)
    prop7 = stack.maps[7]
    lm = prop7.maps[(8, 0)]
    for j, s in enumerate(lm.source.summands):
        if s.mono.u1 >= 1:
            assert lm.cols[j] == []
        else:
            assert len(lm.cols[j]) == 1
    # and on the E4 page the boundary alpha^4 u^-2 u1^{j-1} |-> alpha^7 u1^j
    e4 = stack.page(4)
    assert e4.module(7, 7).slot_of(m("a^{7}")) is not None
    assert e4.module(7, 7).slot_of(m("u1a^{7}")) is None  # died at d3


def test_grading_of_all_propagated_maps():
    win = Window(0, 20, N=6)
    for target in Target:
        page = build_e2(target, win)
        for r in (3, 7):
            for (stem, filt), lm in propagate(page, rule_table(target, r)).maps.items():
                assert (lm.target.stem, lm.target.filt) == (stem - 1, filt + r)


def test_c6_cross_check_tables_via_restriction():
    """The standalone C6-family tables agree with restriction propagation."""
    win = Window(0, 48)
    cases = [
        (Target.C6, 3, C6_D3_CROSS_CHECKS),
        (Target.C6, 7, C6_D7_CROSS_CHECKS),
        (Target.C6_V0, 3, C6_V0_D3_CROSS_CHECKS),
        (Target.C6_V0, 7, C6_V0_D7_CROSS_CHECKS),
    ]
    for target, r, table in cases:
        rules = rule_table(target, r)
        page = build_e2(target, win)
        for g, v in table.items():
            assert rules.value_on(g) == v, (target, r, g)
            assert page.module(*g.bidegree).slot_of(g) is not None


def test_restriction_compatibility():
    """C6-family differentials = C2-family differentials on weight-0 classes."""
    win = Window(0, 24, N=9)
    for c2t, c6t in ((Target.C2, Target.C6), (Target.C2_V0, Target.C6_V0)):
        for r in (3, 7):
            big = rule_table(c2t, r)
            small = rule_table(c6t, r)
            page = build_e2(c6t, win)
            for mod in page.modules.values():
                for s in mod.summands:
                    assert big.value_on(s.mono) == small.value_on(s.mono)

