"""Differential rule tables, factorization, and propagation."""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hfpss import modules, pages, rules as rules_module
from hfpss.e2 import build_e2
from hfpss.modules import BidegreeModule, HfpssError, Tiling, homology_at, rows_view
from hfpss.monomials import Monomial, parse_monomial
from hfpss.engine import DEFAULT_STEMS
from hfpss.pages import check_even_r_vanishing, run_to_einfty, turn_page
from hfpss.rules import (RuleCoverageError, RuleSet, Y_D7_PUBLISHED_VALUES, Y_D7_VALUES,
                         propagate, rule_table)
from hfpss.targets import Target, Window

from pagechecks import cell, u1s
from test_pages import page_of

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


def _in_monoid(rules, l):
    """Whether l lies in the linearity monoid of the table: alpha, u1 and
    u^{+-u_modulus} off Y; alpha^3, u^{+-24} and v1 = u^-1 u1 on Y."""
    if l.u1 < 0 or l.al < 0:
        return False
    if rules.y_mode:
        return (l.u + l.u1) % 24 == 0 and l.al % 3 == 0
    return l.u % rules.u_modulus == 0


@pytest.mark.parametrize("target", list(Target))
@pytest.mark.parametrize("r", [3, 5, 7])
def test_factorize_is_the_split_through_the_one_transversal_element(target, r):
    """factorize(m) = (m/g, g) for the one transversal g with m/g in the
    monoid, and raises when there is none or m is a Y monomial with both
    u1 and alpha."""
    rules = rule_table(target, r)
    for a, b, c in product(range(-24, 25), range(7), range(7)):
        mono = Monomial(a, b, c)
        split = [(Monomial(a - g.u, b - g.u1, c - g.al), g) for g in rules.transversal]
        split = [(l, g) for l, g in split if _in_monoid(rules, l)]
        assert len(split) <= 1, (mono, split)
        if not split or (rules.y_mode and b > 0 and c > 0):
            with pytest.raises(RuleCoverageError):
                rules.factorize(mono)
        else:
            assert rules.factorize(mono) == split[0], mono


@pytest.mark.parametrize("target", list(Target))
def test_rule_tables_have_the_shape_of_the_paper(target):
    """Every d3 value is its source times u^2 u1 alpha^3, every d7 value its
    source times u^4 alpha^7, and d5 is zero."""
    for r, shift in ((3, m("u^{2}u1a^{3}")), (7, m("u^{4}a^{7}"))):
        values = rule_table(target, r).values
        assert values == {g: g * shift for g in values}, (target, r)
    assert rule_table(target, 5).values == {}


def test_coverage_over_padded_windows():
    # factorize raises RuleCoverageError on a slot it cannot split, as
    # propagate does in the pipeline.  The factor g of a monomial depends
    # only on u mod u_modulus (on Y, on u + u1 mod 24 and alpha mod 3), and
    # this padded window meets every transversal class, so coverage here
    # is coverage on every window
    win = Window(0, 48)
    for target in Target:
        page = build_e2(target, win)
        for r in (3, 5, 7):
            rules = rule_table(target, r)
            reached = {rules.factorize(s.mono)[1]
                       for mod in page.modules.values() for s in mod.summands}
            assert reached == set(rules.transversal), (target, r)


def test_propagate_d3_on_u():
    win = Window(-6, 8, filt_max=14, N=4)
    page = build_e2(Target.C2_V0, win)
    prop = propagate(page, rule_table(Target.C2_V0, 3))
    # d3(u) = u^4 * d3(u^-3) = a^3 u^3 u1, a class at stem -3, filt 3
    lm = prop.maps[(-2, 0)]
    j = u1s(page, -2, 0).index(m("u").u1)
    (row, exp), = lm.cols[j]
    assert page.modules[(-3, 3)].summands[row].mono == m("u^{3}u1a^{3}")
    assert exp == 0


def test_propagate_d3_zero_on_u_minus_4():
    win = Window(0, 15, filt_max=14, N=4)
    page = build_e2(Target.C2, win)
    prop = propagate(page, rule_table(Target.C2, 3))
    lm = prop.maps.get((8, 0))
    if lm is not None:
        j = u1s(page, 8, 0).index(m("u^{-4}").u1)
        assert lm.cols[j] == ()


def test_entry_acting_as_zero_is_dropped():
    # d7(u^-4) = a^7 on a hand-built E4 of c2: from the free 2u^-4 the value
    # 2a^7 has 2-exponent 1, the order of the a^7 summand, so it is zero;
    # from u^-4 itself the entry stays
    tgt = BidegreeModule(7, 7, (0,), (0,), (1,))
    d7 = rule_table(Target.C2, 7)
    for scalar, expected in ((1, {}), (0, {(8, 0): (((0, 0),),)})):
        src = BidegreeModule(8, 0, (0,), (scalar,), (3 - scalar,), True)
        page = page_of(Target.C2, 4, Window(0, 15), {(8, 0): src, (7, 7): tgt})
        assert {key: lm.cols for key, lm in propagate(page, d7).maps.items()} == expected


def test_propagate_reuses_values_only_for_equal_inputs():
    # the sources u^-4, u^-12, ... share their residue mod 8 and their
    # orders; each d7 value u^{4-n}a^7 (times u1 if the source has it)
    # meets its own reduction in the target column
    d7 = rule_table(Target.C2_V0, 7)
    cases = {  # stem: source (u1, scalar), target (u1, scalar, order), columns
        8: ((0, 1), (0, 0, 2), (((0, 1),),)),
        24: ((0, 1), (0, 1, 2), (((0, 0),),)),   # the target scalar absorbs the 2
        40: ((0, 1), (0, 0, 1), None),           # 2a^7u^-16 = 0
        56: ((0, 0), (0, 0, 2), (((0, 0),),)),
        72: ((1, 1), (0, 0, 2), None),           # u1a^7u^-32 is not on the page
        88: ((0, 1), (1, 0, 2), None),           # nor is a^7u^-40
    }
    modules = {}
    for stem, (src, tgt, _) in cases.items():
        modules[(stem, 0)] = BidegreeModule(stem, 0, *zip(src), (2,))
        modules[(stem - 1, 7)] = BidegreeModule(stem - 1, 7, *zip(tgt))
    maps = propagate(page_of(Target.C2_V0, 4, Window(0, 100), modules), d7).maps
    assert {key: lm.cols for key, lm in maps.items()} == \
        {(stem, 0): cols for stem, (*_, cols) in cases.items() if cols}


def test_propagate_builds_one_map_per_distinct_ends_and_columns():
    # a d3 table that shifts u1 by 1 from u^-1 and u^-2 and by 2 from u^-3
    # (u1 has bidegree (0,0), so every value is well graded).  All sources
    # hold one column.  (2,0) and (4,0) give equal maps from different
    # inputs, which share one object; (6,0) reaches an equal target column
    # with other entries, and (12,0) equal entries in another target column.
    rules = RuleSet(3, 4, tuple(m(f"u^{{-{k}}}") for k in (1, 2, 3)) + (m("1"),),
                    {m("u^{-1}"): m("uu1a^{3}"), m("u^{-2}"): m("u1a^{3}"),
                     m("u^{-3}"): m("u^{-1}u1^{2}a^{3}")})
    src, tgt, wide = ((0, 1, 2), (0,) * 3, (1,) * 3), ((0, 1, 2, 3), (0,) * 4, (1,) * 4), \
        ((0, 1, 2, 3, 4), (0,) * 5, (1,) * 5)
    page = page_of(Target.C2_V0, 2, Window(0, 15), {
        (2, 0): BidegreeModule(2, 0, *src), (1, 3): BidegreeModule(1, 3, *tgt),
        (4, 0): BidegreeModule(4, 0, *src), (3, 3): BidegreeModule(3, 3, *tgt),
        (6, 0): BidegreeModule(6, 0, *src), (5, 3): BidegreeModule(5, 3, *tgt),
        (12, 0): BidegreeModule(12, 0, *src), (11, 3): BidegreeModule(11, 3, *wide)})
    maps, cols = propagate(page, rules).maps, rows_view(page.rows, page.window)
    shift1, shift2 = (((1, 0),), ((2, 0),), ((3, 0),)), (((2, 0),), ((3, 0),), ())
    assert {key: (lm.source, lm.target, lm.cols) for key, lm in maps.items()} == {
        (2, 0): (cols[(2, 0)], cols[(1, 3)], shift1),
        (4, 0): (cols[(4, 0)], cols[(3, 3)], shift1),
        (6, 0): (cols[(6, 0)], cols[(5, 3)], shift2),
        (12, 0): (cols[(12, 0)], cols[(11, 3)], shift1)}
    assert maps[(2, 0)] is maps[(4, 0)] and len({id(lm) for lm in maps.values()}) == 3


def test_coverage_checked_where_only_filtration_zero_differs():
    # u^-1u1 at (2,0) and u^-1u1a^3 at (5,3) agree in u mod 24, filt mod 3
    # and column; the second mixes alpha and u1 and is still rejected
    d7 = rule_table(Target.C6_Y, 7)
    page = page_of(Target.C6_Y, 4, Window(0, 15), {
        (2, 0): BidegreeModule(2, 0, (1,), (0,), (1,)),
        (5, 3): BidegreeModule(5, 3, (1,), (0,), (1,))})
    with pytest.raises(RuleCoverageError, match="both alpha and u1"):
        propagate(page, d7)


def _slotwise_cols(page, rules, mod):
    """d_r on each slot of mod by RuleSet.value_on, reduced in the page.

    Returns the expected columns and whether a value left the padded window.
    """
    cols, boundary = [], False
    for s in mod.summands:
        v = rules.value_on(s.mono)
        col = ()
        if v is not None and not page.window.in_padded(*v.bidegree):
            boundary = True
        elif v is not None:
            tgt = cell(page, *v.bidegree)
            row = tgt.u1s.index(v.u1) if tgt and v.u1 in tgt.u1s else None
            if row is not None and s.scalar - tgt.scalars[row] < tgt.orders[row]:
                col = ((row, s.scalar - tgt.scalars[row]),)
        cols.append(col)
    return tuple(cols), boundary


def _reference_entries(stack):
    """Check the d3 and d7 maps of a stack slot by slot; count their entries."""
    entries = 0
    for r, page in ((3, stack.pages[2]), (7, stack.pages[4])):
        rules = rule_table(stack.target, r)
        prop = stack.maps[r]
        for key, mod in page.modules.items():
            cols, boundary = _slotwise_cols(page, rules, mod)
            lm = prop.maps.get(key)
            assert (lm.cols if lm else ((),) * len(mod.u1s)) == cols, (stack.target, r, key)
            assert lm is None or lm.source is cell(page, *key) and \
                lm.target is cell(page, key[0] - 1, key[1] + r)
            assert (key in prop.boundary) == boundary, (stack.target, r, key)
            entries += sum(map(len, cols))
    return entries


def _reference_turns(stack):
    """Check each turned page against homology_at run on each bidegree."""
    for r, page, turned in ((3, stack.pages[2], stack.pages[4]),
                            (7, stack.pages[4], stack.pages[8])):
        maps = stack.maps[r].maps
        expected = {}
        for (stem, filt), col in rows_view(page.rows, page.window).items():
            found, _ = homology_at(stem, filt, col, maps.get((stem + 1, filt - r)),
                                   maps.get((stem, filt)))
            if found[0]:
                expected[(stem, filt)] = BidegreeModule(stem, filt, *found)
        assert turned.modules == expected, (stack.target, r)


def test_propagate_matches_slotwise_reference(computed_all):
    """Every d3 and d7 entry equals RuleSet.value_on plus the page reduction,
    and every turned module equals homology_at at its bidegree."""
    # the entries on the padded default windows, pinned at STEM_PAD = 2
    assert sum(_reference_entries(res.stack) for res in computed_all.values()) == 10813
    for res in computed_all.values():
        _reference_turns(res.stack)
    # N = 30 puts two slots, u1 = b and b + 24, in some Y residue classes;
    # the wide c6-v0 window is the scale point of the benchmark
    for target, window in ((Target.C6_Y, Window(0, 47, N=30)),
                           (Target.C6_V0, Window(0, 191, filt_max=160))):
        stack = run_to_einfty(target, window)
        assert _reference_entries(stack) > 0
        _reference_turns(stack)


@st.composite
def _small_windows(draw):
    """A target and a window of at most one stem period (16 or 48 stems)."""
    target = draw(st.sampled_from(list(Target)))
    period = DEFAULT_STEMS[target][1] + 1
    lo = draw(st.integers(-period, period))
    return target, Window(lo, lo + draw(st.integers(0, period - 1)),
                          filt_max=draw(st.integers(0, 12)), K=draw(st.sampled_from((3, 4))),
                          N=draw(st.integers(4, 14)))


@settings(max_examples=60, deadline=None)
@given(_small_windows())
def test_fan_out_matches_slotwise_reference_on_small_windows(case):
    """Maps shared across bidegrees and modules reused across pages agree
    with the slotwise value and with homology_at on every bidegree."""
    stack = run_to_einfty(*case)
    _reference_entries(stack)
    _reference_turns(stack)


@pytest.mark.parametrize("target", list(Target))
@pytest.mark.parametrize("r", [3, 5, 7])
def test_bidegree_key_has_the_row_period_in_filt(target, r):
    """propagate keys a row on (filt mod P, filt == 0), P = 2 * u_modulus:
    filtrations with equal phase give every stem the same bidegree_key.
    The stems run over two periods of the key in the stem, which is P."""
    rules = rule_table(target, r)
    period, by_phase = 2 * rules.u_modulus, {}
    for filt in range(4 * period):
        keys = [rules.bidegree_key(stem, filt) for stem in range(-period, 3 * period)]
        assert keys[:2 * period] == keys[2 * period:]
        assert by_phase.setdefault((filt % period, filt == 0), keys) == keys, filt
    # on Y the key also reads whether filt is 0, so P alone is not a period
    assert (by_phase[0, True] != by_phase[0, False]) == rules.y_mode


def _fresh(rows_of):
    """A copy of a page or propagation whose rows are all new objects, so
    that no row is shared and no row memo can hit."""
    return replace(rows_of, rows=tuple(tuple(list(row)) for row in rows_of.rows))


def _outcome(f, *args):
    try:
        return f(*args)
    except HfpssError as exc:
        return f"{type(exc).__name__}: {exc}"


def _on_fresh_rows(f, *args):
    """f on copies of its pages and propagations with all rows fresh."""
    return _outcome(f, *(_fresh(a) if hasattr(a, "rows") else a for a in args))


def _full_walk(f, *args):
    """f with every row walked in full: no interior is ever copied."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "TILE_EDGE", 10 ** 6)
        return _outcome(f, *args)


def _lockstep(target, window, rule_of, reference=_on_fresh_rows, e2=None):
    """E2 to E8 twice from one E2 page (build_e2's unless given): as the
    engine walks it, and by reference (default: with every walk given fresh
    rows).  Each cell holds the same Column object, each map has the same
    ends and columns, the boundary sets are equal, and a failing walk raises
    the same error at the same first cell, which is returned (None if every
    walk passes)."""
    page = ref = build_e2(target, window) if e2 is None else e2
    for r in (3, 7):
        rules = rule_of(target, r)
        assert _outcome(check_even_r_vanishing, page) is None
        assert reference(check_even_r_vanishing, ref) is None
        prop, ref_prop = _outcome(propagate, page, rules), reference(propagate, ref, rules)
        if isinstance(prop, str) or isinstance(ref_prop, str):
            assert prop == ref_prop
            return prop
        assert prop.boundary == ref_prop.boundary
        for row, ref_row in zip(prop.rows, ref_prop.rows, strict=True):
            for lm, ref_lm in zip(row, ref_row, strict=True):
                assert (lm is None) == (ref_lm is None)
                assert lm is None or (lm.source, lm.target, lm.cols) == \
                    (ref_lm.source, ref_lm.target, ref_lm.cols)
        page, ref = _outcome(turn_page, page, prop), reference(turn_page, ref, ref_prop)
        if isinstance(page, str) or isinstance(ref, str):
            assert page == ref
            return page
        for row, ref_row in zip(page.rows, ref.rows, strict=True):
            assert all(col is ref_col for col, ref_col in zip(row, ref_row, strict=True))
    return None


@st.composite
def _tall_windows(draw):
    """A target, a window of at most one stem period (a single stem included)
    up to 67 rows high, and whether d7 drops a transversal element it
    stores no value on."""
    target = draw(st.sampled_from(list(Target)))
    period = DEFAULT_STEMS[target][1] + 1
    lo = draw(st.integers(-period, period))
    window = Window(lo, lo + draw(st.one_of(st.just(0), st.integers(0, period - 1))),
                    filt_max=draw(st.one_of(st.integers(0, 12), st.integers(41, 60))),
                    N=draw(st.integers(4, 14)))
    return target, window, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(_tall_windows())
def test_row_memo_matches_fresh_rows(case):
    target, window, drop = case

    def rule_of(target, r):
        rules = rule_table(target, r)
        if r == 7 and drop:  # a coverage error at the first cell that meets it
            bare = [g for g in rules.transversal if g not in rules.values]
            rules = replace(rules, transversal=tuple(g for g in rules.transversal
                                                     if g != bare[-1]))
        return rules

    error = _lockstep(target, window, rule_of)
    assert error is None or drop and error.startswith("RuleCoverageError")


class _SpyTiling(Tiling):
    """A Tiling that keeps itself in `made` and counts the rows it fills."""

    made = []

    def __init__(self, width, p):
        super().__init__(width, p)
        self.fills = 0
        _SpyTiling.made.append(self)

    def fill(self, cells, marked):
        self.fills += 1
        return super().fill(cells, marked)


@pytest.mark.parametrize("target", list(Target))
def test_tiled_walks_match_slotwise_reference_on_a_wide_off_phase_window(target, monkeypatch):
    """On 200 stems starting off the phase of every stem period, each of
    the four walks (d3, E4, d7, E8) copies the interior of every row it
    computes, with period 24 for d3 (48 on Y, whose tables have u_modulus
    24) and 48 for d7, and every map and turned module still equals the
    slotwise reference at its bidegree."""
    monkeypatch.setattr(_SpyTiling, "made", [])
    monkeypatch.setattr(rules_module, "Tiling", _SpyTiling)
    monkeypatch.setattr(pages, "Tiling", _SpyTiling)
    stack = run_to_einfty(target, Window(-29, 170, filt_max=60))
    p3 = 48 if target.y_page else 24
    assert [t.p for t in _SpyTiling.made] == [p3, p3, 48, 48]
    assert [stack.maps[3].period, stack.maps[7].period] == [p3, 48]
    for t in _SpyTiling.made:  # never a fall-back to the full walk
        assert t.walk is not None and t.fills > 0 and all(t.seen.values())
    assert _reference_entries(stack) > 0
    _reference_turns(stack)


@st.composite
def _wide_windows(draw):
    """A target, a window of 102 to 150 stems (over 2p + 6 for p = 48, so
    every walk tiles), whether d7 drops a transversal element it stores no
    value on, and an E2 cell (filt, i) to swap for another column."""
    target = draw(st.sampled_from(list(Target)))
    lo = draw(st.integers(-48, 48))
    window = Window(lo, lo + draw(st.integers(101, 149)),
                    filt_max=draw(st.one_of(st.integers(0, 12), st.integers(41, 60))),
                    N=draw(st.integers(4, 14)))
    swap = draw(st.none() | st.tuples(st.integers(0, 10 ** 3), st.integers(0, 10 ** 3)))
    return target, window, draw(st.booleans()), swap


def _swapped(e2, filt, i):
    """e2 with the nonempty cell i of row filt swapped for the first other
    column of its rows, in row order (or emptied if there is none), so
    stem + filt stays even."""
    row = e2.rows[filt]
    new = next((col for cells in e2.rows for col in cells if col not in (None, row[i])), None)
    return replace(e2, rows=e2.rows[:filt] + (row[:i] + (new,) + row[i + 1:],)
                   + e2.rows[filt + 1:])


@settings(max_examples=25, deadline=None)
@given(_wide_windows())
def test_tiled_walk_matches_the_full_walk(case):
    """Every cell, map, boundary set and first error of the tiled walks is
    that of the walks with every row walked in full, also with one E2 cell
    swapped for another column: the rows whose period the swap breaks are
    walked in full."""
    target, window, drop, swap = case

    def rule_of(target, r):
        rules = rule_table(target, r)
        if r == 7 and drop:  # a coverage error at the first cell that meets it
            bare = [g for g in rules.transversal if g not in rules.values]
            rules = replace(rules, transversal=tuple(g for g in rules.transversal
                                                     if g != bare[-1]))
        return rules

    e2 = build_e2(target, window)
    if swap is not None:
        filts = [f for f, row in enumerate(e2.rows) if any(row)]
        filt = filts[swap[0] % len(filts)]
        cells = [i for i, col in enumerate(e2.rows[filt]) if col is not None]
        e2 = _swapped(e2, filt, cells[swap[1] % len(cells)])
    _lockstep(target, window, rule_of, _full_walk, e2)


def test_tiled_walk_matches_the_full_walk_with_a_cell_swapped_near_a_seam():
    """A swapped E2 cell next to an end of the walked cells (the row ends,
    the end of the first walked period for p = 24 and 48, the tail) gives
    what the full walk gives: the check reads one cell past the interior,
    as far as a cell's neighbours reach.  Each swapped cell is the target
    of a nonzero d3, so the swap changes that map too."""
    window = Window(-29, 70, filt_max=6)
    e2, width, edge = build_e2(Target.C2_V0, window), len(window.stem_range), modules.TILE_EDGE
    d3 = propagate(e2, rule_table(Target.C2_V0, 3)).rows
    assert width - 2 * edge >= 2 * 48
    seams = {0, 1, 2, edge + 23, edge + 24, edge + 47, edge + 48,
             width - edge - 2, width - edge - 1, width - edge, width - 1}
    for i in sorted(seams):
        filt = next(f for f in range(3, len(e2.rows)) if e2.rows[f][i] is not None
                    and (i + 1 == width or d3[f - 3][i + 1] is not None))
        assert _lockstep(Target.C2_V0, window, rule_table, _full_walk,
                         _swapped(e2, filt, i)) is None, i


def test_row_memo_tells_filtration_0_from_48_on_y():
    # on Y bidegree_key reads whether filt is 0: one row object at
    # filtrations 0 and 48, with one target row (E2 row 7 is row 55), has
    # one phase mod 48, and factorizes its u1 > 0 slots only at filt 0
    e2 = build_e2(Target.C6_Y, Window(0, 47, filt_max=48))
    assert e2.rows[7] is e2.rows[55] and e2.rows[0] is not e2.rows[48]
    page = replace(e2, rows=e2.rows[:48] + e2.rows[:1] + e2.rows[49:])
    rules = rule_table(Target.C6_Y, 7)
    got = _outcome(propagate, page, rules)
    assert got == _outcome(propagate, _fresh(page), rules)
    assert got.startswith("RuleCoverageError") and "both alpha and u1" in got


@pytest.mark.parametrize("r, value", [(3, "uu1a^{3}"), (7, "u^{3}a^{7}")])
def test_row_memo_fails_where_fresh_rows_fail(r, value):
    # a well-graded extra value composes nonzero with the stored table: both
    # walks reject d∘d != 0 at the same first cell
    def rule_of(target, page):
        rules = rule_table(target, page)
        extra = {parse_monomial("u^{-1}"): parse_monomial(value)} if page == r else {}
        return replace(rules, values={**rules.values, **extra})

    error = _lockstep(Target.C2_V0, Window(0, 15, filt_max=60), rule_of)
    assert error.startswith("PipelineError: image exceeds kernel") and "d∘d != 0" in error


def test_propagate_d7_dead_target_is_zero():
    # d7(u^-4 u1^j) = a^7 u1^j = 0 on E7 for j >= 1: the target died at d3
    stack = run_to_einfty(Target.C2_V0, Window(0, 15, N=6))
    e7 = stack.page(7)
    prop7 = stack.maps[7]
    lm = prop7.maps[(8, 0)]
    for j, s in enumerate(e7.modules[(8, 0)].summands):
        if s.mono.u1 >= 1:
            assert lm.cols[j] == ()
        else:
            assert len(lm.cols[j]) == 1
    # and on the E4 page the boundary alpha^4 u^-2 u1^{j-1} |-> alpha^7 u1^j
    e4 = stack.page(4)
    assert m("a^{7}").u1 in u1s(e4, 7, 7)
    assert m("u1a^{7}").u1 not in u1s(e4, 7, 7)  # died at d3


def test_grading_of_all_propagated_maps():
    win = Window(0, 20, N=6)
    for target in Target:
        page = build_e2(target, win)
        for r in (3, 7):
            prop = propagate(page, rule_table(target, r))
            assert prop.r == r
            for (stem, filt), lm in prop.maps.items():
                assert lm.source is cell(page, stem, filt)
                assert lm.target is cell(page, stem - 1, filt + r)


# Published standalone C6-family differential tables, kept as cross-checks
# against the restriction-based computation.  Entries marked in tests as
# known discrepancies are asserted with their grading-consistent value.
C6_D3_CROSS_CHECKS = {
    # published value alpha^3 omits the u1^3 factor (the mod-2 analogue
    # and u1-linearity both give eta^3 = alpha^3 u1^3)
    m("u^{-2}u1^{2}"): m("u1^{3}a^{3}"),
    m("u^{-2}a"): m("u1a^{4}"),
}

C6_D7_CROSS_CHECKS = {
    m("u^{-4}a^{2}"): m("a^{9}"),
    # published exponent 17 is grading-inconsistent; the (24,0) -> (23,7)
    # differential requires alpha^7 u^-8, as in the mod-2 analogue
    m("u^{-12}"): m("u^{-8}a^{7}"),
    m("u^{-20}a"): m("u^{-16}a^{8}"),
}

C6_V0_D3_CROSS_CHECKS = {
    m("u1^{2}u^{-2}"): m("u1^{3}a^{3}"),
    m("u^{-3}"): m("a^{3}u^{-1}u1"),
}

C6_V0_D7_CROSS_CHECKS = {
    m("a^{2}u^{-4}"): m("a^{9}"),
    m("u^{-12}"): m("a^{7}u^{-8}"),
    m("au^{-20}"): m("a^{8}u^{-16}"),
    m("au^{-5}"): m("a^{8}u^{-1}"),
    m("a^{2}u^{-13}"): m("a^{9}u^{-9}"),
    m("u^{-21}"): m("a^{7}u^{-17}"),
}


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
            assert g.u1 in u1s(page, *g.bidegree)


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

