"""Starting-page constructions and their structural invariants."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hfpss.e2 import E2_STRIDE, _u1_range, _u1_residue, build_e2
from hfpss.modules import Column, Page, rows_view
from hfpss.monomials import NAMED, Monomial
from hfpss.targets import Target, Window

from pagechecks import eta_cokernel, u1s, y_page_is_eta_cokernel
from test_pages import empty_rows, place

WIN = Window(0, 15, filt_max=20, N=6)
WIN6 = Window(0, 20, filt_max=20, N=9)


@pytest.mark.parametrize("target", list(Target))
def test_u1_range_depends_only_on_its_residue(target):
    # build_e2 computes one column per residue and reuses it
    first = {}
    for stem in range(-20, 21):
        for filt in range(0, 13):
            rep = first.setdefault(_u1_residue(stem, filt), (stem, filt))
            assert _u1_range(target, stem, filt, 18) == _u1_range(target, *rep, 18), \
                (stem, filt, rep)


@pytest.mark.parametrize("target", list(Target))
def test_u1_residue_has_period_12_in_stem_and_in_filt_above_0(target):
    # build_e2 fills each row with one stride-E2_STRIDE progression per
    # residue, and copies each row above 12 from the row 12 below it
    p = E2_STRIDE
    assert p == 12
    for stem in range(-40, 60):
        for filt in range(0, 30):
            assert _u1_residue(stem + p, filt) == _u1_residue(stem, filt), (stem, filt)
            assert _u1_range(target, stem + p, filt, 18) == _u1_range(target, stem, filt, 18)
            if filt > 0:
                assert _u1_residue(stem, filt + p) == _u1_residue(stem, filt), (stem, filt)
                assert _u1_range(target, stem, filt + p, 18) == _u1_range(target, stem, filt, 18)
    assert _u1_residue(0, p) != _u1_residue(0, 0)  # filt 0 has its own residue
    # and no smaller stride is a period of the residue
    assert all(_u1_residue(k, 1) != _u1_residue(0, 1) for k in range(1, p))


@st.composite
def _e2_windows(draw):
    lo = draw(st.integers(-30, 60))
    return draw(st.sampled_from(list(Target))), Window(
        lo, lo + draw(st.integers(0, 39)), filt_max=draw(st.integers(0, 12)),
        N=draw(st.integers(4, 20)))


@settings(max_examples=100, deadline=None)
@given(_e2_windows())
def test_row_built_e2_is_the_cellwise_build(case):
    """The E2 rows equal a build that calls _u1_range on every cell, and
    equal columns are one interned object: the table's column of that
    content, which examples of one (target, K, n_u1) share."""
    target, window = case
    page = build_e2(target, window)
    expected = {}
    for stem in window.stem_range:
        for filt in window.filt_range:
            bs = tuple(_u1_range(target, stem, filt, window.n_u1))
            free = not target.mod2 and filt == 0
            if bs:
                expected[(stem, filt)] = (bs, (0,) * len(bs),
                                          (window.K if free else 1,) * len(bs), free)
    cols = rows_view(page.rows, page.window)
    got = {key: (c.u1s, c.scalars, c.orders, c.free) for key, c in cols.items()}
    assert got == expected
    assert all(page.table[got[key]] is c for key, c in cols.items())
    assert len(set(cols.values())) == len(set(expected.values()))
    assert all(len(row) == len(window.stem_range) for row in page.rows)
    assert len(page.rows) == len(window.filt_range)


def test_c2_page_has_even_u_powers_and_witt_bottoms():
    # the integral targets are the ones not mod 2, and _u1_range keeps their a even
    assert [t for t in Target if not t.mod2] == [Target.C2, Target.C6]
    page = build_e2(Target.C2, WIN)
    for (stem, filt), mod in page.modules.items():
        for s in mod.summands:
            assert s.mono.u % 2 == 0
            assert s.order == (3 if filt == 0 else 1)
            assert s.free == (filt == 0)


def test_c2_v0_page_all_torsion_all_u_powers():
    page = build_e2(Target.C2_V0, WIN)
    assert page.modules[(2, 0)].summands  # odd u-power u^-1 present
    for mod in page.modules.values():
        for s in mod.summands:
            assert s.order == 1
            assert not s.free


def test_c2_v0_stem_one_column():
    # towers at filtrations 1, 3, 5, ... generated by a, a^3 u, a^5 u^2, ...
    page = build_e2(Target.C2_V0, WIN)
    col = [(filt, page.modules.get((1, filt))) for filt in range(0, 8)]
    gens = {filt: [s.mono for s in m.summands if s.mono.u1 == 0]
            for filt, m in col if m}
    assert sorted(gens) == [1, 3, 5, 7]
    assert gens[1] == [Monomial(0, 0, 1)]
    assert gens[3] == [Monomial(1, 0, 3)]
    assert gens[5] == [Monomial(2, 0, 5)]


def test_c6_bidegree_0_0_is_period_3_witt_tower():
    page = build_e2(Target.C6, WIN6)
    mod = page.modules[(0, 0)]
    assert [s.mono.u1 for s in mod.summands][:3] == [0, 3, 6]
    assert all(s.order == 3 for s in mod.summands)


def test_c6_y_stem_3_starts_with_nu_and_collapses_to_it():
    page = build_e2(Target.C6_Y, WIN6)
    mod = page.modules[(3, 3)]
    assert [s.mono for s in mod.summands] == [Monomial(0, 0, 3)]
    # everything above filtration 3 in this column dies by Einfty
    from hfpss.pages import run_to_einfty
    stack = run_to_einfty(Target.C6_Y, Window(0, 10, N=6))
    einf = stack.einfty
    assert {f for n, f in einf.towers if n == 3} == {3}


def test_weight_zero_filter():
    page = build_e2(Target.C6, WIN6)
    for mod in page.modules.values():
        for s in mod.summands:
            assert s.mono.weight == 0
    # u1 u^-4 retained, u^-1 has no even analogue; check u^-2 u1 dropped
    assert Monomial(-4, 1, 0).u1 in u1s(page, 8, 0)
    assert Monomial(-2, 1, 0).u1 not in u1s(page, 4, 0)


def test_prop_relation_names_one_basis_slot():
    # [v1v2]^3 and u1^3 * [v2^2]^2 are the same basis monomial u1^3 u^-12
    page = build_e2(Target.C6, Window(20, 28, N=6))
    target = NAMED["v1v2"] ** 3
    assert target == NAMED["j0"] * NAMED["v2sq"] ** 2
    assert target.bidegree == (24, 0) and target.u1 in u1s(page, 24, 0)


def test_c3_invariants_equals_direct_construction():
    for c2_target, c6_target in ((Target.C2, Target.C6),
                                 (Target.C2_V0, Target.C6_V0)):
        weight0 = {key: kept for key, mod in build_e2(c2_target, WIN6).modules.items()
                   if (kept := tuple(s for s in mod.summands if s.mono.weight == 0))}
        direct = build_e2(c6_target, WIN6)
        assert weight0 == {key: mod.summands for key, mod in direct.modules.items()}


def test_c2_v0_page_is_h_free():
    # multiplication by h = alpha*u is injective on every interior bidegree
    page = build_e2(Target.C2_V0, WIN)
    h = NAMED["h"]
    horizon = page.window.n_u1
    for (stem, filt), mod in page.modules.items():
        if not page.window.in_padded(stem - 1, filt + 1):
            continue
        for s in mod.summands:
            assert (s.mono * h).u1 in u1s(page, stem - 1, filt + 1)


def test_eta_injectivity_full_window():
    page = build_e2(Target.C6_V0, Window(0, 48))
    failures, coker = eta_cokernel(page)
    assert failures == [], failures[:3]
    # cokernel slots are the weight-0 monomials with b = 0 or c = 0
    assert coker


def test_eta_injectivity_on_zero_page_is_vacuous():
    window = Window(5, 5, filt_max=0, N=4)
    page = Page(Target.C6_V0, 2, window, empty_rows(window))
    assert eta_cokernel(page) == ([], {})


Y_WIN = Window(0, 24, N=9)


def test_y_page_matches_eta_cokernel():
    assert y_page_is_eta_cokernel(build_e2(Target.C6_V0, Y_WIN), build_e2(Target.C6_Y, Y_WIN)) == []


def test_eta_cokernel_reports_a_slot_removed_below_the_horizon():
    page = build_e2(Target.C6_V0, Y_WIN)
    col = page.rows[2][4 - Y_WIN.stem_range.start]  # (4, 2): u1^0, u1^3, ...
    assert col.u1s[:2] == (0, 3)
    cut = Column(col.u1s[:1] + col.u1s[2:], col.scalars[1:], col.orders[1:])
    failures, _ = eta_cokernel(replace(page, rows=place(page.rows, Y_WIN, {(4, 2): cut})))
    assert failures == ["eta kills u1^2 at (3,1)", "unexpected cokernel slot u1^4 at (5,3)"]


def test_eta_cokernel_reports_a_y_page_of_another_slot_count():
    v0, y = build_e2(Target.C6_V0, Y_WIN), build_e2(Target.C6_Y, Y_WIN)
    assert eta_cokernel(v0)[1][(2, 4)] == 1
    broken = replace(y, rows=place(y.rows, Y_WIN, {(2, 4): None}))
    assert y_page_is_eta_cokernel(v0, broken) == ["Y page at (2,4) has 0 slots, cokernel has 1"]


def test_eta_injectivity_rejects_wrong_target():
    page = build_e2(Target.C2, WIN)
    with pytest.raises(ValueError):
        eta_cokernel(page)
