"""Page turning, certificates, periodicity, and tower recognition."""

from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hfpss.assembly import assemble_all
from hfpss.charts import glyph_count, render_svg, render_text, tower_count
from hfpss.engine import DEFAULT_STEMS, compute, default_window
from hfpss.groupexpr import Term, truncate_term
from hfpss.modules import (BidegreeModule, Column, ColumnTable, LinearMap, Page, PipelineError,
                           Summand, Tiling, homology_at, rows_view)
from hfpss.monomials import Monomial, parse_monomial
from hfpss import charts, pages, targets
from hfpss.pages import (CertificateError, check_collapse, check_even_r_vanishing,
                         run_to_einfty, tower_shapes, towers_at, turn_page)
from hfpss.rules import Propagation, RuleCoverageError, RuleSet, propagate, rule_table
from hfpss.targets import Target, Window

from pagechecks import cell, from_summands, hurewicz, label, periodicity

m = parse_monomial


def empty_rows(window):
    """One all-None row per filtration of the padded window, one cell per stem."""
    return ((None,) * len(window.stem_range),) * len(window.filt_range)


def place(rows, window, cells):
    """The rows, a Page's or a Propagation's, with each value of cells
    (None empties a cell) at its bidegree in the padded window: a new
    tuple of rows, in which only the rows written to are new tuples."""
    rows = list(rows)
    for (stem, filt), x in cells.items():
        assert window.in_padded(stem, filt), (stem, filt)
        row = list(rows[filt])
        row[stem - window.stem_range.start] = x
        rows[filt] = tuple(row)
    return tuple(rows)


def page_of(target, r, window, modules):
    """A page holding the columns of these modules, interned in its own table."""
    table = ColumnTable()
    return Page(target, r, window, place(empty_rows(window), window, {
        key: table[mod.u1s, mod.scalars, mod.orders, mod.free]
        for key, mod in modules.items()}), table)


def prop_of(r, window, maps):
    """A propagation of d_r holding these maps, by source bidegree."""
    return Propagation(r, window, place(empty_rows(window), window, maps),
                       Tiling(len(window.stem_range), 48))


def _col(mod):
    """The column of mod, in no table."""
    return Column(mod.u1s, mod.scalars, mod.orders, mod.free)


def _homology(mod, d_in, d_out):
    """homology_at on the column of mod, its result placed at mod's bidegree."""
    found = homology_at(mod.stem, mod.filt, _col(mod), d_in, d_out)
    return BidegreeModule(mod.stem, mod.filt, *found)


def test_homology_identity_on_zero_maps():
    mod = from_summands(0, 0, (Summand(0, m("u1"), 3), Summand(0, m("u1^{2}"), 1)))
    H = _homology(mod, None, None)
    assert H.summands == mod.summands
    assert H.scalars == mod.scalars  # each slot's lift, new scalar minus old, is 0


def test_homology_kernel_of_mod2_surjection():
    # W-tower mapping onto an F4 class: kernel generated by 2*(generator)
    src = from_summands(4, 0, (Summand(0, m("u^{-2}"), 3),))
    tgt = from_summands(3, 3, (Summand(0, m("u1a^{3}"), 1),))
    d_out = LinearMap(_col(src), _col(tgt), [[(0, 0)]])
    H = _homology(src, None, d_out)
    assert [(label(s), s.order) for s in H.summands] == [("2u^{-2}", 2)]


def test_homology_cokernel_of_u1_shift():
    # F4 tower shifted into an F4 tower: cokernel one F4 at the bottom slot
    src = from_summands(4, 0, tuple(Summand(0, Monomial(-2, b, 0), 1) for b in range(4)))
    tgt = from_summands(3, 3, tuple(Summand(0, Monomial(0, b, 3), 1) for b in range(4)))
    cols = [[(tgt.u1s.index(b + 1), 0)] if b + 1 in tgt.u1s else [] for b in src.u1s]
    d_in = LinearMap(_col(src), _col(tgt), cols)
    H = _homology(tgt, d_in, None)
    assert [label(s) for s in H.summands] == ["a^{3}"]
    Hsrc = _homology(src, None, d_in)
    assert [label(s) for s in Hsrc.summands] == ["u^{-2}u1^{3}"]  # horizon slot


def test_dd_nonzero_rejected():
    mid = from_summands(0, 0, (Summand(0, m("u1"), 1),))
    tgt = from_summands(-1, 7, (Summand(0, m("u^{4}u1a^{7}"), 1),))
    src = from_summands(2, 0, (Summand(0, m("u^{-1}u1"), 1),))
    d_in = LinearMap(_col(src), _col(mid), [[(0, 0)]])
    d_out = LinearMap(_col(mid), _col(tgt), [[(0, 0)]])
    with pytest.raises(PipelineError, match=r"at \(0,0\) slot u1\^1: d∘d != 0"):
        _homology(mid, d_in, d_out)


def test_d_in_into_free_summand_rejected():
    # freeness is carried from E2, never recomputed, so a differential into
    # a free Witt tower is a pipeline fault; into a torsion summand it is not
    src = from_summands(2, 0, (Summand(0, m("u^{-1}u1"), 3),))
    torsion = from_summands(0, 0, (Summand(0, m("u1"), 3),))
    H = _homology(torsion, LinearMap(_col(src), _col(torsion), [[(0, 1)]]), None)
    assert [(label(s), s.order) for s in H.summands] == [("u1", 1)]
    tower = from_summands(0, 0, (Summand(0, m("u1"), 3, free=True),))
    with pytest.raises(PipelineError, match="free summand"):
        _homology(tower, LinearMap(_col(src), _col(tower), [[(0, 1)]]), None)


@pytest.mark.parametrize("summands", [
    (Summand(0, m("u1a^{3}"), 1), Summand(1, m("u1a^{3}"), 1)),   # one u1-exponent twice
    (Summand(0, m("u^{-2}"), 1),),                                # another bidegree
])
def test_summands_off_a_u1_column_rejected(summands):
    with pytest.raises(PipelineError, match="u1-column at \\(3,3\\)"):
        from_summands(3, 3, summands)


def test_map_with_two_columns_on_one_row_rejected():
    src = from_summands(4, 0, (Summand(0, m("u^{-2}"), 1), Summand(0, m("u^{-2}u1"), 1)))
    tgt = from_summands(3, 3, (Summand(0, m("u1a^{3}"), 1),))
    with pytest.raises(PipelineError):
        LinearMap(_col(src), _col(tgt), [[(0, 0)], [(0, 0)]])


def test_map_with_two_entries_in_one_column_rejected():
    src = from_summands(4, 0, (Summand(0, m("u^{-2}"), 1),))
    tgt = from_summands(3, 3, (Summand(0, m("u1a^{3}"), 1), Summand(0, m("u1^{2}a^{3}"), 1)))
    with pytest.raises(PipelineError):
        LinearMap(_col(src), _col(tgt), [[(0, 0), (1, 0)]])


def test_map_below_the_target_order_rejected():
    # an F4 class sent onto a W/8 generator: 2 * source = 0, 2 * target != 0
    src, tgt = Column((0,), (0,), (1,)), Column((1,), (0,), (3,))
    with pytest.raises(PipelineError, match="not well defined on presentations"):
        LinearMap(src, tgt, [[(0, 0)]])
    assert LinearMap(src, tgt, [[(0, 2)]]).cols == (((0, 2),),)


def test_propagate_validates_maps_with_equal_inputs():
    # d3(u^-2) = u1 a^3 and d3(u^-6) = u^-4 u1 a^3 have one input (u mod 4,
    # columns, target columns, target in the window); their value lands on
    # a W/8 generator from an F4 one, so the shared map is rejected where
    # it is built, at the first bidegree of the input
    col, tgt_col = ((0,), (0,), (1,)), ((1,), (0,), (3,))
    page = page_of(Target.C2, 2, Window(0, 15), {
        (4, 0): BidegreeModule(4, 0, *col), (3, 3): BidegreeModule(3, 3, *tgt_col),
        (12, 0): BidegreeModule(12, 0, *col), (11, 3): BidegreeModule(11, 3, *tgt_col)})
    rules = rule_table(Target.C2, 3)
    assert rules.bidegree_key(4, 0) == rules.bidegree_key(12, 0)
    with pytest.raises(PipelineError, match=r"d3 at \(4,0\): map not well defined on "
                                            r"presentations: slot u1\^0 -> slot u1\^1"):
        propagate(page, rules)
    page = replace(page, rows=place(page.rows, page.window, {(4, 0): None}))
    with pytest.raises(PipelineError, match=r"d3 at \(12,0\): map not well defined"):
        propagate(page, rules)


def test_turn_page_rejects_d_in_on_another_module():
    # the map ends at an equal column outside the page's table
    mod = from_summands(3, 3, (Summand(0, m("u1a^{3}"), 1),))
    src = from_summands(4, 0, (Summand(0, m("u^{-2}"), 1),))
    page = page_of(Target.C2_V0, 3, Window(0, 5), {(3, 3): mod, (4, 0): src})
    prop = prop_of(3, page.window,
                   {(4, 0): LinearMap(cell(page, 4, 0), _col(mod), [[(0, 0)]])})
    with pytest.raises(PipelineError, match=r"d_in target mismatch at \(3,3\)"):
        turn_page(page, prop)


def test_turn_page_rejects_d_out_from_another_module():
    mod = from_summands(3, 3, (Summand(0, m("u1a^{3}"), 1),))
    src = from_summands(4, 0, (Summand(0, m("u^{-2}"), 1),))
    page = page_of(Target.C2_V0, 3, Window(0, 5), {(3, 3): mod, (4, 0): src})
    prop = prop_of(3, page.window,
                   {(4, 0): LinearMap(_col(src), cell(page, 3, 3), [[(0, 0)]])})
    with pytest.raises(PipelineError, match=r"d_out source mismatch at \(4,0\)"):
        turn_page(page, prop)


def test_turn_page_checks_each_bidegree_where_a_result_is_reused():
    # (3,3) and (5,3) hold one interned column, and so do (4,0) and (6,0).
    # With one map as d_in at both, (5,3) reuses the result of (3,3); a
    # d_in at (5,3) that ends at an equal column outside the table, or a
    # d_in into a free column there, is still rejected at (5,3)
    col = ((1,), (0,), (1,))
    mod, other, free = (BidegreeModule(3, 3, *col), BidegreeModule(5, 3, *col),
                        BidegreeModule(5, 3, *col, True))
    src, src2 = BidegreeModule(4, 0, (0,), (0,), (1,)), BidegreeModule(6, 0, (0,), (0,), (1,))

    def turn(at_5_3, d_in_target):
        page = page_of(Target.C2_V0, 3, Window(0, 5), {
            (3, 3): mod, (4, 0): src, (6, 0): src2, (5, 3): at_5_3})
        cols = rows_view(page.rows, page.window)
        first = LinearMap(cols[(4, 0)], cols[(3, 3)], [[(0, 0)]])
        second = first if d_in_target is None else \
            LinearMap(cols[(6, 0)], d_in_target(cols), [[(0, 0)]])
        return turn_page(page, prop_of(3, page.window, {(4, 0): first, (6, 0): second}))

    with pytest.raises(PipelineError, match=r"d_in target mismatch at \(5,3\)"):
        turn(other, lambda cols: _col(other))
    with pytest.raises(PipelineError, match="d_in enters free summand"):
        turn(free, lambda cols: cols[(5, 3)])
    for turned in (turn(other, lambda cols: cols[(5, 3)]), turn(other, None)):
        assert rows_view(turned.rows, turned.window) == {}


def test_turn_page_reuses_a_result_only_for_equal_inputs():
    # (3,3) and (5,3) have equal columns, but their d_out maps reach targets
    # of different orders: a kernel 2u1a^3 at (3,3), none at (5,3).  (9,3)
    # and (11,3) differ in their scalars only.
    col = ((1,), (0,), (2,))
    mod, mod2 = BidegreeModule(3, 3, *col), BidegreeModule(5, 3, *col)
    tgt, tgt2 = BidegreeModule(2, 6, (2,), (0,), (1,)), BidegreeModule(4, 6, (2,), (0,), (2,))
    lone = BidegreeModule(9, 3, (1,), (0,), (1,))
    lone2 = BidegreeModule(11, 3, (1,), (1,), (1,))
    page = page_of(Target.C2, 3, Window(0, 15), {
        (3, 3): mod, (5, 3): mod2, (2, 6): tgt, (4, 6): tgt2, (9, 3): lone, (11, 3): lone2})
    cols = rows_view(page.rows, page.window)
    prop = prop_of(3, page.window, {(3, 3): LinearMap(cols[(3, 3)], cols[(2, 6)], [[(0, 0)]]),
                                    (5, 3): LinearMap(cols[(5, 3)], cols[(4, 6)], [[(0, 0)]])})
    turned = turn_page(page, prop)
    assert turned.modules == {
        (3, 3): BidegreeModule(3, 3, (1,), (1,), (1,)), (9, 3): lone, (11, 3): lone2}
    # an untouched column is the same object on the next page
    assert cell(turned, 9, 3) is cols[(9, 3)] and turned.table is page.table


def test_collapse_names_the_gap_between_trusted_ends():
    # a nonzero pair (5,1) -> (4,10) leaves room for a d9
    page = page_of(Target.C2_V0, 8, Window(0, 10, filt_max=12),
                   {(5, 1): BidegreeModule(5, 1, (0,), (0,), (1,)),
                    (4, 10): BidegreeModule(4, 10, (0,), (0,), (1,)),
                    (4, 4): BidegreeModule(4, 4, (0,), (0,), (1,))})
    with pytest.raises(CertificateError, match=r"possible d9 from \(5,1\)"):
        check_collapse(page)
    # the same pair with its target end outside the trusted window passes
    check_collapse(replace(page, window=Window(0, 10, filt_max=9)))


@pytest.mark.parametrize("pair, gap", [
    (((10, 0), (9, 9)), r"d9 from \(10,0\)"),    # the source on the top trusted stem
    (((5, 1), (4, 12)), r"d11 from \(5,1\)"),    # the target on the top trusted filtration
    (((0, 0), (-1, 9)), None),                   # the target one stem below the window
    (((11, 0), (10, 9)), None),                  # the source one stem above it
    (((5, 1), (4, 13)), None),                   # the target one filtration above it
    (((5, 1), (4, 9)), r"d8 from \(5,1\)"),       # the shortest d_r the certificate covers
    (((5, 1), (3, 10)), None),                   # stem 4 empty: no d_r reaches two stems down
], ids=("source-top-stem", "target-top-filt", "target-below", "source-above", "target-above",
        "gap-8", "stem-between-empty"))
def test_collapse_reaches_the_edges_of_the_trusted_window(pair, gap):
    one = BidegreeModule(0, 0, (0,), (0,), (1,))
    page = page_of(Target.C2_V0, 8, Window(0, 10, filt_max=12), dict.fromkeys(pair, one))
    if gap is None:
        check_collapse(page)
    else:
        with pytest.raises(CertificateError, match=gap):
            check_collapse(page)


def test_collapse_reads_only_the_cells_with_a_reported_class():
    one = BidegreeModule(0, 0, (0,), (0,), (1,))
    window = Window(0, 10, filt_max=12)
    at_n = BidegreeModule(0, 0, (window.N,), (0,), (1,))  # its one slot at the horizon
    # (4,10) reports no class, so it is no target of a d9 from (5,1)
    check_collapse(page_of(Target.C2_V0, 8, window, {(5, 1): one, (4, 10): at_n}))


def test_collapse_names_the_first_bad_order_in_bidegree_order():
    # bad orders at (5,1) and (4,3): the error names (4,3), first in (stem,
    # filt) order, although the rows meet (5,1)'s lower filtration first
    bad = {(5, 1): BidegreeModule(0, 0, (0,), (0,), (4,)),
           (4, 3): BidegreeModule(0, 0, (1,), (0,), (3,))}
    with pytest.raises(PipelineError, match=r"order 2\^3 at \(4,3\)"):
        check_collapse(page_of(Target.C2_V0, 8, Window(0, 10, filt_max=12), bad))


_STEMS, _FILTS = Window(0, 5).stem_range, Window(0, 5).filt_range  # padded
_CORNERS = [(stem, filt) for stem in (_STEMS[0], _STEMS[-1]) for filt in (0, _FILTS[-1])]


@pytest.mark.parametrize("odd", [(3, 0), *(c for c in _CORNERS if sum(c) % 2), (0, _FILTS[-1])])
def test_even_r_certificate_names_a_cell_of_odd_parity(odd):
    # one cell with stem + filt odd, at the corners or the top edge of the
    # padded window of Window(0, 5) or inside it, among even ones
    one = BidegreeModule(0, 0, (0,), (0,), (1,))
    even = {(4, 0): one, (3, 3): one, **{c: one for c in _CORNERS if sum(c) % 2 == 0}}
    page = page_of(Target.C2_V0, 2, Window(0, 5), {**even, odd: one})
    with pytest.raises(CertificateError,
                       match=rf"cell \({odd[0]},{odd[1]}\) has stem \+ filt odd"):
        check_even_r_vanishing(page)
    check_even_r_vanishing(page_of(Target.C2_V0, 2, Window(0, 5), even))


def test_views_are_read_only():
    stack = run_to_einfty(Target.C2_V0, Window(0, 5))
    page, prop = stack.pages[2], stack.maps[3]
    lm = next(iter(prop.maps.values()))
    for view, value in ((page.modules, None), (prop.maps, lm)):
        with pytest.raises(TypeError):
            view[(0, 0)] = value
        with pytest.raises(TypeError):
            del view[next(iter(view))]


def test_even_r_certificate_checks_a_shared_row_at_both_parities():
    # one row object at every filtration: its cell (4, ·) is even at
    # filtration 0 and odd at 1, so a memo of rows must also key the parity
    one = BidegreeModule(0, 0, (0,), (0,), (1,))
    page = page_of(Target.C2_V0, 2, Window(0, 5), {(4, 0): one})
    row, blank = page.rows[0], page.rows[1]
    with pytest.raises(CertificateError, match=r"cell \(4,1\) has stem \+ filt odd"):
        check_even_r_vanishing(replace(page, rows=(row,) * len(page.rows)))
    check_even_r_vanishing(replace(page, rows=(row, blank) * (len(page.rows) // 2)))


@pytest.mark.parametrize("window", [Window(0, 5), Window(-3, 12, filt_max=0)])
def test_in_padded_is_the_padded_ranges(window):
    for stem in range(window.stem_lo - 10, window.stem_hi + 11):
        for filt in range(-3, window.filt_max + 12):
            assert window.in_padded(stem, filt) == (stem in window.stem_range
                                                    and filt in window.filt_range)


def test_c2_e4_bidegree_4_0():
    stack = run_to_einfty(Target.C2, Window(0, 15))
    e4 = stack.page(4)
    assert [(t.label(), t.free) for t in e4.towers[(4, 0)][:1]] == [("2u^{-2}", True)]
    assert all(t.scalar == 1 for t in e4.towers[(4, 0)])


def test_c2_v0_e4_bidegree_3_3():
    stack = run_to_einfty(Target.C2_V0, Window(0, 15))
    e4 = stack.page(4)
    assert [(t.label(), t.period) for t in e4.towers[(3, 3)]] == [("a^{3}", None)]


def test_page_aliases():
    stack = run_to_einfty(Target.C6, Window(0, 10, N=6))
    assert stack.page(3) is stack.page(2)
    assert stack.page(5) is stack.page(4)
    assert stack.page(6) is stack.page(4)
    assert stack.page(7) is stack.page(4)
    assert stack.page(9) is stack.page(8)


def test_collapse_and_even_r_certificates_run(computed_all):
    for res in computed_all.values():
        check_collapse(res.stack.einfty)
        check_even_r_vanishing(res.stack.page(4))
        assert any("collapse" in c for c in res.stack.certificates)


def test_monotone_death(computed_all):
    for res in computed_all.values():
        for r_new, r_old in ((4, 2), (8, 4)):
            new, old = res.stack.pages[r_new], res.stack.pages[r_old]
            for key, mod in new.modules.items():
                prev = old.modules.get(key)
                assert prev is not None and sum(mod.orders) <= sum(prev.orders)


def _small_maps(n_src, n_tgt, exps):
    """Every monomial-sparse cols from n_src generators to n_tgt: each
    source generator goes nowhere or to a target row no other one hits,
    with a 2-exponent from exps."""
    def fill(j, used):
        if j == n_src:
            yield ()
            return
        for rest in fill(j + 1, used):
            yield ((),) + rest
        for i in range(n_tgt):
            if i not in used:
                for exp in exps:
                    for rest in fill(j + 1, used | {i}):
                        yield (((i, exp),),) + rest
    return list(fill(0, frozenset()))


def test_homology_never_raises_a_kept_order():
    """homology_at gives each kept slot an order at most its old order, on
    every small column and every d_in and d_out of small orders and
    exponents; so no page turn can grow a module.  Middle columns have one
    or two slots (free or not), the source two slots and the target one,
    all of orders 1..3, and the maps 2-exponents 0..2."""
    middles = [Column(tuple(range(len(orders))), (0,) * len(orders), orders, free)
               for n in (1, 2) for orders in product(range(1, 4), repeat=n)
               for free in (False, True)]
    cases = 0
    for mid, e_src, e_tgt in product(middles, range(1, 4), range(1, 4)):
        n = len(mid.u1s)
        src, tgt = Column((0, 1), (0, 0), (e_src, e_src)), Column((0,), (0,), (e_tgt,))
        for d_in_cols, d_out_cols in product([None, *_small_maps(2, n, range(3))],
                                             [None, *_small_maps(n, 1, range(3))]):
            try:
                d_in = d_in_cols and LinearMap(src, mid, d_in_cols)
                d_out = d_out_cols and LinearMap(mid, tgt, d_out_cols)
                u1s, _, new_orders, _ = homology_at(0, 0, mid, d_in, d_out)
            except PipelineError:  # not a complex, or d_in enters a free slot
                continue
            cases += 1
            old = dict(zip(mid.u1s, mid.orders))
            assert all(e <= old[b] for b, e in zip(u1s, new_orders)), (mid, d_in, d_out)
    assert cases == 14988


def _factorize_key(rules, mono):
    """What RuleSet.factorize reads of a monomial: u mod u_modulus, and on Y
    whether u1 > 0, (u + u1) mod u_modulus, alpha mod 3 and whether alpha is 0."""
    if rules.y_mode:
        return (mono.u1 > 0, (mono.u + mono.u1) % rules.u_modulus,
                mono.al % 3, mono.al == 0)
    return mono.u % rules.u_modulus


def _propagation_key(page, rules, stem, filt):
    """Everything propagate reads at (stem, filt): what factorize reads of
    the bidegree, the source column, the target column or its absence, and
    whether the target lies in the padded window."""
    u, tgt_bid = (filt - stem) // 2, (stem - 1, filt + rules.page)
    bid = (u % rules.u_modulus, filt % 3, filt == 0) if rules.y_mode else u % rules.u_modulus
    mod, tgt = page.modules[(stem, filt)], page.modules.get(tgt_bid)
    return (bid, (mod.u1s, mod.scalars, mod.orders),
            tgt and (tgt.u1s, tgt.scalars, tgt.orders), page.window.in_padded(*tgt_bid))


def test_each_slot_factorized_once_per_differential(monkeypatch, cold_tables):
    # d3 factorizes E2 and d7 E4, each once per (distinct propagation key,
    # residue class of its slots), and nothing else factorizes; every
    # residue class of the page is still factorized, so coverage is
    # checked on all of them.  On Y with N = 30 some classes hold two
    # slots, u1-exponents b and b + 24.
    calls = []
    factorize = RuleSet.factorize

    def counting(self, mono):
        calls.append((self.page, _factorize_key(self, mono)))
        return factorize(self, mono)

    monkeypatch.setattr(RuleSet, "factorize", counting)
    for target, window in ((Target.C2_V0, Window(0, 15, N=6)),
                           (Target.C6_Y, Window(0, 47, N=30))):
        calls.clear()
        stack = run_to_einfty(target, window)
        expected, on_page = Counter(), set()
        for r, page in ((3, stack.pages[2]), (7, stack.pages[4])):
            rules = rule_table(target, r)
            first = {}
            for (stem, filt), mod in page.modules.items():
                first.setdefault(_propagation_key(page, rules, stem, filt), mod)
                on_page |= {(r, _factorize_key(rules, s.mono)) for s in mod.summands}
            for mod in first.values():
                expected.update({(r, _factorize_key(rules, s.mono)) for s in mod.summands})
        assert Counter(calls) == expected, target
        assert set(calls) == on_page, target
        # so far fewer factorizations than without the memo, which makes
        # one per (page, bidegree, residue class of its slots)
        unmemoized = sum(len(rule_table(target, r).residue_classes(mod.u1s))
                         for r, page in ((3, stack.pages[2]), (7, stack.pages[4]))
                         for mod in page.modules.values())
        assert len(calls) < unmemoized, target


def _patched_rule_table(monkeypatch, page, **changes):
    def patched(target, r):
        rules = rule_table(target, r)
        return replace(rules, **changes) if r == page else rules
    monkeypatch.setattr(pages, "rule_table", patched)


def test_nonempty_d5_table_rejected(monkeypatch):
    # d5(u^-3) = a^5 is well graded, and is rejected for being there at all
    _patched_rule_table(monkeypatch, 5, values={m("u^{-3}"): m("a^{5}")})
    with pytest.raises(CertificateError, match="d5"):
        run_to_einfty(Target.C2_V0, Window(0, 15, N=6))


@pytest.mark.parametrize("r, value", [(3, "uu1a^{3}"), (7, "u^{3}a^{7}")])
def test_table_with_nonzero_d_squared_rejected(monkeypatch, r, value):
    # a well-graded extra value d_r(u^-1) composes nonzero with the stored
    # table; the page turn, the one d∘d check, rejects it
    values = {**rule_table(Target.C2_V0, r).values, m("u^{-1}"): m(value)}
    _patched_rule_table(monkeypatch, r, values=values)
    with pytest.raises(PipelineError, match="d∘d != 0"):
        run_to_einfty(Target.C2_V0, default_window(Target.C2_V0))


def test_d7_table_missing_an_e4_residue_rejected(monkeypatch):
    window = Window(0, 15, N=6)
    d7 = rule_table(Target.C2_V0, 7)
    missing = m("u^{-6}")
    e4 = run_to_einfty(Target.C2_V0, window).pages[4]
    assert any(d7.factorize(s.mono)[1] == missing
               for mod in e4.modules.values() for s in mod.summands)
    _patched_rule_table(monkeypatch, 7,
                        transversal=tuple(g for g in d7.transversal if g != missing))
    with pytest.raises(RuleCoverageError, match="not in transversal"):
        run_to_einfty(Target.C2_V0, window)


@pytest.mark.parametrize("bounds", [dict(stem_lo=5, stem_hi=3),
                                    dict(stem_lo=0, stem_hi=15, filt_max=-1)])
def test_empty_window_rejected(bounds):
    with pytest.raises(ValueError):
        Window(**bounds)
    # a single stem and filtration 0 alone are not empty
    assert Window(5, 5, filt_max=0).trusted(5, 0)


def test_hurewicz_classes_survive(computed_c6):
    assert hurewicz(computed_c6.stack.einfty) == []


def test_hurewicz_classes_survive_c2():
    stack = run_to_einfty(Target.C2, Window(0, 24))
    assert hurewicz(stack.einfty) == []


def test_hurewicz_names_eta_when_its_cell_is_emptied():
    einf = run_to_einfty(Target.C2, Window(0, 24)).einfty
    gone = replace(einf, rows=place(einf.rows, einf.window, {(1, 1): None}))
    assert hurewicz(gone) == ["eta = u1a died before Einfty"]


def test_e4_periodicity_c6():
    stack = run_to_einfty(Target.C6, Window(0, 72))
    assert periodicity(stack.page(4), Monomial(-12, 0, 0), range(0, 25)) == []


def test_e8_periodicity_c2_derived():
    stack = run_to_einfty(Target.C2, Window(0, 32))
    assert periodicity(stack.page(8), Monomial(-8, 0, 0), range(0, 17)) == []


def test_periodicity_reports_a_replaced_column():
    e8 = run_to_einfty(Target.C2, Window(0, 32)).einfty
    col = e8.rows[0][4 - e8.window.stem_range.start]  # (4, 0): a Witt series from u1^0
    cut = Column(col.u1s[1:], col.scalars[1:], col.orders[1:], col.free)
    broken = replace(e8, rows=place(e8.rows, e8.window, {(4, 0): cut}))
    assert periodicity(broken, Monomial(-8, 0, 0), range(0, 17)) == \
        ["columns 4 and 20 differ at filtration 0"]


def test_free_certification_distinguishes_w4():
    # merged W/4 towers never appear on pages; free flags only on Witt towers
    stack = run_to_einfty(Target.C2, Window(0, 15))
    for page in stack.pages.values():
        for mod in page.modules.values():
            for s in mod.summands:
                if s.free:
                    assert s.order == page.K - s.scalar
                else:
                    assert s.order == 1


def test_freeness_matches_the_k_plus_one_run(computed_all):
    # a summand is free exactly when its order grows with the truncation:
    # the same pages at K + 1 pair every summand with one of equal
    # (scalar, mono, free), free orders K - scalar and K + 1 - scalar,
    # all other orders equal
    for target, res in computed_all.items():
        K = res.window.K
        hi = compute(target, replace(res.window, K=K + 1)).stack
        for r in (2, 4, 8):
            lo_page, hi_page = res.stack.pages[r], hi.pages[r]
            assert lo_page.modules.keys() == hi_page.modules.keys(), (target, r)
            for key, mod in lo_page.modules.items():
                hi_orders = {(s.scalar, s.mono, s.free): s.order
                             for s in hi_page.modules[key].summands}
                assert len(hi_orders) == len(mod.summands), (target, r, key)
                for s in mod.summands:
                    o_hi = hi_orders[(s.scalar, s.mono, s.free)]
                    if s.free:
                        assert (s.order, o_hi) == (K - s.scalar, K + 1 - s.scalar)
                    else:
                        assert o_hi == s.order, (target, r, key, label(s))


def test_tower_recognition():
    summands = tuple(Summand(0, Monomial(-4, b, 0), 3, free=True) for b in range(1, 12)) \
        + (Summand(1, Monomial(-4, 0, 0), 2, free=True),)
    mod = from_summands(8, 0, summands)
    towers = towers_at(8, 0, tower_shapes(8, 0, _col(mod), 1, 12))
    labels = {(t.label(), t.period) for t in towers}
    assert labels == {("2u^{-4}", None), ("u^{-4}u1", 1)}


def test_tower_recognition_period_3():
    summands = tuple(Summand(0, Monomial(-1, b, 0), 1) for b in (1, 4, 7, 10))
    mod = from_summands(2, 0, summands)
    (tower,) = towers_at(2, 0, tower_shapes(2, 0, _col(mod), 3, 12))
    assert tower.label() == "u^{-1}u1" and tower.period == 3


def test_short_run_is_isolated():
    summands = (Summand(0, Monomial(0, 0, 3), 1),)
    mod = from_summands(3, 3, summands)
    (tower,) = towers_at(3, 3, tower_shapes(3, 3, _col(mod), 1, 12))
    assert tower.period is None


def test_tower_of_unexpected_order_rejected():
    summands = tuple(Summand(0, Monomial(-4, b, 0), 3) for b in range(12))
    with pytest.raises(PipelineError, match=r"order 2\^3 at \(8,0\)"):
        tower_shapes(8, 0, _col(from_summands(8, 0, summands)), 1, 12)


def test_towers_partition_the_reported_slots(computed_all):
    """Each reported slot of a trusted bidegree lies in exactly one tower
    of its bidegree, and no padded bidegree has towers.

    A tower covers exactly its offsets below N at its (u, alpha), and
    truncating the towers gives back the reported summands.
    """
    for target, res in computed_all.items():
        window, N = res.window, res.window.N
        for r in (2, 4, 8):
            page = res.stack.page(r)
            assert page.towers, (target, r)
            assert list(page.towers) == sorted(page.towers), (target, r)
            trusted = {key: mod for key, mod in page.modules.items() if window.trusted(*key)}
            assert set(page.towers) <= set(trusted) < set(page.modules), (target, r)
            for key, mod in trusted.items():
                towers = page.towers.get(key, [])
                reported = [s for s in mod.summands if s.mono.u1 < N]
                for s in reported:
                    assert sum(t.covers(s.mono) for t in towers) == 1, \
                        (target, r, key, label(s))
                rebuilt = []
                for t in towers:
                    assert [s.mono.u1 for s in reported if t.covers(s.mono)] \
                        == list(t.offsets(N)), (target, r, key, t.render())
                    rebuilt.extend(truncate_term(t, page.K, N))
                assert Counter(rebuilt) == Counter(reported), (target, r, key)


def test_boundary_effects_marked_untrusted(computed_all):
    """Boundary effects lie outside the trusted window, so trust is the window.

    A boundary flag marks a source whose d_r value leaves the padded
    window; a trusted source's d3 or d7 value lands at (stem - 1, filt + r)
    with 1 <= STEM_PAD and r <= FILT_PAD, inside it.  So no page needs a trust
    record of its own.
    """
    stacks = [res.stack for res in computed_all.values()]
    stacks.append(run_to_einfty(Target.C6_V0, Window(0, 191, filt_max=160)))
    flags = 0
    for stack in stacks:
        for r, prop in stack.maps.items():
            trusted = [key for key in prop.boundary if stack.window.trusted(*key)]
            assert trusted == [], (stack.target, r, trusted)
            flags += len(prop.boundary)
    assert flags > 0  # the propagations really flagged boundary effects


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_boundary_cells_lie_on_the_first_padded_stem_or_the_top_rows(target):
    """check_padding's scope.  propagate flags a source only where its d_r
    target is off the rows: at the first padded stem, stem_lo - STEM_PAD,
    or at filt >= filt_max + FILT_PAD + 1 - r.  No trusted cell is there
    while STEM_PAD >= 1 and FILT_PAD >= r, so on run_to_einfty the check
    cannot fail: only a hand-built propagation can.  Shown on the default
    window, a wide one off the phase of every stem period, and one stem at
    filt_max 0; both kinds of cell occur."""
    edges = Counter()
    for window in (default_window(target), Window(-40, 200, filt_max=60),
                   Window(5, 5, filt_max=0)):
        for r, prop in run_to_einfty(target, window).maps.items():
            for stem, filt in prop.boundary:
                on_stem = stem == window.stem_range.start
                on_top = filt >= window.filt_max + targets.FILT_PAD + 1 - r
                assert on_stem or on_top, (window, r, stem, filt)
                assert not window.trusted(stem, filt)
                edges["stem"] += on_stem
                edges["top"] += on_top
    assert edges["stem"] > 0 and edges["top"] > 0, edges


def test_padding_certificate_names_a_trusted_source_whose_value_leaves(monkeypatch):
    # With no stem padding, d7 of c6-y's trusted classes on stem 0 lands at
    # stem -1, outside the computed rows; uncertified, the stack computed
    # and verify matched 46 of 48 stems.
    monkeypatch.setattr(targets, "STEM_PAD", 0)
    with pytest.raises(CertificateError, match=r"d7 of trusted \(0,0\) leaves the padding"):
        compute(Target.C6_Y)


def test_stem_pad_is_the_reach_of_the_differentials():
    """E8 reads E2 STEM_PAD stems to either side: one stem per page turn
    with a nonempty table, as every d_r value lies one stem below its source."""
    tables = [rule_table(target, r) for target in Target for r in (3, 5, 7)]
    turns = {rules.page for rules in tables if rules.values}
    shifts = {g.stem - v.stem for rules in tables for g, v in rules.values.items()}
    assert turns == {3, 7} and shifts == {1}
    assert targets.STEM_PAD == len(turns) * shifts.pop()


def test_stem_pad_7_gives_the_outputs_of_the_derived_pad(monkeypatch):
    # on all five targets: the default window, every single stem from -3
    # to P + 2, and three periods at filt_max 60 (P stems per period)
    cases = []
    for target in Target:
        period = DEFAULT_STEMS[target][1] + 1
        cases += [(target, default_window(target)),
                  *((target, Window(stem, stem)) for stem in range(-3, period + 3)),
                  (target, Window(0, 3 * period - 1, filt_max=60))]

    def outputs():
        return [(pages.stack_to_json(res.stack), res.groups)
                for res in (compute(target, window) for target, window in cases)]

    derived = outputs()
    monkeypatch.setattr(targets, "STEM_PAD", 7)
    for case, got, want in zip(cases, outputs(), derived, strict=True):
        assert got == want, case


def test_no_trusted_d7_lands_where_d3_left_the_padding(computed_all):
    """FILT_PAD = 7 suffices, though d3 and d7 together reach 10 filtrations.

    E4 may be wrong at a cell whose d3 value left the padded window (its
    kernel is not cut down): the cells in d3's Propagation.boundary.  E8
    at a trusted cell reads E4 at the target of its d7, and no d7 map of a
    trusted source lands on such a cell.
    """
    stacks = [res.stack for res in computed_all.values()]
    stacks.append(run_to_einfty(Target.C6_V0, Window(0, 191, filt_max=160)))
    near = 0  # trusted d7 maps into the top filtrations, where d3 values leave
    for stack in stacks:
        window, left = stack.window, stack.maps[3].boundary
        sources = [key for key in stack.maps[7].maps if window.trusted(*key)]
        assert [(stem, filt) for stem, filt in sources if (stem - 1, filt + 7) in left] == [], \
            stack.target
        near += sum(filt + 7 + 3 >= window.filt_range.stop for _, filt in sources)
    assert near > 0


def _towers_of_every_cell(page):
    """The towers of each padded bidegree that has any, named from the rows
    without a trust test."""
    start, period, N = page.window.stem_range.start, page.target.period, page.window.N
    towers = {}
    for filt, row in enumerate(page.rows):
        for i, col in enumerate(row):
            ts = col and towers_at(start + i, filt, tower_shapes(start + i, filt, col, period, N))
            if ts:
                towers[(start + i, filt)] = ts
    return towers


@pytest.mark.parametrize("target, window", [(Target.C2_V0, Window(3, 10, filt_max=4)),
                                            (Target.C6_V0, Window(1, 8, filt_max=2))])
def test_towers_and_json_report_the_trusted_edges_and_no_neighbour(target, window):
    # On E2, E4 and E8 of these windows the trusted edges (stem_lo, stem_hi,
    # filt_max) and their outer neighbours (stem_lo - 1, stem_hi + 1,
    # filt_max + 1) all hold towers.
    lo, hi, top = window.stem_lo, window.stem_hi, window.filt_max
    for r, page in run_to_einfty(target, window).pages.items():
        every = _towers_of_every_cell(page)
        trusted = {key: ts for key, ts in every.items() if window.trusted(*key)}
        edges = {key for key in trusted if key[0] in (lo, hi) or key[1] == top}
        outer = {(n, f) for n, f in every
                 if (n in (lo - 1, hi + 1) and f <= top) or (f == top + 1 and lo <= n <= hi)}
        assert {n for n, f in edges} >= {lo, hi} and top in {f for n, f in edges}, r
        assert {n for n, f in outer} >= {lo - 1, hi + 1} and top + 1 in {f for n, f in outer}, r
        assert page.towers == trusted and list(page.towers) == sorted(trusted), r
        records = {(b["stem"], b["filt"]): [t["gen"] for t in b["towers"]]
                   for b in pages.page_to_json(page)["bidegrees"]}
        assert records == {key: [t.label() for t in ts] for key, ts in trusted.items()}, r
        assert not outer & (set(page.towers) | set(records)), r


def test_towers_are_named_on_every_trusted_cell(computed_all):
    """Page.towers, read per distinct row and named only where a slot lies
    below N, equals the towers named on every trusted cell, keys in
    bidegree order, on E2, E4 and E8 of the default windows and wide c6-v0."""
    stacks = [res.stack for res in computed_all.values()]
    stacks.append(run_to_einfty(Target.C6_V0, Window(0, 191, filt_max=160)))
    for stack in stacks:
        for r, page in stack.pages.items():
            trusted = {key: ts for key, ts in _towers_of_every_cell(page).items()
                       if stack.window.trusted(*key)}
            assert page.towers == trusted and list(page.towers) == sorted(trusted), \
                (stack.target, r)


@st.composite
def nested_windows(draw):
    """A target and two of its windows A >= B, with one K and one N."""
    lo = draw(st.integers(-40, 120))
    hi, filt_max = draw(st.integers(lo, lo + 60)), draw(st.integers(0, 60))
    b_lo = draw(st.integers(lo, hi))
    b_hi, b_filt_max = draw(st.integers(b_lo, hi)), draw(st.integers(0, filt_max))
    K, N = draw(st.integers(3, 4)), draw(st.integers(4, 14))
    return (draw(st.sampled_from(list(Target))), Window(lo, hi, filt_max, K, N),
            Window(b_lo, b_hi, b_filt_max, K, N))


@settings(max_examples=150, deadline=None)
@given(nested_windows())
def test_a_window_reports_what_a_wider_one_reports_on_it(case):
    """Window restriction: every trusted cell of B has A's towers on E2, E4
    and E8.  Groups agree where B's filt_max is at least 6: no Einfty tower
    lies above filtration 6, so B then holds every tower of its stems; below
    6 the groups of B are those of cut columns (no stem is flagged yet)."""
    target, a, b = case
    wide, narrow = compute(target, a), compute(target, b)
    for r in (2, 4, 8):
        towers = wide.stack.page(r).towers
        assert {key: ts for key, ts in towers.items() if b.trusted(*key)} == \
            narrow.stack.page(r).towers, r
    assert all(filt <= 6 for _, filt in wide.stack.einfty.towers)
    if b.filt_max >= 6:
        assert {n: g.expr for n, g in narrow.groups.items()} == \
            {n: wide.groups[n].expr for n in narrow.groups}

def test_json_writes_trusted_bidegrees_only(computed_all):
    for target, res in computed_all.items():
        for r, doc in pages.stack_to_json(res.stack)["pages"].items():
            keys = [(b["stem"], b["filt"]) for b in doc["bidegrees"]]
            assert keys and all(res.window.trusted(*key) for key in keys), (target, r)
            assert all(set(b) == {"stem", "filt", "towers"} for b in doc["bidegrees"])


def _count_recognition(monkeypatch):
    """Record the bidegrees towers_at names and the columns tower_shapes reads."""
    recognised, shaped = [], []
    recognise, shape = pages.towers_at, pages.tower_shapes

    def counted(stem, filt, shapes):
        recognised.append((stem, filt))
        return recognise(stem, filt, shapes)

    def counted_shapes(stem, filt, col, period, N):
        shaped.append(col)
        return shape(stem, filt, col, period, N)

    monkeypatch.setattr(pages, "towers_at", counted)
    monkeypatch.setattr(pages, "tower_shapes", counted_shapes)
    return recognised, shaped


def _read_every_page(stack):
    """Every reader of the towers: charts of pages 2, 3, 4, 7 and 8 (E3 and
    E7 alias E2 and E4), glyph and tower counts, the JSON and assembly."""
    for r in (2, 3, 4, 7, 8):
        page, prop = stack.page(r), stack.maps.get(r)
        render_text(page, prop, page_index=r)
        render_svg(page, prop, labels=True, eta_lines=(r == 8))
        glyph_count(page)
        tower_count(page)
    pages.stack_to_json(stack)
    assemble_all(stack)


def _distinct_columns(stack):
    return {(c.u1s, c.scalars, c.orders, c.free)
            for p in stack.pages.values() for c in rows_view(p.rows, p.window).values()}


def _reported_cells(page):
    """The column of each trusted cell of the page with a slot below N (a
    reported class), read from its rows."""
    window, start = page.window, page.window.stem_range.start
    return {(start + i, filt): col for filt, row in enumerate(page.rows)
            for i, col in enumerate(row) if col is not None and window.trusted(start + i, filt)
            and any(b < window.N for b in col.u1s)}


def test_each_page_recognises_its_towers_once(monkeypatch, cold_tables):
    """Every reader of a page's towers reads Page.towers, recognised once.

    compute recognises the Einfty towers only (assembly reads no other
    page).  Then every reader recognises each trusted bidegree with a
    reported class of the three distinct pages exactly once, and the
    tower shapes of each distinct column of those cells are found exactly
    once, whichever pages hold it; no padded cell, and no cell whose slots
    all lie at or above N, is recognised.
    """
    recognised, shaped = _count_recognition(monkeypatch)
    stack = compute(Target.C2_V0).stack
    einfty = _reported_cells(stack.einfty)
    assert sorted(recognised) == sorted(einfty)
    assert len(shaped) == len(set(shaped)) == len(set(einfty.values())) < len(einfty)
    _read_every_page(stack)
    cells = [_reported_cells(p) for p in stack.pages.values()]
    assert sorted(recognised) == sorted(key for c in cells for key in c)
    distinct = {col for c in cells for col in c.values()}
    assert len(shaped) == len(set(shaped)) == len(distinct) <= len(stack.einfty.table)


def test_tower_shapes_once_per_column_of_the_stack(monkeypatch, cold_tables):
    """On c6-y d3 is zero, so E4 holds E2's columns; E8 adds one more.
    Shapes are found once per distinct column of the stack, 5, not once
    per column of each page (4 + 4 + 5)."""
    recognised, shaped = _count_recognition(monkeypatch)
    stack = compute(Target.C6_Y).stack
    _read_every_page(stack)
    per_page = [len(set(rows_view(p.rows, p.window).values()))
                for _, p in sorted(stack.pages.items())]
    assert per_page == [4, 4, 5]
    assert len(shaped) == len(set(shaped)) == len(_distinct_columns(stack)) == 5


def test_tower_shapes_are_kept_per_horizon():
    # a page read at another N, sharing its column table, finds its own
    # shapes: the table keeps them by the (period, N) they read.  At
    # N + 6, the top of the columns, some series no longer reach N.
    page = run_to_einfty(Target.C2, Window(0, 15)).page(8)
    assert page.towers
    window = replace(page.window, N=page.window.N + 6)
    fresh = Page(page.target, page.r, window, rows=page.rows)
    assert replace(page, window=window).towers == fresh.towers != page.towers


def test_each_page_is_laid_out_once(monkeypatch):
    """Charts and JSON serialise one layout per page, found once.

    Text and SVG charts of pages 2, 3, 4, 7 and 8 (E3 and E7 alias E2 and
    E4) plus stack_to_json build one layout per distinct page and label
    each of its towers once.  The arrows of a differential are found once
    per (page, differential), and inside that once per distinct map
    between trusted bidegrees, which is once per distinct (source column,
    target column, map columns): propagate builds one map per such triple.
    """
    stack = compute(Target.C2_V0).stack
    laid_out, labelled, styled = [], [], []
    layout, label, styles = charts.page_layout, Term.label, charts._styles

    def counted_layout(page):
        laid_out.append(page)
        return layout(page)

    def counted_label(t):
        labelled.append(t)
        return label(t)

    def counted_styles(lm, *args):
        styled.append(lm)
        return styles(lm, *args)

    def maps(prop):
        trusted = stack.window.trusted
        return {lm for (stem, filt), lm in prop.maps.items()
                if trusted(stem, filt) and trusted(stem - 1, filt + prop.r)}

    def inputs(prop):
        return {(column(lm.source), column(lm.target), lm.cols) for lm in maps(prop)}

    def column(col):
        return (col.u1s, col.scalars, col.orders, col.free)

    monkeypatch.setattr(charts, "page_layout", counted_layout)
    monkeypatch.setattr(Term, "label", counted_label)
    monkeypatch.setattr(charts, "_styles", counted_styles)
    for _ in range(2):  # a second round finds everything kept
        for r in (2, 3, 4, 7, 8):
            page, prop = stack.page(r), stack.maps.get(r)
            render_text(page, prop, page_index=r)
            render_svg(page, prop, labels=True, eta_lines=True)
        pages.stack_to_json(stack)
    distinct = list(stack.pages.values())
    assert sorted(map(id, laid_out)) == sorted(map(id, distinct))
    assert len(labelled) == sum(len(ts) for p in distinct for ts in p.towers.values())
    assert len(labelled) == len(set(map(id, labelled)))
    assert len(styled) == len(set(styled)) == len(maps(stack.maps[3]) | maps(stack.maps[7]))
    assert len(styled) == len(inputs(stack.maps[3])) + len(inputs(stack.maps[7])) > 0
