"""The engine layers pay per distinct column, not per bidegree.

On the wide c6-v0 window of the benchmark (stems 0..191, filt_max 160)
only a handful of columns, and of rows, are distinct.  Counted there:
Column records, LinearMap validations, BidegreeModule constructions
(none: modules are built only at the edges), the bidegree-keyed views
(none: compute walks the rows), the column objects pages share, the E2
residues build_e2 reads, and the rows each walk computes.
"""

import sys
from itertools import groupby

import pytest

from hfpss import e2, engine, modules
from hfpss.modules import BidegreeModule, ColumnTable, LinearMap, rows_view
from hfpss.rules import rule_table
from hfpss.targets import Target, Window

from pagechecks import cell

WIDE = Window(0, 191, filt_max=160)


def _content(col):
    return None if col is None else (col.u1s, col.scalars, col.orders, col.free)


def test_wide_window_work_is_per_distinct_column(monkeypatch, cold_tables):
    made, validated, built, residues, rows = [], [], [], [], []
    column, validate, residue = modules.Column, LinearMap.__post_init__, e2._u1_residue
    build, row = BidegreeModule.__init__, ColumnTable.row

    def counted_column(*fields):
        made.append(fields)
        return column(*fields)

    def counted_validate(lm):
        validated.append(lm)
        validate(lm)

    def counted_build(mod, *fields):
        built.append(fields)
        build(mod, *fields)

    def counted_residue(stem, filt):
        residues.append((stem, filt))
        return residue(stem, filt)

    def counted_row(table, cells):
        rows.append(sys._getframe(1).f_code.co_name)  # the walk that computed it
        return row(table, cells)

    monkeypatch.setattr(ColumnTable, "row", counted_row)
    monkeypatch.setattr(modules, "Column", counted_column)
    monkeypatch.setattr(LinearMap, "__post_init__", counted_validate)
    monkeypatch.setattr(BidegreeModule, "__init__", counted_build)
    monkeypatch.setattr(e2, "_u1_residue", counted_residue)
    stack = engine.compute(Target.C6_V0, WIDE).stack
    monkeypatch.undo()

    # compute, assembly included, reads the rows and builds no bidegree-keyed view
    for obj in (*stack.pages.values(), *stack.maps.values()):
        assert not {"modules", "maps"} & set(vars(obj)), obj.r

    # build_e2 reads one residue per stride-12 progression of the cells with
    # stem + filt even, the only ones with slots, on rows 0..12: 6 per row,
    # together covering each such cell of those rows once; every row above
    # is a copy of the row 12 below it
    width = len(WIDE.stem_range)
    assert all((stem + filt) % 2 == 0 for stem, filt in residues)
    assert len(residues) == len(set(residues)) == 6 * 13
    assert {filt for _, filt in residues} == set(range(13))
    assert sum(len(range(stem - WIDE.stem_range.start, width, 12))
               for stem, _ in residues) == 13 * width // 2
    e2_rows = stack.pages[2].rows
    assert all(e2_rows[f] is e2_rows[f - 12] for f in range(13, len(e2_rows)))

    # each walk computes a row once per distinct input (see propagate and
    # turn_page), of 168 rows each; turn_page also asks once for the blank
    # d_in row of the filtrations below r.  An all-None row is the one blank
    # row of the stack, so the distinct rows can be fewer than those computed.
    assert [(name, len(list(calls))) for name, calls in groupby(rows)] == [
        ("build_e2", 13), ("propagate", 28), ("turn_page", 1 + 31),
        ("propagate", 62), ("turn_page", 1 + 69)]
    assert [len(set(map(id, x.rows))) for x in (stack.pages[2], stack.maps[3], stack.pages[4],
                                                  stack.maps[7], stack.pages[8])] == [
        13, 26, 31, 56, 69]
    assert {len(x.rows) for x in (*stack.pages.values(), *stack.maps.values())} == {168}
    # rows are shared between filtrations and pages, so none can be written to
    for x in (*stack.pages.values(), *stack.maps.values()):
        with pytest.raises(TypeError):
            x.rows[20][3] = None
        with pytest.raises(TypeError):
            x.rows[20] = x.rows[8]

    # one Column per distinct column of the stack, and no module at all
    distinct = {_content(col) for page in stack.pages.values()
                for col in rows_view(page.rows, page.window).values()}
    assert len(made) == len(set(made)) == len(distinct) == len(stack.einfty.table) == 6
    assert built == []

    # the columns of d_r are found once per distinct propagate input; 10
    # inputs give a map, and they give 5 distinct maps: one LinearMap,
    # validated once, per distinct (source, target, cols), which every
    # bidegree that gives it holds
    inputs, distinct = 0, 0
    for r, page in ((3, stack.pages[2]), (7, stack.pages[4])):
        rules = rule_table(Target.C6_V0, r)
        maps = stack.maps[r].maps
        inputs += len({(rules.bidegree_key(stem, filt), _content(cell(page, stem, filt)),
                        _content(cell(page, stem - 1, filt + r)),
                        WIDE.in_padded(stem - 1, filt + r))
                       for stem, filt in maps})
        contents = {(_content(lm.source), _content(lm.target), lm.cols) for lm in maps.values()}
        assert len(set(maps.values())) == len(contents)
        distinct += len(contents)
    assert (inputs, distinct) == (10, 5)
    assert len(validated) == len(set(validated)) == distinct
    assert distinct < sum(len(stack.maps[r].maps) for r in (3, 7)) // 1000

    # an untouched bidegree keeps its column object on the next page
    for r, page, turned in ((3, stack.pages[2], stack.pages[4]),
                            (7, stack.pages[4], stack.pages[8])):
        maps = stack.maps[r].maps
        for (stem, filt), col in rows_view(page.rows, page.window).items():
            if (stem, filt) not in maps and (stem + 1, filt - r) not in maps:
                assert cell(turned, stem, filt) is col


def test_zero_differential_keeps_the_distinct_rows():
    # d3 is zero on c6-y: every d3 row is the stack's one blank row, so
    # E4 computes one row per distinct E2 row, 13 of 48, each holding the
    # E2 row's own column objects
    stack = engine.compute(Target.C6_Y).stack
    e2_rows, d3_rows, e4_rows = stack.pages[2].rows, stack.maps[3].rows, stack.pages[4].rows
    assert len(e4_rows) == 48 and {id(row) for row in d3_rows} == {id(d3_rows[0])}
    blank = stack.einfty.table.row([None] * len(d3_rows[0]))
    assert not any(d3_rows[0]) and d3_rows[0] is blank
    assert len({id(row) for row in e2_rows}) == len({id(row) for row in e4_rows}) == 13
    assert all(a is b for row, new in zip(e2_rows, e4_rows) for a, b in zip(row, new))
