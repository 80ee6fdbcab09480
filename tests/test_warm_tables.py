"""Column tables kept across computes change no output.

modules.column_table keeps one ColumnTable per (target, K, n_u1) for the
process, and with it the cell memos of build_e2, propagate, turn_page and
Page.towers.  A warm compute gives byte for byte what a cold one gives,
whatever warmed the table: other windows, other targets, another K or N,
a replaced rule table, or a compute that raised.  A cell that failed fails
again, with the same message, and a warm compute redoes no cell that an
earlier one did.
"""

import json
import re
from collections import Counter
from contextlib import suppress
from dataclasses import FrozenInstanceError, replace

import pytest

from hfpss import e2, pages, rules as rules_module
from hfpss.charts import render_text
from hfpss.e2 import build_e2
from hfpss.engine import compute, default_window
from hfpss.modules import HfpssError, Page, PipelineError, column_table, rows_view
from hfpss.monomials import parse_monomial
from hfpss.pages import stack_to_json
from hfpss.rules import propagate, rule_table
from hfpss.targets import Target, Window

WIDE = Window(0, 191, filt_max=160)
OFF_PHASE = Window(-13, 21, filt_max=33)  # starts on no period of the stem


def _windows(target):
    return default_window(target), default_window(target, 17, 17), OFF_PHASE, WIDE


def _content(col):
    return col and (col.u1s, col.scalars, col.orders, col.free)


def _outputs(target, window):
    """What a compute shows: its JSON, its groups and the text charts of
    pages 2..8, and what it holds: the content of every cell and map."""
    result = compute(target, window)
    stack = result.stack
    return (json.dumps(stack_to_json(stack)),
            {n: (g.expr.render(), g.consulted, g.merged) for n, g in result.groups.items()},
            [render_text(stack.page(r), stack.maps.get(r), page_index=r) for r in range(2, 9)],
            [[list(map(_content, row)) for row in p.rows] for p in stack.pages.values()],
            [[[lm and (_content(lm.source), _content(lm.target), lm.cols) for lm in row]
              for row in prop.rows] for prop in stack.maps.values()])


def _uncovered(target, r):
    """The d7 table without its last transversal element that has no value."""
    rules = rule_table(target, r)
    if r == 7:
        bare = [g for g in rules.transversal if g not in rules.values]
        rules = replace(rules, transversal=tuple(g for g in rules.transversal if g != bare[-1]))
    return rules


def _without_d7(target, r):
    rules = rule_table(target, r)
    return replace(rules, values={}) if r == 7 else rules


def _error(monkeypatch, target, rule_of):
    """The error of a compute with the rule tables of rule_of, as printed."""
    with monkeypatch.context() as patch:
        patch.setattr(pages, "rule_table", rule_of)
        with pytest.raises(HfpssError) as info:
            compute(target)
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("target", list(Target))
def test_warm_computes_give_the_cold_outputs(monkeypatch, target):
    cold = {}
    for window in _windows(target):
        column_table.cache_clear()
        cold[window] = _outputs(target, window)
    column_table.cache_clear()
    raised = _error(monkeypatch, target, _uncovered)
    assert raised.startswith("RuleCoverageError")
    # warm the tables, from cold: another K and N first, so that a table
    # they wrongly share holds their columns, then every other target,
    # another window, a rule table changed with replace (d7 zero fails the
    # collapse check after both page turns ran) and a compute that raised
    column_table.cache_clear()
    compute(target, replace(default_window(target), K=4))
    compute(target, replace(default_window(target), N=16))
    for other in Target:
        compute(other)
    compute(target, Window(-30, 100, filt_max=60))
    with monkeypatch.context() as patch, suppress(HfpssError):
        patch.setattr(pages, "rule_table", _without_d7)
        compute(target)
    assert _error(monkeypatch, target, _uncovered) == raised
    for window in reversed(_windows(target)):
        assert _outputs(target, window) == cold[window], window


def _counted(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


# _values_at calls of a compute after one on the default window, at the
# default (K, N), on stems 17, 5 and 100 and on Window(-30, 100,
# filt_max=60): a cell whose d_r target leaves the padded window, or sits
# at a new phase of the window's edge, has a propagate key of its own.
WARM_VALUES_AT = {
    Target.C2: (0, 1, 1, 2),
    Target.C2_V0: (1, 0, 1, 0),
    Target.C6: (1, 1, 2, 2),
    Target.C6_V0: (2, 2, 4, 0),
    Target.C6_Y: (0, 0, 2, 2),
}


@pytest.mark.parametrize("target", list(Target))
def test_a_warm_compute_redoes_no_cell(monkeypatch, cold_tables, target):
    compute(target)
    calls = Counter()
    for module, name in ((rules_module, "_values_at"), (pages, "homology_at"),
                         (e2, "_u1_range"), (pages, "tower_shapes")):
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
    compute(target)
    assert calls == Counter()
    got = []
    for window in (default_window(target, 17, 17), default_window(target, 5, 5),
                   default_window(target, 100, 100), Window(-30, 100, filt_max=60)):
        calls.clear()
        compute(target, window)
        assert set(calls) <= {"_values_at"}, window
        got.append(calls["_values_at"])
    assert tuple(got) == WARM_VALUES_AT[target]
    # another N is another table, which starts cold
    calls.clear()
    compute(target, default_window(target, N=16))
    assert calls["_u1_range"] == 24 and calls["homology_at"] > 0


def test_a_failing_cell_stores_nothing(monkeypatch, cold_tables):
    """A cell that fails raises before its memo entry is stored, so every
    run that meets it fails there again: in homology_at (d∘d != 0) and
    where propagate builds a LinearMap (an F4 class onto a W/8 one)."""
    def d_squared(target, r):
        rules = rule_table(target, r)
        extra = {parse_monomial("u^{-1}"): parse_monomial("u^{3}a^{7}")} if r == 7 else {}
        return replace(rules, values={**rules.values, **extra})

    first = _error(monkeypatch, Target.C2_V0, d_squared)
    assert "d∘d != 0" in first and _error(monkeypatch, Target.C2_V0, d_squared) == first

    window = default_window(Target.C2)
    table, width = build_e2(Target.C2, window).table, len(window.stem_range)
    assert table is column_table(Target.C2, window.K, window.n_u1)
    src, tgt = table[(0,), (0,), (1,), False], table[(1,), (0,), (3,), False]

    def page(*sources):
        rows = [[None] * width for _ in window.filt_range]
        for stem in sources:
            rows[0][stem + 2], rows[3][stem + 1] = src, tgt
        return Page(Target.C2, 2, window, tuple(map(tuple, rows)), table)

    # one propagate key at (4,0) and (12,0), d3(u^-2) = u1 a^3 and d3(u^-6)
    for sources, at in (((4, 12), "(4,0)"), ((12,), "(12,0)"), ((4, 12), "(4,0)")):
        with pytest.raises(PipelineError, match=re.escape(f"d3 at {at}: map not well defined")):
            propagate(page(*sources), rule_table(Target.C2, 3))


def test_shared_records_cannot_be_written(computed_c6_v0):
    stack = computed_c6_v0.stack
    lm = next(iter(stack.maps[3].maps.values()))
    for name in ("cols", "source", "target"):
        with pytest.raises(FrozenInstanceError):
            setattr(lm, name, getattr(lm, name))
    page = stack.einfty
    col = next(iter(rows_view(page.rows, page.window).values()))
    key = (col.u1s, col.scalars, col.orders, col.free)
    assert page.table[key] is col
    with pytest.raises(TypeError):
        page.table[key] = col
