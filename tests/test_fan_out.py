"""The engine layers pay per distinct column, not per bidegree.

On the wide c6-v0 window of the benchmark (stems 0..191, filt_max 160)
only a handful of columns are distinct.  Counted there: LinearMap
validations, the modules turn_page builds, the module objects pages
share, and the E2 cells build_e2 visits.
"""

from hfpss import e2, pages
from hfpss.modules import LinearMap
from hfpss.pages import run_to_einfty
from hfpss.rules import rule_table
from hfpss.targets import Target, Window

WIDE = Window(0, 191, filt_max=160)


def _column(mod):
    return None if mod is None else (mod.u1s, mod.scalars, mod.orders)


def test_wide_window_work_is_per_distinct_column(monkeypatch):
    validated, built, residues = [], [], []
    validate, build, residue = LinearMap.__post_init__, pages.BidegreeModule, e2._u1_residue

    def counted_validate(lm):
        validated.append(lm)
        validate(lm)

    def counted_build(stem, filt, u1s, *cols):
        built.append(u1s)
        return build(stem, filt, u1s, *cols)

    def counted_residue(stem, filt):
        residues.append((stem, filt))
        return residue(stem, filt)

    monkeypatch.setattr(LinearMap, "__post_init__", counted_validate)
    monkeypatch.setattr(pages, "BidegreeModule", counted_build)
    monkeypatch.setattr(e2, "_u1_residue", counted_residue)
    stack = run_to_einfty(Target.C6_V0, WIDE)
    monkeypatch.undo()

    # build_e2 visits the cells with stem + filt even, the only ones with slots
    cells = len(WIDE.stem_range) * len(WIDE.filt_range)
    assert all((stem + filt) % 2 == 0 for stem, filt in residues)
    assert len(residues) == cells // 2

    # one validation per distinct propagate input that gives a map
    inputs = 0
    for r, page in ((3, stack.pages[2]), (7, stack.pages[4])):
        rules = rule_table(Target.C6_V0, r)
        inputs += len({(rules.bidegree_key(stem, filt), _column(page.modules[(stem, filt)]),
                        _column(page.modules.get((stem - 1, filt + r))),
                        WIDE.in_padded(stem - 1, filt + r))
                       for stem, filt in stack.maps[r].maps})
    assert len(validated) == inputs
    assert inputs < sum(len(stack.maps[r].maps) for r in (3, 7)) // 100

    # turn_page builds only new, nonempty modules; an untouched bidegree
    # keeps its module object on the next page
    new = 0
    for r, page, turned in ((3, stack.pages[2], stack.pages[4]),
                            (7, stack.pages[4], stack.pages[8])):
        maps = stack.maps[r].maps
        for (stem, filt), mod in page.modules.items():
            if (stem, filt) not in maps and (stem + 1, filt - r) not in maps:
                assert turned.modules[(stem, filt)] is mod
        new += sum(mod is not page.modules[key] for key, mod in turned.modules.items())
    assert all(built) and len(built) == new
