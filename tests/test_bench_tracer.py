"""The benchmark's tracer still runs on the package and counts what the rows hold.

bench/tracer.py patches the package from outside and reads its views
(Page.modules, Page.is_trusted, BidegreeModule.summands and
Propagation.maps), so a change in src/ can break `bench/run.py --trace`.
This loads it by path, traces one compute and one SVG chart, and checks
its slot and map counts against the rows of the one pass.
"""

import importlib.util
import pathlib

from hfpss import charts, engine, pages
from hfpss.targets import Target, Window

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells(rows):
    return [x for row in rows for x in row if x is not None]


def test_traced_counts_equal_the_rows_of_the_one_pass():
    propagate = pages.propagate
    tracer = _load_tracer().Tracer("c6-y")
    tracer.install()
    try:
        stack = engine.compute(Target.C6_Y, Window(0, 5)).stack
        charts.render_svg(stack.page(3), stack.maps[3])
    finally:
        tracer.uninstall()
    assert pages.propagate is propagate

    e2, einf, w = stack.pages[2], stack.einfty, stack.window
    start = w.stem_range.start
    trusted = [len(col.u1s) for filt, row in enumerate(einf.rows)
               for i, col in enumerate(row) if col is not None and w.trusted(start + i, filt)]
    counts = tracer.counts
    assert (counts["e2.slots"], counts["e2.bidegrees"], counts["rules.nonzero_maps"],
            counts["pages.einfty_trusted_slots"]) == (
        sum(len(col.u1s) for col in _cells(e2.rows)), len(_cells(e2.rows)),
        sum(len(_cells(stack.maps[r].rows)) for r in (3, 7)), sum(trusted)) == (108, 83, 30, 21)
