"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pytest  # noqa: E402

import hfpss.engine  # noqa: E402
import hfpss.pages  # noqa: E402
from hfpss.e2 import build_e2  # noqa: E402
from hfpss.groupexpr import parse_group_expr  # noqa: E402
from hfpss.targets import Target, Window  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SMALL = Window(0, 5)


@pytest.fixture(scope="module")
def traced_compute():
    t = tr.Tracer("test")
    t.install()
    try:
        t.query = 0
        result = hfpss.engine.compute(Target.C6_Y, SMALL)  # the wrapped name
    finally:
        t.uninstall()
    return t, result


def test_uninstall_restores_every_original(traced_compute):
    original = hfpss.pages.propagate
    t = tr.Tracer("test")
    t.install()
    assert hfpss.pages.propagate is not original
    t.uninstall()
    assert hfpss.pages.propagate is original


def test_traced_slot_counts_equal_page_totals(traced_compute):
    t, _ = traced_compute
    pages = [build_e2(Target.C6_Y, SMALL, K) for K in (SMALL.K, SMALL.K + 1)]
    assert t.counts["e2.slots"] == sum(tr.page_slots(p) for p in pages)
    assert t.counts["e2.bidegrees"] == sum(len(p.modules) for p in pages)
    assert t.counts["pages.e2_slots_at_K"] == tr.page_slots(pages[0])
    m = t.metrics({0}, 1)
    assert m["rules.factorize_per_e2_slot"] == (
        t.counts["rules.factorize_calls"] / t.counts["e2.slots"])


def test_child_spans_never_exceed_their_parent(traced_compute):
    t, _ = traced_compute
    assert t.spans
    for s in t.spans:
        assert s[tr.START] <= s[tr.END]
        if s[tr.PARENT] >= 0:
            p = t.spans[s[tr.PARENT]]
            assert p[tr.START] <= s[tr.START] and s[tr.END] <= p[tr.END]
    assert min(t.self_times()) >= -1e-9


def test_rerun_spans_are_the_K_plus_one_pass(traced_compute):
    t, result = traced_compute
    rerun = [s for i, s in enumerate(t.spans) if t.is_rerun(i)]
    assert rerun and all(s[tr.KTRUNC] == result.window.K + 1 for s in rerun)
    assert {s[tr.NAME] for s in rerun} >= {"e2.build_e2", "rules.propagate",
                                          "pages.turn_page"}
    m = t.metrics({0}, 1)
    assert 0 < m["pages.rerun_s"] < m["engine.compute_s"]


def test_self_times_partition_the_root_span(traced_compute):
    t, _ = traced_compute
    root = next(i for i, s in enumerate(t.spans) if s[tr.PARENT] < 0)
    own = t.self_times()
    duration = t.spans[root][tr.END] - t.spans[root][tr.START]
    assert sum(own) == pytest.approx(duration, rel=1e-6)


def test_same_seed_gives_the_same_stem_sample():
    fixtures = workloads.load_all_fixtures()
    first = workloads.stem_sample(7, fixtures)
    assert first == workloads.stem_sample(7, fixtures)
    assert first != workloads.stem_sample(8, fixtures)
    per_target = {t: sorted(fe.stem for tt, fe in first if tt is t) for t in Target}
    for t, stems in per_target.items():
        assert len(stems) == len(fixtures[t]) // workloads.SWEEP_BLOCK
        assert [s // workloads.SWEEP_BLOCK for s in stems] == list(range(len(stems)))


def test_a_wrong_fixture_entry_raises_fail_frac():
    fixtures = workloads.load_all_fixtures()
    good = next(fe for fe in fixtures[Target.C6_Y] if fe.stem == 4)
    wrong = workloads.verify.FixtureEntry(stem=4, expr=parse_group_expr("F4"),
                                          underlined=False)
    for entry, failed in ((good, 0), (wrong, 1)):
        state = {"sample": [(Target.C6_Y, entry)]}
        outputs, times = workloads.sweep_pass(state)
        checked = workloads.sweep_check(state, outputs)
        assert len(times) == 1
        assert (checked.attempted, len(checked.failures)) == (1, failed)


def test_tail_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(176)]
    assert run.tail(samples) == (165.0, pytest.approx(100 * 166 / 176))
    assert run.tail(samples[:99]) == (98.0, 100.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-all",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
