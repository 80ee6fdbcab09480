"""The four benchmark workloads: set-up, one timed pass, and its checks.

Every hfpss call goes through a module attribute (``engine.compute``, not
a name imported into this file), so the tracer's wrappers see the calls
the benchmark makes.  A pass returns its outputs and, when it is made of
several independent queries, the time of each (``clock.since``);
otherwise the whole pass is the query.  ``check`` reads the outputs of one pass and returns
how many checks it attempted and which failed.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field

from hfpss import assembly, charts, engine, groupexpr, les, pages, verify
from hfpss.targets import Target, Window

import clock
from tracer import chart_glyphs

FIXTURE_STEMS = 176
WIDE_WINDOW = Window(0, 191, filt_max=160)
PERIOD = 48
RENDER_PAGES = (2, 3, 4, 7, 8)
SWEEP_BLOCK = 4  # stem-sweep draws one stem from every block of 4 stems


@dataclass
class Checked:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _check_report(report, fixtures, out: Checked, where: str) -> None:
    """Each fixture stem matched as a group, and by name unless excepted."""
    if isinstance(report, BaseException):
        for fe in fixtures:
            out.expect(False, f"{where} pi_{fe.stem}: {_error(report)}")
        return
    entries = {e.stem: e for e in report.entries}
    for fe in fixtures:
        e = entries.get(fe.stem)
        if e is None:
            out.expect(False, f"{where} pi_{fe.stem}: not checked")
        elif not e.iso_match:
            out.expect(False, f"{where} pi_{fe.stem}: group mismatch, "
                              f"computed {e.computed!r}, expected {e.expected!r}")
        else:
            out.expect(e.name_match or e.exception is not None,
                       f"{where} pi_{fe.stem}: name mismatch outside the "
                       f"documented exceptions: {e.computed!r} vs {e.expected!r}")


def load_all_fixtures() -> dict[Target, list]:
    return {t: verify.load_fixtures(t) for t in Target}


# ---------------------------------------------------------------------------
# verify-all: what `hfpss verify --all` users wait for.

def verify_all_setup(seed: int) -> dict:
    order = list(Target)
    random.Random(seed).shuffle(order)
    return {"fixtures": load_all_fixtures(), "order": order}


def verify_all_pass(state: dict):
    reports = []
    for t in state["order"]:
        try:
            result = engine.compute(t, engine.default_window(t))
            reports.append((t, verify.verify_target(result, fixtures=state["fixtures"][t])))
        except Exception as exc:  # a failed target is counted, the pass goes on
            reports.append((t, exc))
    return reports, None


def verify_all_check(state: dict, reports) -> Checked:
    out = Checked()
    fixtures = state["fixtures"]
    out.expect(sum(len(f) for f in fixtures.values()) == FIXTURE_STEMS,
               f"fixture tables do not hold {FIXTURE_STEMS} stems")
    for t, report in reports:
        _check_report(report, fixtures[t], out, t.value)
    return out


# ---------------------------------------------------------------------------
# wide-c6-v0: one compute at scale.

def wide_setup(seed: int) -> dict:
    # The input is fixed: this workload is the scale point, so the seed
    # does not change it.
    return {"fixtures": verify.load_fixtures(Target.C6_V0), "window": WIDE_WINDOW}


def wide_pass(state: dict):
    try:
        return engine.compute(Target.C6_V0, state["window"]), None
    except Exception as exc:
        return exc, None


def wide_check(state: dict, result) -> Checked:
    out = Checked()
    window = state["window"]
    fixtures = [fe for fe in state["fixtures"] if fe.stem < PERIOD]
    if isinstance(result, BaseException):
        _check_report(result, fixtures, out, "c6-v0")
        for n in range(PERIOD, window.stem_hi + 1):
            out.expect(False, f"c6-v0 pi_{n}: {_error(result)}")
        return out
    _check_report(verify.verify_target(result, fixtures=fixtures), fixtures, out, "c6-v0")
    K, N = window.K, window.N
    for n in range(PERIOD, window.stem_hi + 1):
        here, there = result.groups.get(n), result.groups.get(n - PERIOD)
        ok = here is not None and there is not None and all(
            groupexpr.iso_invariants(here.expr, k, N)
            == groupexpr.iso_invariants(there.expr, k, N) for k in (K, K + 1))
        out.expect(ok, f"c6-v0 pi_{n}: breaks the {PERIOD}-periodicity")
    return out


# ---------------------------------------------------------------------------
# stem-sweep: many small single-stem queries.

def stem_sample(seed: int, fixtures: dict[Target, list]) -> list[tuple[Target, object]]:
    """One fixture stem from every block of 4 stems of every target, shuffled."""
    rng = random.Random(seed)
    sample = []
    for t in Target:
        entries = sorted(fixtures[t], key=lambda fe: fe.stem)
        for i in range(0, len(entries), SWEEP_BLOCK):
            sample.append((t, rng.choice(entries[i:i + SWEEP_BLOCK])))
    rng.shuffle(sample)
    return sample


def sweep_setup(seed: int) -> dict:
    fixtures = load_all_fixtures()
    return {"sample": stem_sample(seed, fixtures)}


def sweep_pass(state: dict):
    reports, times = [], []
    for t, fe in state["sample"]:
        start = clock.mark()
        try:
            result = engine.compute(t, engine.default_window(t, fe.stem, fe.stem))
            reports.append(verify.verify_target(result, fixtures=[fe]))
        except Exception as exc:
            reports.append(exc)
        times.append(clock.since(start)[1])
    return reports, times


def sweep_check(state: dict, reports) -> Checked:
    out = Checked()
    for (t, fe), report in zip(state["sample"], reports):
        _check_report(report, [fe], out, t.value)
    return out


# ---------------------------------------------------------------------------
# render: the downstream layers on stacks built in set-up.

def render_setup(seed: int) -> dict:
    rng = random.Random(seed)
    order = list(Target)
    rng.shuffle(order)
    page_order = list(RENDER_PAGES)
    rng.shuffle(page_order)
    fixtures = load_all_fixtures()
    results = {t: engine.compute(t) for t in Target}
    towers = {(t, r): charts.tower_count(results[t].stack.page(r))
              for t in Target for r in RENDER_PAGES}
    glyphs = {(t, r): charts.glyph_count(results[t].stack.page(r))
              for t in Target for r in RENDER_PAGES}
    groups = {t: {n: g.expr.render() for n, g in results[t].groups.items()}
              for t in Target}
    return {"fixtures": fixtures, "results": results, "order": order,
            "pages": page_order, "towers": towers, "glyphs": glyphs,
            "groups": groups}


def render_pass(state: dict):
    out = {"charts": {}, "json": {}, "groups": {}, "reports": {}}
    for t in state["order"]:
        result = state["results"][t]
        stack = result.stack
        for r in state["pages"]:
            page = stack.page(r)
            prop = stack.maps.get(r) if r in (3, 7) else None
            out["charts"][(t, r)] = (
                charts.render_text(page, prop, page_index=r),
                charts.render_svg(page, prop, labels=True, eta_lines=(r == 8)))
        out["json"][t] = pages.stack_to_json(stack)
        out["groups"][t] = assembly.assemble_all(stack)
        out["reports"][t] = verify.verify_target(result, fixtures=state["fixtures"][t])
    g = {t: {n: a.expr for n, a in groups.items()} for t, groups in out["groups"].items()}
    out["two_les"] = les.check_two_les(g[Target.C2], g[Target.C2_V0],
                                       state["results"][Target.C2].window)
    out["eta_les"] = les.check_eta_les(g[Target.C6_V0], g[Target.C6_Y],
                                       state["results"][Target.C6_Y].window)
    return out, None


def render_check(state: dict, out: dict) -> Checked:
    chk = Checked()
    for (t, r), (text, svg) in out["charts"].items():
        want = state["towers"][(t, r)]
        got = (state["glyphs"][(t, r)], chart_glyphs(text), chart_glyphs(svg))
        chk.expect(all(g == want for g in got),
                   f"{t.value} E{r}: glyph counts (page, text, svg) {got} "
                   f"!= tower count {want}")
    for t, groups in out["groups"].items():
        rendered = {n: a.expr.render() for n, a in groups.items()}
        chk.expect(rendered == state["groups"][t],
                   f"{t.value}: assembled groups differ from set-up")
        chk.expect(out["json"][t]["target"] == t.value,
                   f"{t.value}: serialized stack names another target")
        _check_report(out["reports"][t], state["fixtures"][t], chk, t.value)
    for name, checks, expected in (("2-cofiber", out["two_les"], 16),
                                   ("eta-cofiber", out["eta_les"], 48)):
        chk.expect(len(checks) == expected,
                   f"{name} LES checked {len(checks)} stems, expected {expected}")
        for c in checks:
            chk.expect(c.ok, f"{name} LES fails at stem {c.stem}: "
                             f"{c.lhs} != {c.coker} + {c.ker}")
    return chk


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    run_pass: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("verify-all",
             "compute + verify of all five targets at the default windows; "
             "the acceptance gate that verify --all users wait for",
             verify_all_setup, verify_all_pass, verify_all_check),
    Workload("wide-c6-v0",
             "c6-v0 on stems 0..191 with filt_max 160: about 104k E2 slots, "
             "where per-bidegree cost and memory dominate",
             wide_setup, wide_pass, wide_check),
    Workload("stem-sweep",
             "44 seeded single-stem queries, one per block of 4 stems of each "
             "target: fixed per-call cost and padding dominate",
             sweep_setup, sweep_pass, sweep_check),
    Workload("render",
             "charts, serialization, assembly, verify and LES on stacks built "
             "in set-up: the engine layers do none of the timed work",
             render_setup, render_pass, render_check),
)}
