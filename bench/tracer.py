"""Span tracing of the hfpss layers, installed from outside the package.

The layers are the modules of ``src/hfpss``.  ``Tracer.install`` replaces
every public function of every module with a recording wrapper at each
name it is looked up under (``hfpss.pages.propagate`` as well as
``hfpss.rules.propagate``), so calls across layers, calls inside a layer
and calls the benchmark makes itself all produce spans.  Two hot methods
that are not module functions (``RuleSet.factorize`` and
``Monomial.__mul__``) get plain call counters instead of spans.  Nothing
in ``src/`` is edited; ``uninstall`` restores every original.

Spans are kept in memory as ``[name, start, end, parent, K, query]``
lists and written out once, at the end of the run.  ``K`` is the 2-adic
truncation the span works at: taken from a ``Page`` argument, from the
``K``/``window`` arguments of ``build_e2``, from a ``Window`` argument, or
else inherited from the parent span.  ``query`` is the pass (or set-up)
the span belongs to; spans of one query share it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

MODULES = ("scalars", "monomials", "snf", "modules", "targets", "e2", "rules",
           "pages", "assembly", "groupexpr", "verify", "les", "charts", "engine")

NAME, START, END, PARENT, KTRUNC, QUERY = range(6)

# Per-layer time metrics: the summed self time (duration minus the time
# covered by child spans) of every span of the listed functions, so that
# these metrics partition a pass without double counting.
SELF_TIME_METRICS = {
    "e2.build_s": ("e2.build_e2", "e2.e2_summands"),
    "rules.coverage_s": ("rules.validate_coverage",),
    "rules.propagate_s": ("rules.propagate", "rules.rule_table"),
    "modules.homology_s": ("modules.homology_at",),
    "pages.turn_page_s": ("pages.turn_page",),
    "pages.d_squared_s": ("pages.check_d_squared", "modules.compose_cols"),
    "pages.certify_s": ("pages.run_to_einfty", "pages.check_even_r_vanishing",
                        "pages.check_collapse"),
    "pages.towers_s": ("pages.towers_of_page", "pages.towers_of_module"),
    "pages.serialize_s": ("pages.stack_to_json", "pages.page_to_json"),
    "assembly.assemble_s": ("assembly.assemble_all", "assembly.assemble_pi",
                            "assembly.extension_directives"),
    "groupexpr.iso_s": ("groupexpr.iso_invariants", "groupexpr.truncate_group",
                        "groupexpr.truncate_term", "groupexpr.term_order_exp"),
    "verify.verify_s": ("verify.verify_target",),
    "les.check_s": ("les.check_two_les", "les.check_eta_les", "les.expand_slots",
                    "les.degraded_log4", "les.group_contains"),
    "charts.render_s": ("charts.render_text", "charts.render_svg",
                        "charts.render_page"),
}

# Metrics that take whole spans of the listed functions, children included.
# (verify.fixture_load_s is the same over the set-up spans; worker.py adds it.)
TOTAL_TIME_METRICS = {
    "engine.compute_s": ("engine.compute",),
}

SPAN_CALL_METRICS = {
    "modules.homology_calls": "modules.homology_at",
    "snf.general_path_calls": "snf.presentation_decomposition",
}

METHOD_COUNTERS = (
    ("rules", "RuleSet", "factorize", "rules.factorize_calls"),
    ("monomials", "Monomial", "__mul__", "monomials.mul_calls"),
)

OUTPUT_COUNTS = ("e2.slots", "e2.bidegrees", "rules.nonzero_maps",
                 "rules.boundary_bidegrees", "assembly.towers", "assembly.merges",
                 "les.stems_checked", "charts.glyphs", "charts.bytes")

# Spans of these layers whose K is one above the K of the enclosing
# run_to_einfty belong to the freeness rerun.
RERUN_LAYERS = ("e2.", "rules.", "pages.")

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Written next to the traced results and documented in README.md.
LAYER_MAP = {
    "e2.build_s": "run_s, peak_rss_mb on wide-c6-v0; query_s_* on stem-sweep",
    "e2.slots": "run_s, peak_rss_mb on wide-c6-v0; query_s_* on stem-sweep",
    "e2.bidegrees": "run_s, peak_rss_mb on wide-c6-v0; query_s_* on stem-sweep",
    "rules.coverage_s": "run_s on verify-all and wide-c6-v0",
    "rules.propagate_s": "run_s on verify-all and wide-c6-v0",
    "rules.factorize_calls": "run_s on verify-all and wide-c6-v0",
    "rules.factorize_per_e2_slot": "run_s on verify-all and wide-c6-v0",
    "rules.nonzero_maps": "work the modules and pages layers inherit",
    "rules.boundary_bidegrees": "work the modules and pages layers inherit",
    "modules.homology_s": "run_s on verify-all and wide-c6-v0",
    "modules.homology_calls": "run_s on verify-all and wide-c6-v0",
    "snf.general_path_calls": "run_s on verify-all and wide-c6-v0",
    "pages.turn_page_s": "run_s on every compute workload; nothing on render",
    "pages.d_squared_s": "run_s on every compute workload; nothing on render",
    "pages.rerun_s": "run_s on every compute workload; nothing on render",
    "pages.certify_s": "run_s on every compute workload; nothing on render",
    "pages.useful_frac": "run_s on wide-c6-v0; query_s_* on stem-sweep",
    "pages.towers_s": "run_s on render",
    "pages.serialize_s": "run_s on render",
    "assembly.assemble_s": "run_s on render",
    "assembly.towers": "run_s on render",
    "assembly.merges": "run_s on render",
    "groupexpr.iso_s": "run_s on render",
    "verify.verify_s": "run_s on render",
    "verify.fixture_load_s": "run_s on render; setup_s on every workload",
    "les.check_s": "run_s on render",
    "les.stems_checked": "run_s on render",
    "charts.render_s": "run_s on render",
    "charts.glyphs": "run_s on render",
    "charts.bytes": "run_s on render",
    "monomials.mul_calls": "run_s on every compute workload",
    "engine.compute_s": "run_s on every compute workload",
    "trace.run_s": "none: median traced pass",
    "trace.overhead_s": "none: trace.run_s minus the untraced run_s",
    "trace.spans": "none: spans recorded per pass",
}


def page_slots(page) -> int:
    return sum(len(m.summands) for m in page.modules.values())


def chart_glyphs(text: str) -> int:
    """Glyphs drawn in a rendered text or SVG chart."""
    if text.startswith("<svg"):
        return (text.count('r="5"') + text.count('r="2.5"')
                + text.count('width="8" height="8"'))
    grid = text.split("\n\narrows:")[0].split("\n", 1)[1]
    return sum(grid.count(c) for c in ".o#")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.query = None
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        from hfpss.modules import Page
        from hfpss.targets import Window
        self._Page, self._Window = Page, Window

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hfpss.{m}") for m in MODULES}
        wrappers: dict[object, object] = {}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("hfpss.")):
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    wrappers[fn] = self._span_wrapper(f"{layer}.{fn.__name__}", fn)
                self._patch(mod, attr, wrappers[fn])
        for mod_name, cls_name, meth, metric in METHOD_COUNTERS:
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, meth, self._count_wrapper(metric, getattr(cls, meth)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset_counts(self) -> None:
        self.calls.clear()
        self.counts.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_K(self, name: str, args, kwargs, parent: int):
        if name == "e2.build_e2":
            K = kwargs.get("K", args[2] if len(args) > 2 else None)
            if K is not None:
                return K
        window = None
        for a in (*args, *kwargs.values()):
            if isinstance(a, self._Page):
                return a.K
            if isinstance(a, self._Window):
                window = a
        if window is not None:
            return window.K
        return self.spans[parent][KTRUNC] if parent >= 0 else None

    def _span_wrapper(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent, self._span_K(name, args, kwargs, parent),
                   self.query]
            spans.append(rec)
            open_.append(idx)
            self.calls[name] += 1
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                open_.pop()
            self._count_output(name, out, idx)
            return out

        return traced

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_output(self, name: str, out, idx: int) -> None:
        """Counts read from the outputs of traced calls."""
        c = self.counts
        if name == "e2.build_e2":
            c["e2.slots"] += page_slots(out)
            c["e2.bidegrees"] += len(out.modules)
            if not self.is_rerun(idx):
                c["pages.e2_slots_at_K"] += page_slots(out)
        elif name == "rules.propagate":
            c["rules.nonzero_maps"] += len(out.maps)
            c["rules.boundary_bidegrees"] += len(out.boundary)
        elif name == "pages.run_to_einfty":
            einf = out.einfty
            c["pages.einfty_trusted_slots"] += sum(
                len(m.summands) for key, m in einf.modules.items()
                if einf.is_trusted(*key))
        elif name == "assembly.assemble_all":
            c["assembly.towers"] += sum(len(g.expr.terms) for g in out.values())
            c["assembly.merges"] += sum(len(g.merged) for g in out.values())
        elif name in ("les.check_two_les", "les.check_eta_les"):
            c["les.stems_checked"] += len(out)
        elif name in ("charts.render_text", "charts.render_svg"):
            c["charts.glyphs"] += chart_glyphs(out)
            c["charts.bytes"] += len(out.encode())

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the part covered by direct children, per span."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def is_rerun(self, i: int) -> bool:
        """Is span i an e2/rules/pages span at K = (window K) + 1?"""
        s = self.spans[i]
        if s[KTRUNC] is None or not s[NAME].startswith(RERUN_LAYERS):
            return False
        j = s[PARENT]
        while j >= 0 and self.spans[j][NAME] != "pages.run_to_einfty":
            j = self.spans[j][PARENT]
        return j >= 0 and s[KTRUNC] == self.spans[j][KTRUNC] + 1

    def metrics(self, queries: set, n_passes: int) -> dict[str, float]:
        """Per-layer metrics per pass, over the spans of the given queries.

        Counts cover whatever ran since the last ``reset_counts``; reset
        them before the first measured pass.
        """
        own = self.self_times()
        self_by_name: Counter = Counter()
        total_by_name: Counter = Counter()
        rerun = 0.0
        n_spans = 0
        for i, s in enumerate(self.spans):
            if s[QUERY] not in queries:
                continue
            n_spans += 1
            self_by_name[s[NAME]] += own[i]
            total_by_name[s[NAME]] += s[END] - s[START]
            if self.is_rerun(i) and not (s[PARENT] >= 0 and self.is_rerun(s[PARENT])):
                rerun += s[END] - s[START]
        out = {m: sum(self_by_name[n] for n in names) / n_passes
               for m, names in SELF_TIME_METRICS.items()}
        out.update({m: sum(total_by_name[n] for n in names) / n_passes
                    for m, names in TOTAL_TIME_METRICS.items()})
        out["pages.rerun_s"] = rerun / n_passes
        out.update({m: self.calls[name] / n_passes
                    for m, name in SPAN_CALL_METRICS.items()})
        c = self.counts
        out.update({m: c[m] / n_passes for m in OUTPUT_COUNTS})
        for _, _, _, metric in METHOD_COUNTERS:
            out[metric] = c[metric] / n_passes
        # base: E2 slots at K and K+1, the slots every factorize pass sees
        out["rules.factorize_per_e2_slot"] = (
            c["rules.factorize_calls"] / c["e2.slots"] if c["e2.slots"] else 0.0)
        # base: E2 slots of the K run; the K+1 rerun shows in pages.rerun_s
        out["pages.useful_frac"] = (
            c["pages.einfty_trusted_slots"] / c["pages.e2_slots_at_K"]
            if c["pages.e2_slots_at_K"] else 0.0)
        out["trace.spans"] = n_spans / n_passes
        return out

    def write(self, path: str) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "workload": self.workload,
            "fields": ["name", "start", "end", "parent", "K", "query"],
            "names": names,
            "spans": [[index[s[NAME]], round(s[START], 7), round(s[END], 7),
                       s[PARENT], s[KTRUNC], s[QUERY]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
