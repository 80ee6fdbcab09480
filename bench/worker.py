"""One workload in one fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``ready`` as soon as set-up is done (``bench/run.py`` times the
interpreter start to that line), then runs whole passes until ``--seconds``
have gone by, checks every pass's outputs, and prints one JSON line with
the raw samples.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, so the tracing overhead is measured
in the same process; the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import clock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH, "out")
MAX_FAILURES_SHOWN = 20


def _import_program():
    """Put this checkout's src/ first on the path and import hfpss from it."""
    if not os.path.isfile(os.path.join(SRC, "hfpss", "__init__.py")):
        sys.exit(f"error: no hfpss sources under {SRC}")
    sys.path.insert(0, SRC)
    import hfpss
    if os.path.dirname(os.path.dirname(os.path.abspath(hfpss.__file__))) != SRC:
        sys.exit(f"error: hfpss imported from {hfpss.__file__}, not {SRC}")


def _run_passes(wl, state, seconds: float, tracer=None):
    """Whole passes until `seconds` have gone by; at least one."""
    pass_times, wall_times, query_times, attempted, failures = [], [], [], 0, []
    start = perf_counter()
    while not pass_times or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.query = len(pass_times)
        t0 = clock.mark()
        outputs, queries = wl.run_pass(state)
        wall, elapsed = clock.since(t0)
        pass_times.append(elapsed)
        wall_times.append(wall)
        query_times.extend(queries if queries is not None else [elapsed])
        if tracer is not None:
            tracer.query = None
            saved = (dict(tracer.calls), dict(tracer.counts))
        checked = wl.check(state, outputs)
        if tracer is not None:  # calls made by the checks are not counted
            for live, snapshot in zip((tracer.calls, tracer.counts), saved):
                live.clear()
                live.update(snapshot)
        del outputs
        attempted += checked.attempted
        failures.extend(checked.failures)
    return pass_times, wall_times, query_times, attempted, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    state = wl.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": wl.name, "seed": args.seed}
    if not args.trace:
        passes, walls, queries, attempted, failures = _run_passes(wl, state, args.seconds)
    else:
        from tracer import END, LAYER_MAP, NAME, START, Tracer
        untraced, _, _, attempted, failures = _run_passes(wl, state, args.seconds / 2)
        del state
        tracer = Tracer(wl.name)
        tracer.install()
        try:
            tracer.query = "setup"
            state = wl.setup(args.seed)
            setup_spans = [s for s in tracer.spans if s[NAME] == "verify.load_fixtures"]
            tracer.reset_counts()
            passes, walls, queries, n_att, n_fail = _run_passes(
                wl, state, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        attempted += n_att
        failures += n_fail
        layers = tracer.metrics(set(range(len(passes))), len(passes))
        layers["verify.fixture_load_s"] = sum(s[END] - s[START] for s in setup_spans)
        layers["trace.run_s"] = statistics.median(passes)
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(untraced)
        result["layers"] = layers
        result["untraced_pass_s"] = untraced
        os.makedirs(OUT_DIR, exist_ok=True)
        base = os.path.join(OUT_DIR, wl.name)  # one file set per workload, overwritten
        tracer.write(base + "-spans.json")
        with open(base + "-layers.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "traced_passes": len(passes),
                       "metrics": layers, "moves": LAYER_MAP}, fh, indent=1, sort_keys=True)
        result["trace_files"] = [base + "-spans.json", base + "-layers.json"]

    result.update({
        "pass_s": passes,
        "pass_wall_s": walls,
        "query_s": queries,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
