"""The hfpss benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in its own fresh interpreter (``bench/worker.py``).
``setup_s`` is the median, over at least ``SETUP_SAMPLES`` fresh
interpreters, of the time from starting the interpreter to the worker's
``ready`` line.  The last of them goes on to run whole passes for ``--seconds`` and checks
every output.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every check passed.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys

import clock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SRC_PACKAGE = os.path.join(ROOT, "src", "hfpss", "__init__.py")
WORKLOAD_NAMES = ("verify-all", "wide-c6-v0", "stem-sweep", "render")
SETUP_SAMPLES = 5      # at least this many set-up samples, and more while
SETUP_SECONDS = 3.0    # set-up has taken less than this in all,
MAX_SETUP_SAMPLES = 25  # up to this many
TAIL_BEYOND = 10     # the tail percentile keeps this many samples beyond it
TAIL_MIN_PERCENTILE = 90
WORKER_TIMEOUT_S = 170

UNITS = {"run_s": "s", "setup_s": "s", "query_s_p50": "s", "query_s_tail": "s",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit or "unknown"}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when that percentile would be below
    TAIL_MIN_PERCENTILE (fewer than 100 samples)."""
    s = sorted(samples)
    n = len(s)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    if pct < TAIL_MIN_PERCENTILE:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], pct


def _worker_cmd(args, workload: str, setup_only: bool) -> list[str]:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def _spawn(cmd: list[str]) -> tuple[float, str]:
    """Run one worker; (seconds from start to its `ready` line, rest of stdout)."""
    # Fixed hashing, and bytecode cached under src/ as in an installed
    # package, whatever the caller's environment says.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = clock.mark()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, WORKER_TIMEOUT_S)
        first = proc.stdout.readline()
        ready = clock.since(start)[1]
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    return ready, rest


def run_workload(args, workload: str) -> dict:
    setups: list[float] = []
    while len(setups) < SETUP_SAMPLES - 1 or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUP_SAMPLES - 1):
        setups.append(_spawn(_worker_cmd(args, workload, True))[0])
    ready, out = _spawn(_worker_cmd(args, workload, False))
    setups.append(ready)
    raw = json.loads(out.strip().splitlines()[-1])
    value, pct = tail(raw["query_s"])
    info = {
        "workload": workload, "seed": args.seed, **environment(),
        "passes": len(raw["pass_s"]), "queries": len(raw["query_s"]),
        "pass_s": [round(t, 4) for t in raw["pass_s"]],
        "pass_wall_s": [round(t, 4) for t in raw["pass_wall_s"]],
        "stolen_frac": 1 - sum(raw["pass_s"]) / sum(raw["pass_wall_s"]),
        "setup_samples": len(setups),
        "query_s_tail_percentile": round(pct, 2),
        "fail_frac": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
    }
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in sorted(raw["layers"].items())}
        info["untraced_passes"] = len(raw["untraced_pass_s"])
        info["trace_files"] = [os.path.relpath(f, ROOT) for f in raw["trace_files"]]
    else:
        values = {"run_s": statistics.median(raw["pass_s"]),
                  "setup_s": statistics.median(setups),
                  "query_s_p50": statistics.median(raw["query_s"]),
                  "query_s_tail": value,
                  "peak_rss_mb": raw["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"info": info, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_e2_slot")):
        return "ratio"
    return "bytes" if name == "charts.bytes" else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hfpss benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(SRC_PACKAGE):
        print(f"error: the hfpss sources are missing ({SRC_PACKAGE})", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = r = run_workload(args, name)
            print(json.dumps(r["info"], sort_keys=True))
            for metric, m in r["metrics"].items():
                print(f"  {name:<11} {metric:<28} {m['value']:.6g} {m['unit']}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
