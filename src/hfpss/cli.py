"""Command-line frontend.

    hfpss compute --target c6 --stems 0:48 --out pages.json
    hfpss verify --all
    hfpss chart --target c2-v0 --page 3 --format text --out chart.txt

Exit codes: 0 success, 1 computational failure or verification mismatch,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .charts import render_svg, render_text
from .engine import compute, default_window
from .verify import verify_target
from .modules import HfpssError
from .pages import run_to_einfty, stack_to_json
from .targets import Target, Window

USAGE_ERROR = 2
FAILURE = 1


def _parse_stems(spec: str) -> tuple[int, int]:
    """LO:HI selects stems LO <= n < HI; LO:LO selects the single stem LO."""
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad stem range {spec!r}, expected LO:HI")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty stem range {spec!r}")
    return (lo, lo) if hi == lo else (lo, hi - 1)


def _target(s: str) -> Target:
    try:
        return Target(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown target {s!r}")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_compute(args) -> int:
    lo, hi = args.stems if args.stems else (None, None)
    try:
        window = default_window(args.target, lo, hi, K=args.witt_trunc, N=args.u1_trunc)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    result = compute(args.target, window)
    groups = [(stem, g.expr.render()) for stem, g in sorted(result.groups.items())]
    if args.format == "json":
        doc = {
            "target": args.target.value,
            "window": {"stem_lo": window.stem_lo, "stem_hi": window.stem_hi,
                       "K": window.K, "N": window.N},
            "groups": {str(stem): expr for stem, expr in groups},
            "stack": stack_to_json(result.stack),
        }
        _write(args.out, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    else:
        lines = [f"pi_{stem}({args.target.value}) = {expr}" for stem, expr in groups]
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    targets = list(Target) if args.all else [args.target]
    if not targets or targets == [None]:
        print("verify: provide --target or --all", file=sys.stderr)
        return USAGE_ERROR
    total = matched = 0
    reports = []
    for target in targets:
        result = compute(target, default_window(target))
        report = verify_target(result, path=args.fixtures)
        reports.append(report)
        total += report.n_checked
        matched += report.n_iso_matches
        print(report.render_text())
    print(f"total: {matched}/{total} isomorphism matches")
    if args.json_out:
        _write(args.json_out, json.dumps([r.to_json() for r in reports],
                                         indent=1, sort_keys=True) + "\n")
    return 0 if matched == total else FAILURE


def cmd_chart(args) -> int:
    if args.format != "svg":
        for flag, given in (("--labels", args.labels), ("--eta-lines", args.eta_lines)):
            if given:
                print(f"chart: {flag} needs --format svg", file=sys.stderr)
                return USAGE_ERROR
    window = default_window(args.target, *(args.stems or (None, None)))
    stack = run_to_einfty(args.target, window)
    page = stack.page(args.page)
    prop = stack.maps.get(args.page)
    if args.format == "svg":
        text = render_svg(page, prop, labels=args.labels, eta_lines=args.eta_lines)
    else:
        text = render_text(page, prop, page_index=args.page)
    _write(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hfpss",
                                description="homotopy fixed point spectral "
                                            "sequence engine")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="run a target to Einfty and assemble groups")
    c.add_argument("--target", type=_target, required=True)
    c.add_argument("--stems", type=_parse_stems, default=None,
                   help="LO:HI (HI exclusive; LO:LO for a single stem)")
    c.add_argument("--u1-trunc", type=int, default=Window.N, metavar="N")
    c.add_argument("--witt-trunc", type=int, default=Window.K, metavar="K")
    c.add_argument("--out", default=None)
    c.add_argument("--format", choices=("json", "text"), default="json")
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="compare against the homotopy group tables")
    v.add_argument("--target", type=_target, default=None)
    v.add_argument("--all", action="store_true")
    v.add_argument("--fixtures", default=None, help="fixture directory override")
    v.add_argument("--json-out", default=None)
    v.set_defaults(func=cmd_verify)

    ch = sub.add_parser("chart", help="render a page as text or SVG")
    ch.add_argument("--target", type=_target, required=True)
    ch.add_argument("--page", type=int, choices=(2, 3, 4, 5, 6, 7, 8), default=8)
    ch.add_argument("--format", choices=("svg", "text"), default="text")
    ch.add_argument("--stems", type=_parse_stems, default=None)
    ch.add_argument("--out", default=None)
    ch.add_argument("--labels", action="store_true", help="SVG only")
    ch.add_argument("--eta-lines", action="store_true", help="SVG only")
    ch.set_defaults(func=cmd_chart)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except HfpssError as e:
        kind = "error" if e.exit_code == USAGE_ERROR else "computation failed"
        print(f"{kind}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
