"""Ground-truth homotopy group tables and the verification report.

The five fixture files transcribe the published tables of homotopy
groups (16 + 16 + 48 + 48 + 48 = 176 entries).  A handful of entries are
internally inconsistent in the source (wrong u-power or u1-offset on a
generator, one group forced nonzero by the long exact sequence); these
carry the literal table value in "table_expr", a corrected "expr", and a
note justifying the correction.  Comparison is by isomorphism type of
the truncated modules; generator names are advisory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .engine import ComputeResult
from .groupexpr import ZERO_GROUP, GroupExpr, GroupExprError, iso_invariants, parse_group_expr
from .modules import HfpssError
from .targets import Target


class FixtureError(HfpssError):
    exit_code = 2  # a missing or malformed fixture is a usage error


@dataclass(frozen=True)
class FixtureEntry:
    stem: int
    expr: GroupExpr
    underlined: bool
    table_expr: str | None = None
    exception: str | None = None  # "name", "offset", or "value"
    note: str | None = None


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _source(target: Target, path: str | None) -> str:
    """<dir>/<target>.json, dir being path, else FIXTURES."""
    return os.path.join(path or FIXTURES, f"{target.value}.json")


def load_fixtures(target: Target, path: str | None = None) -> list[FixtureEntry]:
    """Parse one fixture table; a missing or malformed file raises FixtureError."""
    source = _source(target, path)
    if not os.path.exists(source):
        raise FixtureError(f"fixture file not found: {source}")
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    entries, stem = [], None
    try:
        for e in json.loads(text)["entries"]:
            stem = e.get("stem") if isinstance(e, dict) else None
            if not isinstance(e["stem"], int):
                raise TypeError(f"stem {stem!r} is not an integer")
            entries.append(FixtureEntry(
                stem=e["stem"],
                expr=parse_group_expr(e["expr"]),
                underlined=e.get("underlined", False),
                table_expr=e.get("table_expr"),
                exception=e.get("exception"),
                note=e.get("note"),
            ))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        where = "" if stem is None else f", stem {stem}"
        raise FixtureError(f"malformed fixture file {source}{where}: {exc!r}") from exc
    return entries


@dataclass
class VerifyEntry:
    stem: int
    iso_match: bool
    name_match: bool
    exception: str | None
    computed: str
    expected: str


@dataclass
class VerifyReport:
    target: Target
    entries: list[VerifyEntry] = field(default_factory=list)

    @property
    def n_checked(self) -> int:
        return len(self.entries)

    @property
    def n_iso_matches(self) -> int:
        return sum(1 for e in self.entries if e.iso_match)

    @property
    def ok(self) -> bool:
        return all(e.iso_match for e in self.entries)

    def render_text(self) -> str:
        lines = [f"target {self.target.value}: "
                 f"{self.n_iso_matches}/{self.n_checked} isomorphism matches"]
        for e in self.entries:
            if e.iso_match and e.name_match:
                continue
            status = "OK(iso)" if e.iso_match else "MISMATCH"
            tag = f" [{e.exception}]" if e.exception else ""
            lines.append(f"  pi_{e.stem}: {status}{tag} "
                         f"computed={e.computed!r} expected={e.expected!r}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "target": self.target.value,
            "checked": self.n_checked,
            "iso_matches": self.n_iso_matches,
            "ok": self.ok,
            "entries": [{
                "stem": e.stem, "iso_match": e.iso_match,
                "name_match": e.name_match, "exception": e.exception,
                "computed": e.computed, "expected": e.expected,
            } for e in self.entries],
        }


def verify_target(result: ComputeResult, fixtures: list[FixtureEntry] | None = None,
                  path: str | None = None) -> VerifyReport:
    """Compare computed groups with the table, stem by stem.

    Isomorphism comparison expands both sides into truncated summand
    multisets at (K, N) and again at (K+1, N); both must agree, which
    separates free towers from their finite truncations.  A fixture term
    that has no truncation at K (a 2-power prefix that vanishes there)
    raises FixtureError.
    """
    if fixtures is None:
        fixtures = load_fixtures(result.target, path)
    K, N = result.window.K, result.window.N
    report = VerifyReport(result.target)
    for fe in fixtures:
        if not (result.window.stem_lo <= fe.stem <= result.window.stem_hi):
            continue
        got = result.groups.get(fe.stem)
        got_expr = got.expr if got else ZERO_GROUP
        try:
            expected = [iso_invariants(fe.expr, k, N) for k in (K, K + 1)]
        except GroupExprError as exc:
            raise FixtureError(f"fixture file {_source(result.target, path)}, "
                               f"stem {fe.stem}: {exc}") from exc
        iso = expected == [iso_invariants(got_expr, k, N) for k in (K, K + 1)]
        computed, wanted = got_expr.render(), fe.expr.render()
        if fe.underlined and got is not None and not got.consulted:
            iso = False  # assembly must have examined an underlined stem
        report.entries.append(VerifyEntry(
            stem=fe.stem, iso_match=iso, name_match=computed == wanted,
            exception=fe.exception, computed=computed, expected=wanted))
    return report
