"""Fixture integrity and the verification report."""

import pathlib

import pytest

from hfpss import verify
from hfpss.engine import compute, default_window
from hfpss.groupexpr import iso_invariants, parse_group_expr
from hfpss.targets import Target
from hfpss.verify import FixtureError, load_fixtures, verify_target

EXPECTED_COUNTS = {Target.C2: 16, Target.C2_V0: 16, Target.C6: 48,
                   Target.C6_V0: 48, Target.C6_Y: 48}

# the documented exception list: entries whose literal table value is
# name-sloppy (stem/weight-inconsistent generator) or forced wrong
DOCUMENTED_EXCEPTIONS = {
    Target.C2: [],
    Target.C2_V0: [5, 6, 7, 8, 11, 12],
    Target.C6: [4, 12, 24, 37],
    Target.C6_V0: [],
    Target.C6_Y: [16, 44],
}


def test_fixture_counts_total_176():
    total = 0
    for target, n in EXPECTED_COUNTS.items():
        entries = load_fixtures(target)
        assert len(entries) == n
        assert [e.stem for e in entries] == list(range(n))
        total += n
    assert total == 176


def _weight_filtered(target):
    """C6-family pages keep only the weight-0 monomials."""
    return target.period == 3


def fixture_grading_exceptions(target, fixtures):
    """Stems whose literal table entry fails the stem or weight check."""
    bad = []
    for fe in fixtures:
        literal = parse_group_expr(fe.table_expr) if fe.table_expr else fe.expr
        for term in literal.terms:
            if term.stem != fe.stem:
                bad.append(fe.stem)
                break
            if _weight_filtered(target) and term.mono.weight != 0:
                bad.append(fe.stem)
                break
        else:
            if fe.exception == "value":
                bad.append(fe.stem)  # grading-consistent but wrong group
    return bad


def test_fixture_self_consistency():
    """Every non-exception entry has stem- and weight-consistent generators."""
    for target in Target:
        entries = load_fixtures(target)
        flagged = sorted(set(fixture_grading_exceptions(target, entries)))
        documented = sorted(e.stem for e in entries if e.exception)
        assert flagged == documented == DOCUMENTED_EXCEPTIONS[target]
        for e in entries:
            if e.exception:
                assert e.note and e.table_expr is not None
                # corrected entries are themselves grading-consistent
                for term in e.expr.terms:
                    assert term.stem == e.stem
                    if _weight_filtered(target):
                        assert term.mono.weight == 0


def test_underlined_stems_match_tables():
    underlines = {t: [e.stem for e in load_fixtures(t) if e.underlined]
                  for t in Target}
    assert underlines[Target.C2] == [4]
    assert underlines[Target.C2_V0] == [2, 10]
    assert underlines[Target.C6] == [20, 24]
    assert underlines[Target.C6_V0] == [2, 3, 10, 18, 20, 24, 26, 34, 42]
    assert underlines[Target.C6_Y] == [4, 6, 8, 12, 20, 22, 24, 26, 34, 38, 40, 42]


def test_verify_target_full_match(computed_all):
    for target, res in computed_all.items():
        report = verify_target(res)
        assert report.ok, report.render_text()
        assert report.n_checked == EXPECTED_COUNTS[target]
        assert not [e for e in report.entries if not e.name_match and not e.exception]


def test_verify_truncation_stability(computed_c6):
    """Verdicts agree at (K, N) and (K+1, N) by construction; check K=4 run."""
    res4 = compute(Target.C6, default_window(Target.C6, K=4))
    r3 = verify_target(computed_c6)
    r4 = verify_target(res4)
    assert [e.iso_match for e in r3.entries] == [e.iso_match for e in r4.entries]


def test_verify_detects_mismatch(computed_c2):
    from hfpss.verify import FixtureEntry
    fake = [FixtureEntry(stem=3, expr=parse_group_expr("a^{3}F4[[u1]]"),
                         underlined=False)]
    report = verify_target(computed_c2, fixtures=fake)
    assert not report.ok
    assert "MISMATCH" in report.render_text()


def test_fixtures_are_read_from_the_directory_beside_verify():
    beside = pathlib.Path(verify.__file__).parent / "fixtures"
    for target in Target:
        assert load_fixtures(target) == load_fixtures(target, str(beside)), target


def test_fixture_missing_file_raises(tmp_path):
    with pytest.raises(FixtureError):
        load_fixtures(Target.C2, str(tmp_path))


def test_report_json_shape(computed_c2):
    doc = verify_target(computed_c2).to_json()
    assert doc["checked"] == 16 and doc["ok"] is True
    assert len(doc["entries"]) == 16


def test_table_exprs_have_same_iso_except_documented():
    """Name-only exceptions leave the isomorphism type unchanged."""
    for target in Target:
        for e in load_fixtures(target):
            if e.exception == "name":
                literal = parse_group_expr(e.table_expr)
                assert iso_invariants(literal, 3, 12) == iso_invariants(e.expr, 3, 12)
            elif e.exception == "offset":
                # literal generator is weight-inconsistent on a C6 page
                literal = parse_group_expr(e.table_expr)
                assert any(t.mono.weight != 0 for t in literal.terms)
            elif e.exception == "value":
                literal = parse_group_expr(e.table_expr)
                assert iso_invariants(literal, 3, 12) != iso_invariants(e.expr, 3, 12)
