"""Command-line interface: flags, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from hfpss import cli
from hfpss.assembly import ExtensionError
from hfpss.cli import main
from hfpss.groupexpr import GroupExprError
from hfpss.les import LESError
from hfpss.modules import HfpssError, PipelineError
from hfpss.pages import CertificateError
from hfpss.rules import RuleCoverageError
from hfpss.targets import Target
from hfpss.verify import FixtureError, load_fixtures

ENV = {**os.environ, "PYTHONPATH": "src"}


def run_cli(*args):
    from io import StringIO
    import contextlib
    out = StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def test_compute_c6_single_stem(tmp_path):
    out = tmp_path / "pi5.json"
    code, _ = run_cli("compute", "--target", "c6", "--stems", "5:5",
                      "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["groups"] == {"5": "0"}


def test_compute_stems_exclusive(tmp_path):
    out = tmp_path / "g.json"
    code, _ = run_cli("compute", "--target", "c2-v0", "--stems", "0:16",
                      "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["groups"]) == 16
    assert doc["groups"]["2"] == "a^{2}F4 + u^{-1}W/4[[u1]]"


def test_compute_text_format(tmp_path):
    out = tmp_path / "g.txt"
    code, _ = run_cli("compute", "--target", "c6", "--stems", "0:4",
                      "--format", "text", "--out", str(out))
    assert code == 0
    assert "pi_0(c6) = W[[u1^3]]" in out.read_text()


def test_compute_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("compute", "--target", "c6-y", "--stems", "0:12", "--out", str(a))
    run_cli("compute", "--target", "c6-y", "--stems", "0:12", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_verify_single_target():
    code, out = run_cli("verify", "--target", "c6-y")
    assert code == 0
    assert "48/48" in out


def test_verify_requires_target_or_all(capsys):
    code, _ = run_cli("verify")
    assert code == 2


def test_verify_missing_fixture_dir(tmp_path):
    code, _ = run_cli("verify", "--target", "c2", "--fixtures", str(tmp_path))
    assert code == 2


def test_verify_mismatch_exit_code(tmp_path):
    bad = {"target": "c2", "entries": [
        {"stem": n, "expr": "0", "underlined": False} for n in range(16)]}
    (tmp_path / "c2.json").write_text(json.dumps(bad))
    code, out = run_cli("verify", "--target", "c2", "--fixtures", str(tmp_path))
    assert code == 1
    assert "MISMATCH" in out


def test_chart_text(tmp_path):
    out = tmp_path / "chart.txt"
    code, _ = run_cli("chart", "--target", "c2-v0", "--page", "3",
                      "--stems", "0:13", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("target c2-v0  page E3")
    assert "d3 (4,0) -> (3,3)" in text


def test_chart_svg(tmp_path):
    out = tmp_path / "chart.svg"
    code, _ = run_cli("chart", "--target", "c6", "--page", "8",
                      "--format", "svg", "--stems", "0:25", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_chart_bad_page_is_usage_error():
    code, _ = run_cli("chart", "--target", "c6", "--page", "9")
    assert code == 2


def test_chart_unknown_format_is_usage_error():
    code, _ = run_cli("chart", "--target", "c6", "--format", "png")
    assert code == 2


@pytest.mark.parametrize("content, where", [
    ('{"target": "c2", "entries": [{"stem": 0,', None),
    ("{}", None),
    (json.dumps({"target": "c2", "entries": [{"stem": 3, "expr": "Q"}]}), "stem 3"),
    (json.dumps({"target": "c2", "entries": [{"stem": "x", "expr": "W"}]}), "stem x"),
], ids=["truncated", "no-entries", "bad-expr", "bad-stem"])
def test_malformed_fixture_is_usage_error(tmp_path, capsys, content, where):
    path = tmp_path / "c2.json"
    path.write_text(content)
    with pytest.raises(FixtureError) as err:
        load_fixtures(Target.C2, str(tmp_path))
    assert str(path) in str(err.value)
    code, _ = run_cli("verify", "--target", "c2", "--fixtures", str(tmp_path))
    assert code == 2
    message = capsys.readouterr().err
    assert str(path) in message and (where is None or where in message)


def test_fixture_vanishing_at_K_is_usage_error(tmp_path, capsys):
    # 8W parses, but 8 = 0 in W/2^3, so the entry has no group at K=3
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"target": "c2", "entries": [
        {"stem": 0, "expr": "8W", "underlined": False}]}))
    code, _ = run_cli("verify", "--target", "c2", "--fixtures", str(tmp_path))
    assert code == 2
    message = capsys.readouterr().err
    assert str(path) in message and "stem 0" in message


def test_bad_stem_range_is_usage_error():
    code, _ = run_cli("compute", "--target", "c6", "--stems", "9")
    assert code == 2


def test_negative_stems_take_the_equals_form():
    # argparse reads "-4:0" as an option, so a negative LO needs --stems=LO:HI
    code, out = run_cli("compute", "--target", "c2", "--stems=-4:0", "--format", "text")
    assert code == 0
    assert [line.split("(")[0] for line in out.splitlines()] == \
        ["pi_-4", "pi_-3", "pi_-2", "pi_-1"]
    assert run_cli("compute", "--target", "c2", "--stems", "-4:0")[0] == 2


def test_unknown_target_is_usage_error(capsys):
    code, _ = run_cli("compute", "--target", "c7")
    assert code == 2
    assert "unknown target 'c7'" in capsys.readouterr().err


def test_verify_json_out_writes_one_report_per_target(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run_cli("verify", "--target", "c2", "--json-out", str(out))
    assert code == 0
    (report,) = json.loads(out.read_text())
    assert (report["target"], report["checked"], report["iso_matches"], report["ok"]) == \
        ("c2", 16, 16, True)


def test_fixture_vanishing_at_K_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "c2.json").write_text(json.dumps(
        {"target": "c2", "entries": [{"stem": 0, "expr": "8W"}]}))
    code, _ = run_cli("verify", "--target", "c2", "--fixtures", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: fixture file {tmp_path}/c2.json, stem 0: scalar 2^3 vanishes at K=3\n"


def test_importing_the_cli_leaves_the_oracle_les_and_resources_unloaded():
    """Start-up stays small: the SNF oracle, the LES checks and
    importlib.resources are not imported with the CLI."""
    unwanted = ("hfpss.snf", "hfpss.scalars", "hfpss.les", "importlib.resources")
    code = f"import sys, hfpss.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(__file__)), env=ENV, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hfpss", "compute", "--target", "c2",
         "--stems", "3:3", "--format", "text"],
        capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
        env=ENV, timeout=300)
    assert proc.returncode == 0
    assert "pi_3(c2) = a^{3}F4" in proc.stdout


@pytest.mark.parametrize("flag, value", [("--witt-trunc", "0"), ("--u1-trunc", "-3"),
                                         ("--u1-trunc", "0"), ("--witt-trunc", "1"),
                                         ("--witt-trunc", "2"), ("--u1-trunc", "2"),
                                         ("--u1-trunc", "3")])
def test_nonpositive_truncation_is_usage_error(flag, value, capsys):
    # below K = 3 or N = 4 the output is wrong, so small truncations are
    # rejected along with nonpositive ones
    code, out = run_cli("compute", "--target", "c2", "--stems", "3:3", flag, value)
    assert code == 2 and out == ""
    least = {"--witt-trunc": 3, "--u1-trunc": 4}[flag]
    assert f"must be >= {least}" in capsys.readouterr().err


def test_extension_error_is_a_computation_failure(monkeypatch, capsys):
    # a merge stem whose pairing predicate fails: exit 1 and one line, no traceback
    from hfpss import assembly
    monkeypatch.setattr(assembly, "_eta_alpha_partner", lambda lower, upper: False)
    code, _ = run_cli("compute", "--target", "c2-v0")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("computation failed: merge at stem 2:")
    assert "Traceback" not in err


@pytest.mark.parametrize("error, code, kind", [
    (FixtureError, 2, "error"),
    (PipelineError, 1, "computation failed"),
    (CertificateError, 1, "computation failed"),
    (ExtensionError, 1, "computation failed"),
    (RuleCoverageError, 1, "computation failed"),
    (LESError, 1, "computation failed"),
    (GroupExprError, 1, "computation failed"),
])
def test_every_package_error_exits_with_its_code(monkeypatch, capsys, error, code, kind):
    # every package error derives from HfpssError, which main catches in
    # one clause: one line on stderr and the class's exit code, no traceback
    def failing(args):
        raise error("boom")

    assert issubclass(error, HfpssError) and error.exit_code == code
    monkeypatch.setattr(cli, "cmd_compute", failing)
    assert run_cli("compute", "--target", "c6")[0] == code
    assert capsys.readouterr().err == f"{kind}: boom\n"


def test_group_expr_error_is_still_a_value_error():
    assert issubclass(GroupExprError, ValueError)


@pytest.mark.parametrize("flag", ["--labels", "--eta-lines"])
def test_chart_svg_only_flag_with_text_is_usage_error(flag, capsys):
    code, out = run_cli("chart", "--target", "c6", "--format", "text", flag)
    assert code == 2 and out == ""
    assert f"{flag} needs --format svg" in capsys.readouterr().err
    code, _ = run_cli("chart", "--target", "c6", "--stems", "0:4", flag)  # text is the default
    assert code == 2


@st.composite
def _compute_args(draw):
    """A compute run: target, a stem range (negative, single-stem or
    reversed), filt_max, K and N, each possibly out of bounds."""
    lo = draw(st.integers(-30, 60))
    hi = lo + draw(st.sampled_from((0, 1, 3, 8, -1, -5)))  # LO:LO is one stem, HI < LO empty
    return (draw(st.sampled_from(list(Target))), lo, hi, draw(st.integers(-1, 12)),
            draw(st.integers(2, 6)), draw(st.integers(3, 20)))


@settings(max_examples=100, deadline=None)
@given(_compute_args())
def test_compute_exits_0_1_or_2_and_2_on_an_invalid_window(case):
    """No exception escapes `compute`; an invalid window is a usage error.

    The CLI has no filt_max flag, so filt_max reaches it through the
    window default_window builds."""
    target, lo, hi, filt_max, K, N = case
    make = cli.default_window

    def with_filt_max(*args, **kwargs):
        return replace(make(*args, **kwargs), filt_max=filt_max)

    stems = f"--stems={lo}:{hi}"
    with patch.object(cli, "default_window", with_filt_max), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["compute", "--target", target.value, stems, "--format", "text",
                     "--witt-trunc", str(K), "--u1-trunc", str(N)])
    valid = hi >= lo and filt_max >= 0 and K >= 3 and N >= 4
    assert code in (0, 1, 2)
    assert code == (0 if valid else 2), case
