"""Byte identity of the engine's outputs, pinned by sha256.

The digests in golden/digests.json cover the `hfpss compute` JSON of the
five targets at their default windows and of c6-v0 on stems 0..191, and
the text and SVG (labels, eta lines) charts of pages 2, 3, 4, 7 and 8 of
every target at its default window, rendered as `hfpss chart` renders
them.  A refactor that changes no mathematics leaves every digest alone.

To regenerate after a deliberate output change, run
`PYTHONPATH=src python tests/test_golden_digests.py` and say in the
change log which outputs moved and why.
"""

import hashlib
import json
import pathlib
import sys

from hfpss.charts import render_svg, render_text
from hfpss.cli import main
from hfpss.engine import compute
from hfpss.targets import Target

DIGESTS = pathlib.Path(__file__).parent / "golden" / "digests.json"
COMPUTE_ARGS = {**{t.value: ["--target", t.value] for t in Target},
                "c6-v0 0:192": ["--target", "c6-v0", "--stems", "0:192"]}
CHART_PAGES = (2, 3, 4, 7, 8)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    out = {}
    for name, args in COMPUTE_ARGS.items():
        path = tmp_dir / "out.json"
        assert main(["compute", *args, "--out", str(path)]) == 0
        out[f"compute {name}"] = _sha(path.read_text())
    return out


def chart_digests(stacks: dict) -> dict[str, str]:
    out = {}
    for target, stack in stacks.items():
        for r in CHART_PAGES:
            page = stack.page(r)
            prop = stack.maps.get(r) if r in (3, 7) else None
            out[f"chart {target.value} E{r} text"] = _sha(
                render_text(page, prop, page_index=r))
            out[f"chart {target.value} E{r} svg"] = _sha(
                render_svg(page, prop, labels=True, eta_lines=True))
    return out


def _expected() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_compute_json_digests(tmp_path):
    want = _expected()
    got = compute_digests(tmp_path)
    assert {k: v for k, v in got.items() if want.get(k) != v} == {}


def test_chart_digests(computed_all):
    want = _expected()
    got = chart_digests({t: res.stack for t, res in computed_all.items()})
    assert len(got) == 50
    assert {k: v for k, v in got.items() if want.get(k) != v} == {}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        digests = compute_digests(pathlib.Path(d))
    digests.update(chart_digests({t: compute(t).stack for t in Target}))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
