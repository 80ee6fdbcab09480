"""The demos run as scripts.

Each demo is copied under a temporary directory and run there, so demo 05
writes its SVGs beside the copy, not into the repository; they must equal
the committed demos/output files byte for byte.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
OUTPUTS = {"05_charts": ("c2_v0_e3.svg", "c6_e7.svg", "c6_einfty.svg", "c6_y_e7.svg")}


@pytest.mark.parametrize("name", [p.stem for p in sorted(DEMOS.glob("0*.py"))])
def test_demo_exits_0(name, tmp_path):
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMOS / script.name, script)
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "output").glob("*"))
    assert written == sorted(OUTPUTS.get(name, ()))
    for svg in written:
        assert (tmp_path / "output" / svg).read_bytes() == \
            (DEMOS / "output" / svg).read_bytes(), svg
