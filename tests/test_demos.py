"""Each demo runs with warnings as errors, prints its golden stdout and leaves
nothing in the temp directory."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = Path(__file__).parent / "goldens" / "demos"


def masked_stdout(demo: Path, tmp_dir: Path) -> str:
    """The demo's stdout, with the temp path `sweep.py` prints masked."""
    env = {**os.environ, "TMPDIR": str(tmp_dir),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, cwd=ROOT,
                         capture_output=True, text=True, encoding="utf-8")
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    return re.sub(r"outputs in .*", "outputs in <path>", run.stdout)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden(demo, tmp_path):
    tmp_dir = tmp_path / "tmp"
    tmp_dir.mkdir()
    out = masked_stdout(demo, tmp_dir)
    assert out == (GOLDENS / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert list(tmp_dir.iterdir()) == []
