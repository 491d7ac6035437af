"""Every demo script, and every Python block of README.md, runs to completion and
prints its results."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


@pytest.mark.parametrize("index", range(2), ids=["library", "pipeline"])
def test_readme_block_runs(index, tmp_path):
    # the quick starts import from the modules that define each name
    assert len(README_BLOCKS) == 2
    _run_python(["-c", README_BLOCKS[index]], tmp_path)
