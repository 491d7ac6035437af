"""Import-time guards: what importing hccm costs, and what it may depend on."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hccm

from test_cli import TINY

PACKAGE_DIR = Path(hccm.__file__).parent
# the only third-party runtime dependency (pyproject.toml)
ALLOWED_THIRD_PARTY = {"numpy"}
# modules downstream of the samples: they must not reach into the quantum state algebra
GAUSSIAN_FREE = ("analysis", "config", "pipeline", "records", "reports", "splitter", "cli")


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


def _imported_modules(path: Path) -> set:
    """Absolute names of the modules a source file imports, with package-relative
    imports resolved against hccm (``from . import x`` counts as ``hccm.x``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = f"hccm.{node.module}" if node.level and node.module else node.module or "hccm"
            found.add(module)
            if module == "hccm":
                found |= {f"hccm.{alias.name}" for alias in node.names}
    return found


def test_cli_import_stays_light():
    # analyze and test never draw samples nor need scipy:
    # importing the package and its CLI must not pay for them
    code = (
        "import json, sys; import hccm, hccm.cli; "
        "print(json.dumps([m for m in ('numpy.random', 'scipy') if m in sys.modules]))"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_package_re_exports_nothing():
    # one home per name: importing the package loads no submodule and binds only its version
    code = (
        "import json, sys; import hccm; print(json.dumps([hccm.__version__, "
        "sorted(m for m in sys.modules if m.startswith('hccm.')), "
        "sorted(n for n in vars(hccm) if not n.startswith('_'))]))"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["0.1.0", [], []]


def test_no_third_party_import_beyond_numpy():
    found = {
        (path.name, name) for path in sorted(PACKAGE_DIR.glob("*.py")) for name in _imported_modules(path)
    }
    third_party = {
        (file, name)
        for file, name in found
        if name.split(".")[0] not in sys.stdlib_module_names | {"hccm"} | ALLOWED_THIRD_PARTY
    }
    assert third_party == set()
    assert found, "no imports found: the scan read no source"


def test_package_runs_without_scipy(tmp_path):
    # every module imports, and the two-step CLI chain runs, with scipy blocked
    (tmp_path / "tiny.cfg").write_text(TINY)
    code = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import hccm
for info in pkgutil.iter_modules(hccm.__path__):
    importlib.import_module("hccm." + info.name)
from hccm.cli import main
for command in ("simulate", "analyze", "test"):
    code = main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    if code:
        sys.exit(f"{command} exited {code}")
"""
    done = _run_python(code, str(tmp_path / "tiny.cfg"), str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "run" / "det_table.txt").exists()


def test_analysis_layers_import_nothing_from_gaussian():
    reached = [
        name for name in GAUSSIAN_FREE if "hccm.gaussian" in _imported_modules(PACKAGE_DIR / f"{name}.py")
    ]
    assert reached == []
    # the scan resolves package-relative imports, so the rule cannot hold vacuously
    assert "hccm.analysis" in _imported_modules(PACKAGE_DIR / "pipeline.py")
