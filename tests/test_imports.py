"""Import-time guards: what importing hccm costs, and what it may depend on."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hccm
from hccm.cli import main

from test_cli import TINY

PACKAGE_DIR = Path(hccm.__file__).parent
# the only third-party runtime dependency (pyproject.toml)
ALLOWED_THIRD_PARTY = {"numpy"}
# modules downstream of the samples: they must not reach into the quantum state algebra
GAUSSIAN_FREE = ("analysis", "config", "pipeline", "records", "reports", "splitter", "cli")
# the classical analysis: it sees the samples only as estimates, never the simulator,
# the run's I/O or the quantum state algebra
ANALYSIS_LAYERS = ("analysis", "nonclassicality")
ABOVE_ANALYSIS = {
    f"hccm.{name}" for name in ("detector", "config", "records", "pipeline", "cli", "gaussian")
}
# the hccm modules that importing the CLI loads, and that each command adds: a command
# imports the stages it runs, so simulate loads no analysis stage, determinant test or report
CLI_MODULES = {"hccm"} | {
    f"hccm.{name}" for name in ("analysis", "cli", "config", "detector", "errors", "splitter")
}
STAGE_MODULES = {f"hccm.{name}" for name in ("nonclassicality", "pipeline", "records", "reports")}
COMMAND_MODULES = {
    "import": CLI_MODULES,
    "simulate": CLI_MODULES | {"hccm.records"},
    "analyze": CLI_MODULES | STAGE_MODULES,
    "test": CLI_MODULES | STAGE_MODULES,
}


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_modules(path: Path) -> set:
    """Absolute names of the modules a source file imports, at any level."""
    return _import_names(ast.walk(_parse(path)))


def _module_level_imports(path: Path) -> set:
    """Absolute names of the modules a source file imports when it is loaded: its
    top-level statements only, not the bodies of its functions."""
    return _import_names(_parse(path).body)


def _import_names(nodes) -> set:
    """Absolute names of the modules the import statements among nodes import, with
    package-relative imports resolved against hccm (``from . import x`` counts as
    ``hccm.x``)."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = f"hccm.{node.module}" if node.level and node.module else node.module or "hccm"
            found.add(module)
            if module == "hccm":
                found |= {f"hccm.{alias.name}" for alias in node.names}
    return found


def test_cli_import_stays_light():
    # analyze and test never draw samples, need scipy or run the quantum-state oracle:
    # importing the package and its CLI must not pay for them
    code = (
        "import json, sys; import hccm, hccm.cli; "
        "print(json.dumps([m for m in ('numpy.random', 'scipy', 'hccm.gaussian') "
        "if m in sys.modules]))"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.fixture(scope="module")
def command_modules(tmp_path_factory):
    """The hccm modules loaded by a child process that imports hccm.cli ("import") and
    by one that runs each command on the TINY config, in chain order."""
    tmp = tmp_path_factory.mktemp("commands")
    (tmp / "tiny.cfg").write_text(TINY)
    code = """
import sys
from hccm.cli import main
if sys.argv[1:] and main(sys.argv[1:]):
    sys.exit(f"{sys.argv[1]} failed")
print(" ".join(sorted(m for m in sys.modules if m == "hccm" or m.startswith("hccm."))))
"""
    loaded = {}
    for command in COMMAND_MODULES:
        args = [] if command == "import" else [command, "--out", str(tmp / "run")]
        args += ["--config", str(tmp / "tiny.cfg")] if command == "simulate" else []
        done = _run_python(code, *args)
        assert done.returncode == 0, done.stderr[-2000:]
        loaded[command] = set(done.stdout.splitlines()[-1].split())
    return loaded


def test_commands_load_only_the_stages_they_run(command_modules):
    assert command_modules == COMMAND_MODULES


def test_cli_modules_import_no_gaussian_at_module_level(command_modules):
    # the quantum state algebra is the tests' oracle: no module that a command loads
    # imports it when loaded
    loaded = set().union(*command_modules.values()) - {"hccm"}
    reached = [
        name
        for name in sorted(loaded)
        if "hccm.gaussian" in _module_level_imports(PACKAGE_DIR / f"{name[len('hccm.'):]}.py")
    ]
    assert reached == []
    # the rule covers the simulator and the determinant test, so it cannot hold vacuously
    assert {"hccm.cli", "hccm.detector", "hccm.nonclassicality"} <= loaded


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


def test_analysis_imports_nothing_above_it():
    reached = {
        name: sorted(_module_level_imports(PACKAGE_DIR / f"{name}.py") & ABOVE_ANALYSIS)
        for name in ANALYSIS_LAYERS
    }
    assert reached == {name: [] for name in ANALYSIS_LAYERS}
    # module-level imports are resolved too, so the rule cannot hold vacuously
    assert "hccm.analysis" in _module_level_imports(PACKAGE_DIR / "nonclassicality.py")


def test_chain_runs_without_gaussian(tmp_path):
    # simulate -> analyze -> test and run_pipeline with hccm.gaussian blocked write
    # what an unblocked run writes, byte for byte
    (tmp_path / "tiny.cfg").write_text(TINY)
    code = """
import sys
sys.modules["hccm.gaussian"] = None
from hccm.cli import main
from hccm.config import load_config
from hccm.pipeline import run_pipeline
for command in ("simulate", "analyze", "test"):
    code = main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    if code:
        sys.exit(f"{command} exited {code}")
run_pipeline(load_config(sys.argv[1]))
"""
    blocked, unblocked = tmp_path / "blocked", tmp_path / "unblocked"
    done = _run_python(code, str(tmp_path / "tiny.cfg"), str(blocked))
    assert done.returncode == 0, done.stderr[-2000:]
    for command in ("simulate", "analyze", "test"):
        assert main([command, "--config", str(tmp_path / "tiny.cfg"), "--out", str(unblocked)]) == 0
    names = sorted(p.name for p in unblocked.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names and "det_table.txt" in names
    assert all((blocked / name).read_bytes() == (unblocked / name).read_bytes() for name in names)
