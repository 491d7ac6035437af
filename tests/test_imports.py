"""Import-time guards: what importing hccm costs, and what it may depend on."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hccm

PACKAGE_DIR = Path(hccm.__file__).parent
# the only third-party runtime dependencies (pyproject.toml)
ALLOWED_THIRD_PARTY = {"numpy", "scipy"}


def test_cli_import_stays_light():
    # analyze and test never draw samples nor need scipy or the Fock oracle:
    # importing the package and its CLI must not pay for them
    code = (
        "import json, sys; import hccm, hccm.cli; "
        "print(json.dumps([m for m in ('numpy.random', 'scipy', 'hccm.fock') if m in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(done.stdout) == []


def test_no_third_party_import_beyond_numpy_and_scipy():
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {(path.name, name.split(".")[0]) for name in names}
    third_party = {
        (file, top)
        for file, top in found
        if top not in sys.stdlib_module_names and top != "hccm" and top not in ALLOWED_THIRD_PARTY
    }
    assert third_party == set()
    assert found, "no imports found: the scan read no source"
