"""Import structure: the leaf modules load nothing else from ramtower,
`formal` loads only `fq` and `herbrand` only `polygon` besides them, and
the CLI leaves numpy to the engines that need it.

Each case runs in a fresh interpreter, so modules that other tests have
already imported cannot hide an import edge.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def loaded_after(module):
    """Names in sys.modules after `import module` in a fresh interpreter."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize(
    "module, extra",
    [
        pytest.param("ramtower.jsonio", set(), id="ramtower.jsonio"),
        pytest.param("ramtower.polygon", set(), id="ramtower.polygon"),
        pytest.param("ramtower.formal", {"ramtower.fq"}, id="ramtower.formal"),
        pytest.param("ramtower.herbrand", {"ramtower.polygon"}, id="ramtower.herbrand"),
    ],
)
def test_leaf_module_imports_no_other_ramtower_module(module, extra):
    ours = {name for name in loaded_after(module) if name.split(".")[0] == "ramtower"}
    assert ours == {"ramtower", "ramtower.errors", module} | extra


def test_cli_does_not_import_numpy():
    assert "numpy" not in loaded_after("ramtower.cli")
