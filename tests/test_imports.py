"""Import structure: the leaf modules load nothing else from ramtower,
`formal` loads only `fq` and `herbrand` only `polygon` besides them, and
each CLI subcommand loads only the modules it runs.

`import ramtower.cli` loads exactly the shared helpers (errors, jsonio,
polygon); the handlers import the rest.  No command loads numpy, which
only the dense and sampled associativity engines need, and only a verify
worker pool loads multiprocessing.

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


def loaded_after(statements):
    """Names in sys.modules after running `statements` in a fresh interpreter.

    Whatever the statements print goes to a discarded buffer; the module
    list is the only line on stdout."""
    code = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statements}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def ramtower_modules(names):
    return {name for name in names if name.split(".")[0] == "ramtower"}


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
    ours = ramtower_modules(loaded_after(f"import {module}"))
    assert ours == {"ramtower", "ramtower.errors", module} | extra


def test_cli_imports_only_the_shared_helpers():
    loaded = loaded_after("import ramtower.cli")
    assert ramtower_modules(loaded) == {
        "ramtower",
        "ramtower.errors",
        "ramtower.jsonio",
        "ramtower.polygon",
        "ramtower.cli",
    }
    assert "numpy" not in loaded and "multiprocessing" not in loaded


TOWER_ABSENT = {"tate", "series", "seriespoly", "formal"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(
            "polygon --points 0:3,1:1,2:1,4:0",
            {"herbrand", "fq", "formal", "tate", "towers", "svg"},
            id="polygon",
        ),
        pytest.param(
            "herbrand --layer 2:3:2 --layer 2:15:2 --eval 63",
            {"formal", "tate", "towers"},
            id="herbrand",
        ),
        pytest.param("tate --p 2 --poly t;t;1", {"formal", "towers"}, id="tate"),
        pytest.param(
            "tower schedule --p 2 --q 2 --g 1 --d 1 --N 0 --c 1 --n 3",
            TOWER_ABSENT,
            id="tower-schedule",
        ),
        pytest.param(
            "tower torsion --vals 1 --q 2 --g 1 --nmax 6", TOWER_ABSENT, id="tower-torsion"
        ),
        pytest.param(
            "formal --p 2 --q 2 --values 1,2,1 --check",
            {"tate", "towers", "herbrand"},
            id="formal",
        ),
        pytest.param("verify --grid small", {"formal"}, id="verify"),
        pytest.param("verify --grid small --jobs 1", {"formal"}, id="verify-jobs-1"),
        pytest.param("verify --grid small --jobs 2", {"formal"}, id="verify-jobs-2"),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, absent):
    statements = f"assert ramtower.cli.main({argv.split()!r}) == 0"
    loaded = loaded_after(f"import ramtower.cli; {statements}")
    assert not {f"ramtower.{name}" for name in absent} & loaded
    assert "numpy" not in loaded
    assert ("multiprocessing" in loaded) == argv.endswith("--jobs 2")
