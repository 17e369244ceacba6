"""Import structure: the leaf modules load nothing else from ramtower,
`formal` loads only `fq`, `herbrand` only `polygon` and `towers` only
`polygon` besides them (and the two import-free helpers `arith` and
`record`), and each CLI subcommand loads only the modules it runs.

`import ramtower.cli` loads exactly the shared helpers (errors, jsonio,
polygon, record); the handlers import the rest.  The records are plain
`__slots__` classes, so no README command loads `dataclasses` or
`inspect`, except `formal ... --assoc sampled`: it is the one README
command that loads numpy (for the sampled associativity engine), and numpy
imports `inspect` itself.  The tower commands load neither `fq` nor
`herbrand`, `verify` loads none of `tate`, `series` and `seriespoly`, and
only a verify worker pool loads multiprocessing.

The one floating-point product in the package is `fastcheck._fft_mul`: a
parse of the source finds a single inverse FFT, rounded by `_rint_exact`,
and no module but `fastcheck` importing numpy.

Each case runs in a fresh interpreter, so modules that other tests have
already imported cannot hide an import edge.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "ramtower"


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
        pytest.param("ramtower.arith", set(), id="ramtower.arith"),
        pytest.param("ramtower.record", set(), id="ramtower.record"),
        pytest.param("ramtower.jsonio", {"ramtower.record"}, id="ramtower.jsonio"),
        pytest.param("ramtower.polygon", {"ramtower.record"}, id="ramtower.polygon"),
        pytest.param(
            "ramtower.formal",
            {"ramtower.arith", "ramtower.fq", "ramtower.record"},
            id="ramtower.formal",
        ),
        pytest.param(
            "ramtower.herbrand", {"ramtower.polygon", "ramtower.record"}, id="ramtower.herbrand"
        ),
        pytest.param(
            "ramtower.towers",
            {"ramtower.arith", "ramtower.polygon", "ramtower.record"},
            id="ramtower.towers",
        ),
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
        "ramtower.record",
        "ramtower.cli",
    }
    assert not {"numpy", "multiprocessing", "dataclasses", "inspect"} & loaded


POLYGON_ABSENT = {"arith", "fq", "herbrand", "formal", "tate", "towers"}
FORMAL_ABSENT = {"tate", "series", "seriespoly", "towers", "herbrand"}
TATE_ABSENT = {"formal", "towers", "herbrand"}
TOWER_ABSENT = {"tate", "series", "seriespoly", "formal", "fq", "herbrand"}


# every command line README.md shows, counting its optional --svg and
# --branch forms, plus the small verify grid; {tmp} is a temporary directory
@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param("polygon --points 0:3,1:1,2:1,4:0", POLYGON_ABSENT | {"svg"}, id="polygon"),
        pytest.param(
            "polygon --points 0:3,1:1,2:1,4:0 --svg {tmp}/hull.svg",
            POLYGON_ABSENT,
            id="polygon-svg",
        ),
        pytest.param(
            "herbrand --layer 2:3:2 --layer 2:15:2 --eval 63",
            {"arith", "fq", "formal", "tate", "towers"},
            id="herbrand",
        ),
        pytest.param("tate --p 2 --poly t;t;1", TATE_ABSENT, id="tate"),
        pytest.param("tate --p 3 --poly t;t^3;0;1", TATE_ABSENT, id="tate-p3"),
        pytest.param("tate --p 2 --field-ext 2 --poly t;t;0;0;1", TATE_ABSENT, id="tate-f4"),
        pytest.param(
            "tower schedule --p 2 --q 2 --g 1 --d 1 --N 0 --c 1 --n 3",
            TOWER_ABSENT,
            id="tower-schedule",
        ),
        pytest.param(
            "tower torsion --vals 1 --q 2 --g 1 --nmax 6", TOWER_ABSENT, id="tower-torsion"
        ),
        pytest.param(
            "tower torsion --vals 1 --q 2 --g 1 --nmax 6 --svg {tmp}/torsion.svg",
            TOWER_ABSENT,
            id="tower-torsion-svg",
        ),
        pytest.param(
            "tower torsion --vals 1 --q 2 --g 1 --nmax 6 --branch min",
            TOWER_ABSENT,
            id="tower-torsion-min",
        ),
        pytest.param(
            "formal --p 2 --q 2 --values 1,2,1 --check",
            FORMAL_ABSENT | {"fastcheck"},
            id="formal",
        ),
        pytest.param(
            "formal --p 3 --q 9 --honda 2 --prec 81 --check --assoc sampled",
            FORMAL_ABSENT,
            id="formal-sampled",
        ),
        pytest.param("verify --grid small", TOWER_ABSENT, id="verify"),
        pytest.param(
            "verify --grid default --depth 6 --jobs 1", TOWER_ABSENT, id="verify-jobs-1"
        ),
        pytest.param(
            "verify --grid default --depth 6 --jobs 2", TOWER_ABSENT, id="verify-jobs-2"
        ),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, absent, tmp_path):
    argv = argv.replace("{tmp}", str(tmp_path)).split()
    statements = f"assert ramtower.cli.main({argv!r}) == 0"
    loaded = loaded_after(f"import ramtower.cli; {statements}")
    assert not {f"ramtower.{name}" for name in absent} & loaded
    sampled = "sampled" in argv
    assert ("numpy" in loaded) == sampled
    if not sampled:
        assert not {"dataclasses", "inspect"} & loaded
    assert ("multiprocessing" in loaded) == (argv[-2:] == ["--jobs", "2"])


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _calls(node, owner=None):
    """(innermost enclosing function, call) for every call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls(child, child.name if isinstance(child, ast.FunctionDef) else owner)


def _is_inverse_fft(node):
    return isinstance(node, ast.Call) and _name(node.func) == "irfft2"


def test_the_one_inverse_fft_is_fft_mul_and_is_rounded_by_rint_exact():
    inverse, rounded, numpy_users = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                numpy_users.add(path.name)
        for owner, call in _calls(tree):
            if _is_inverse_fft(call):
                inverse.append((path.name, owner))
            if _name(call.func) == "_rint_exact" and call.args:
                arg = call.args[0]
                if _is_inverse_fft(arg.value if isinstance(arg, ast.Subscript) else arg):
                    rounded.append((path.name, owner))
    assert inverse == rounded == [("fastcheck.py", "_fft_mul")]
    assert numpy_users == {"fastcheck.py"}
