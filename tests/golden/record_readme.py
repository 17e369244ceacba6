"""Record the expected output of the README commands pinned in README_CASES
and of the formal modules pinned in MODULE_CASES.

    PYTHONPATH=src python tests/golden/record_readme.py

Run it from the root of a checkout whose output is trusted.  Each README
command runs in process through `ramtower.cli.main`, with RAMTOWER_PREC unset
and inside an empty temporary directory, so an `--svg` file lands there; its
stdout goes to tests/golden/<name>.out, the file it rendered (if any) to
tests/golden/<name>.svg, and its exit code and SVG file name to
tests/golden/readme.json.  `tests/test_cli.py` compares against all three.

Each module is built by `atypical_module(p, q, values, D)`, asked for
[p + 1], and pinned by `module_pin`; tests/golden/modules.json holds the
pins and `tests/test_formal.py` compares against them.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
README_CASES = {
    "polygon": ["polygon", "--points", "0:3,1:1,2:1,4:0"],
    "polygon_svg": ["polygon", "--points", "0:3,1:1,2:1,4:0", "--svg", "hull.svg"],
    "herbrand": ["herbrand", "--layer", "2:3:2", "--layer", "2:15:2", "--eval", "63"],
    "formal_values": ["formal", "--p", "2", "--q", "2", "--values", "1,2,1", "--check"],
    "formal_honda_sampled": [
        "formal", "--p", "3", "--q", "9", "--honda", "2", "--prec", "81",
        "--check", "--assoc", "sampled",
    ],
    "tate_p2": ["tate", "--p", "2", "--poly", "t;t;1"],
    "tate_p3": ["tate", "--p", "3", "--poly", "t;t^3;0;1"],
    "tate_f4": ["tate", "--p", "2", "--field-ext", "2", "--poly", "t;t;0;0;1"],
    "tower_schedule": [
        "tower", "schedule", "--p", "2", "--q", "2", "--g", "1", "--d", "1",
        "--N", "0", "--c", "1", "--n", "3",
    ],
    "tower_torsion_svg": [
        "tower", "torsion", "--vals", "1", "--q", "2", "--g", "1", "--nmax", "6",
        "--svg", "torsion.svg",
    ],
    "tower_torsion_min": [
        "tower", "torsion", "--vals", "1", "--q", "2", "--g", "1", "--nmax", "6",
        "--branch", "min",
    ],
    "verify": ["verify", "--grid", "default", "--depth", "6", "--jobs", "1"],
}

# (p, q, values, D): the formal benchmark's rungs at values (1, 2, 1), then
# the inverse-logarithm cases of tests/test_formal.py not already listed
MODULE_CASES = [
    (2, 2, (1, 2, 1), 8),
    (3, 3, (1, 2, 1), 27),
    (2, 4, (1, 2, 1), 64),
    (3, 9, (1, 2, 1), 243),
    (2, 2, (1, 2, 1), 64),
    (2, 2, (1, 2, 1), 32),
    (3, 9, (1, 2, 1), 729),
    (2, 2, (0, 1), 64),
    (3, 9, (0, 0, 1), 729),
    (5, 5, (1, 1, 1), 125),
    (2, 2, (1, 2, 1), 128),
]
# its law alone takes seconds to assemble, so only the inverse logarithm and
# the two brackets are pinned
LAW_UNPINNED = {(3, 9, (1, 2, 1), 729)}
PIN_TEXT_MAX = 4096  # longer pinned texts are kept as their sha256


def run(argv):
    """(exit code, stdout) of `ramtower <argv>`, in process."""
    from ramtower.cli import PREC_ENV, main

    os.environ.pop(PREC_ENV, None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def svg_path(argv):
    """The file an `--svg` argument names, or None."""
    return argv[argv.index("--svg") + 1] if "--svg" in argv else None


def module_name(p, q, values, D):
    return f"{p}_{q}_{'.'.join(map(str, values))}_{D}"


def module_pin(module, law=True) -> str:
    """The pinned text of a module after [p + 1] was asked for: its JSON, or
    with law=False its inverse logarithm and brackets only."""
    if law:
        obj = module.as_json()
    else:
        obj = {
            "inv_coeffs": [[e, str(c)] for e, c in sorted(module.inv_coeffs.items())],
            "brackets": {str(a): s.as_json() for a, s in module.brackets.items()},
        }
    return json.dumps(obj)


def pin_entry(text: str) -> dict:
    if len(text.encode("utf-8")) < PIN_TEXT_MAX:
        return {"text": text}
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def record_readme():
    manifest = {}
    cwd = os.getcwd()
    for name, argv in README_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                code, stdout = run(argv)
                svg = svg_path(argv)
                if svg is not None:
                    (GOLDEN / f"{name}.svg").write_bytes(Path(svg).read_bytes())
            finally:
                os.chdir(cwd)
        (GOLDEN / f"{name}.out").write_text(stdout)
        manifest[name] = {
            "argv": argv,
            "exit": code,
            "svg": None if svg is None else f"{name}.svg",
        }
    (GOLDEN / "readme.json").write_text(json.dumps(manifest, indent=2) + "\n")


def record_modules():
    from ramtower.formal import atypical_module

    pins = {}
    for p, q, values, D in MODULE_CASES:
        module = atypical_module(p, q, values, D=D)
        module.bracket(p + 1)
        law = (p, q, values, D) not in LAW_UNPINNED
        pins[module_name(p, q, values, D)] = {
            "p": p,
            "q": q,
            "values": list(values),
            "D": D,
            "law": law,
            **pin_entry(module_pin(module, law)),
        }
    (GOLDEN / "modules.json").write_text(json.dumps(pins, indent=2) + "\n")


def main():
    record_readme()
    record_modules()
    return 0


if __name__ == "__main__":
    sys.exit(main())
