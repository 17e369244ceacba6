"""Every function, class and method of the library is reached from the library.

An `ast` scan of src/ramtower/ lists each top-level function and class and
each method, and fails for one whose name nothing else in src/ references:
no `Name`, attribute or import of that name outside its own body.  Names
are matched, not objects, so `x.as_json()` reaches every `as_json`; dunder
methods are the language's hooks and are skipped.  A name that only tests,
scripts or the benchmark use is not reached from the library.  It stays
only if ALLOWED names it with one of these reasons, each checked against
the file it points to:

    README quick tour              the README's "Library quick tour" uses it
    acceptance criterion N         test_criterion_N in tests/test_acceptance.py
    used by scripts/X              scripts/X uses it
    argparse hook                  argparse calls it, by its name
    imported or span-targeted by perfbench/
                                   temporary: the benchmark imports or traces
                                   it; such entries leave when the benchmark
                                   carries its own oracles

An entry that the library reaches again, or whose definition is gone, must
leave the list too.
"""

import argparse
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ramtower"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    "cli._Parser.error": "argparse hook",
    "formal.check_pi_congruence_universal": "acceptance criterion 3",
    "herbrand.lower_to_upper": "acceptance criterion 2",
    "herbrand.upper_to_lower": "acceptance criterion 2",
    "polygon.brute_force_hull": "acceptance criterion 1",
    "polygon.root_valuations": "acceptance criterion 1",
    "seriespoly.resultant": "imported or span-targeted by perfbench/",
    "tate.eisenstein_trinomial": "README quick tour",
    "towers.upper_break_by_composition": "acceptance criterion 5",
    "towers.breaks_over_base": "acceptance criterion 8",
    "towers.character_breaks": "acceptance criterion 7",
    "towers.norm_index": "acceptance criterion 7",
    "towers.TorsionTrace.ratio_holds_from": "used by scripts/torsion_explorer.py",
}


def definitions(tree):
    """(qualified name, node) of each top-level function or class and of
    each method."""
    for node in tree.body:
        if isinstance(node, SCOPES):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, SCOPES):
                        yield f"{node.name}.{sub.name}", sub


def references(tree):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def unreached(src=SRC):
    """Qualified names `module.name` defined in `src` that no code in `src`
    references outside their own definition."""
    refs, defs = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += [(name, path.stem, line) for name, line in references(tree)]
        defs += [(path.stem, qual, node) for qual, node in definitions(tree)]
    out = set()
    for module, qual, node in defs:
        name = qual.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            ref == name and not (mod == module and node.lineno <= line <= node.end_lineno)
            for ref, mod, line in refs
        ):
            out.add(f"{module}.{qual}")
    return out


def _readme_tour():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]


def _criterion(n):
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith(f"test_criterion_{n}_"):
            return ast.unparse(node)
    return ""


def _perfbench():
    return "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))


def reason_holds(qual, reason):
    """Whether `reason` is of a known kind and the file it points to uses the
    last part of `qual`."""
    name = qual.rpartition(".")[2]
    if reason == "argparse hook":
        return hasattr(argparse.ArgumentParser, name)
    if reason == "README quick tour":
        text = _readme_tour()
    elif reason == "imported or span-targeted by perfbench/":
        text = _perfbench()
    elif m := re.fullmatch(r"acceptance criterion (\d+)", reason):
        text = _criterion(m.group(1))
    elif (m := re.fullmatch(r"used by (scripts/[\w.]+\.py)", reason)) and (
        ROOT / m.group(1)
    ).is_file():
        text = (ROOT / m.group(1)).read_text(encoding="utf-8")
    else:
        return False
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_definition_is_reached_or_allowed_with_a_reason():
    found = unreached()
    assert sorted(found - ALLOWED.keys()) == []
    # an entry the library reaches again, or that is gone, leaves the list
    assert sorted(ALLOWED.keys() - found) == []


def test_every_allowed_reason_is_of_a_known_kind_and_holds():
    assert [f"{q}: {r}" for q, r in ALLOWED.items() if not reason_holds(q, r)] == []


def test_the_scan_finds_an_unreferenced_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return used_too()\n\n"
        "def used_too():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n"
        "class Box:\n    def __init__(self):\n        self.size = 0\n\n"
        "    def unused_method(self):\n        return Box()\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import Box\n", encoding="utf-8")
    assert unreached(tmp_path) == {"a.lonely", "a.Box.unused_method"}
