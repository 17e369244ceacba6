import ast
import doctest
import importlib
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples_run():
    results = {}
    for name in ("arith", "formal", "fq", "herbrand", "polygon", "tate", "towers"):
        module = importlib.import_module(f"ramtower.{name}")
        results[name] = doctest.testmod(module)
    for name, (failed, attempted) in results.items():
        assert attempted > 0, f"{name} has no docstring examples"
        assert failed == 0, f"{name}: {failed} of {attempted} examples failed"


def test_readme_quick_tour_runs():
    # run the README's python block statement by statement, keeping the value
    # of each bare expression, and compare those with what its comments say
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    F = Fraction
    assert values == [
        [3, 15, 63],
        [3, 9, 21],
        (1, F(1, 2), F(1, 4), F(1, 8), F(1, 16)),
        (F(3),),
        True,
    ]
    assert values[-1] is True
