import doctest
import importlib


def test_docstring_examples_run():
    results = {}
    for name in ("formal", "fq", "herbrand", "polygon", "tate", "towers"):
        module = importlib.import_module(f"ramtower.{name}")
        results[name] = doctest.testmod(module)
    for name, (failed, attempted) in results.items():
        assert attempted > 0, f"{name} has no docstring examples"
        assert failed == 0, f"{name}: {failed} of {attempted} examples failed"
