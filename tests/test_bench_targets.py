"""The benchmark tracer's targets still name functions of the library.

`perfbench/spans.py` wraps every (module, attribute) in its TARGETS by
replacing `owner.__dict__[attr]`, so renaming or deleting one of those
functions crashes every traced benchmark run.  This resolves each target
the same way, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if not callable(getattr(owner, "__dict__", {}).get(leaf)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
