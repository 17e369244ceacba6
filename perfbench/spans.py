"""Span tracing installed from outside the library.

`install(tracer)` replaces the ramtower functions listed in TARGETS with
wrappers that record one span per call: name, parent span, start and end
(perf_counter_ns).  Functions that other modules imported by name
(``ramtower.tate.resultant``, ``ramtower.towers.compose_tower``, the job
lists in workloads.py, ...) are replaced there as well, so nested calls
become child spans.  Nothing under src/ is edited; `uninstall()` restores
every original.

Spans stay in memory.  `Tracer.summary()` folds them into per-name call
counts, total time and self time (a span's duration minus the time its
child spans cover) plus the size counters the wrappers read off outputs.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start_ns, end_ns]
        self.sizes = defaultdict(int)  # summed size counters
        self.peaks = {}  # max-over-calls size counters
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def reset(self):
        self.spans.clear()
        self.sizes.clear()
        self.peaks.clear()
        self._stack.clear()

    def add(self, key, value):
        self.sizes[key] += value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if size is not None:
                size(self, args, out)
            return out

        return traced

    def summary(self):
        """{"calls": {name: n}, "total_s": {...}, "self_s": {...},
        "top_s": seconds covered by root spans, "spans": count,
        "sizes": summed size counters, "peaks": max-over-calls counters}"""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        top_ns = 0
        for idx, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) / 1e9
            self_s[name] += (end - start - child_ns[idx]) / 1e9
            if parent < 0:
                top_ns += end - start
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "top_s": top_ns / 1e9,
            "spans": len(self.spans),
            "sizes": dict(self.sizes),
            "peaks": dict(self.peaks),
        }

    def patch(self, owner, attr, name, size=None):
        original = owner.__dict__[attr]
        wrapped = self.wrap(name, original, size)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))
        return original, wrapped


# --- size counters, read from arguments and outputs ------------------------


def _points(tr, args, out):
    tr.add("polygon.points", len(args[0]))


def _breakpoints(tr, args, out):
    tr.add("herbrand.breakpoints", len(out.breakpoints))


def _sylvester(tr, args, out):
    f, g = args[0], args[1]
    tr.peak("seriespoly.sylvester_dim", f.degree + g.degree)


def _law(tr, args, out):
    tr.add("formal.law.terms", len(out.coeffs))
    bits = 0
    for c in out.coeffs.values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tr.peak("formal.law.max_bits", bits)


def _dense(tr, args, out):
    F = args[0]
    tr.add("fastcheck.dense.grid_cells", F.ring.m * (F.D + 1) ** 3)


def _sampled(tr, args, out):
    tr.peak("fastcheck.sampled.false_pass_bound", float(out[2]["false_pass_bound"]))


def _text_bytes(key):
    def size(tr, args, out):
        tr.add(key, len(out.encode("utf-8")))

    return size


# (module, attribute or Class.attribute, span name, size counter).  The law
# is assembled by formal._law_series exactly once per module, when the .law
# property is first read, so that function is the law-assembly boundary.
TARGETS = (
    ("ramtower.polygon", "build_polygon", "polygon.build_polygon", _points),
    ("ramtower.herbrand", "compose_tower", "herbrand.compose_tower", _breakpoints),
    ("ramtower.seriespoly", "resultant", "seriespoly.resultant", _sylvester),
    ("ramtower.tate", "ext_valuation", "tate.ext_valuation", None),
    ("ramtower.tate", "ramification_polynomial", "tate.ramification_polynomial", None),
    ("ramtower.tate", "tate_breaks", "tate.tate_breaks", None),
    ("ramtower.towers", "transition_to_base", "towers.transition_to_base", None),
    ("ramtower.towers", "verify_tuple", "towers.verify_tuple", None),
    ("ramtower.towers", "filtration_tables", "towers.filtration_tables", None),
    ("ramtower.towers", "torsion_valuations", "towers.torsion_valuations", None),
    ("ramtower.towers", "TorsionTrace.as_json", "towers.as_json", None),
    ("ramtower.formal", "atypical_module", "formal.atypical_module", None),
    ("ramtower.formal", "honda_module", "formal.honda_module", None),
    ("ramtower.formal", "_law_series", "formal.law", _law),
    ("ramtower.formal", "FormalModule.bracket", "formal.bracket", None),
    ("ramtower.formal", "check_pi_congruence", "formal.check_pi_congruence", None),
    (
        "ramtower.formal",
        "check_pi_congruence_universal",
        "formal.check_pi_congruence_universal",
        None,
    ),
    ("ramtower.formal", "BivariateSeries.reduce_mod_p", "formal.reduce_mod_p", None),
    ("ramtower.formal", "UnivariateSeries.reduce_mod_p", "formal.reduce_mod_p", None),
    ("ramtower.formal", "check_group_law", "formal.check_group_law", None),
    ("ramtower.fastcheck", "dense_associativity", "fastcheck.dense_associativity", _dense),
    (
        "ramtower.fastcheck",
        "sampled_associativity",
        "fastcheck.sampled_associativity",
        _sampled,
    ),
    ("ramtower.jsonio", "RunReport.dumps", "jsonio.dumps", _text_bytes("jsonio.dumps.bytes")),
    ("ramtower.svg", "render_svg", "svg.render_svg", _text_bytes("svg.render_svg.bytes")),
)


def install(tracer: Tracer):
    """Wrap every target whose module is already imported, and rebind each
    name any other module (ramtower's own and the benchmark's) imported
    from it.  Targets in modules not yet imported are skipped, so tracing
    never adds an import (numpy comes with fastcheck) that the untraced
    program would not make."""
    for mod_name, attr, name, size in TARGETS:
        module = sys.modules.get(mod_name)
        if module is None:
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original, wrapped = tracer.patch(owner, leaf, name, size)
        if owner_name:
            continue
        for other in list(sys.modules.values()):
            names = getattr(other, "__dict__", None)
            if other is module or names is None:
                continue
            for key, value in list(names.items()):
                if value is original:
                    setattr(other, key, wrapped)
                    tracer._patches.append((other, key, original))


def uninstall(tracer: Tracer):
    for owner, attr, original in reversed(tracer._patches):
        setattr(owner, attr, original)
    tracer._patches.clear()
