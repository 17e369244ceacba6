"""The CLI contract on argv drawn from each subcommand's grammar.

Values sit near the edges: p and q from primes, prime powers, composites,
units, zero, negatives, a large prime and a huge composite; counts from -1
to 3.  Whatever the draw, `main` exits 0, 1, 2 or 64; a usage error (64)
leaves stdout empty and says why on stderr; every other exit prints exactly
one report whose status matches the code; no traceback reaches stderr.  A
p or q that names no field (a p that is not prime, a q that is not a power
of p) is a usage error whenever every other value is well-formed.
"""

import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.cli import PREC_ENV, main
from ramtower.jsonio import read_report

BIG_PRIME = 2**61 - 1
PQ = (-1, 0, 1, 2, 3, 4, 6, 9, 16, BIG_PRIME, 10**30)
PRIMES = {2, 3, BIG_PRIME}
COUNTS = (-1, 0, 1, 2, 3)
STATUS_OF_CODE = {0: "ok", 1: "fail", 2: "precision-error"}
# half the draws take a well-formed field, so the checks behind it run too
P = st.one_of(st.sampled_from(sorted(PRIMES)), st.sampled_from(PQ))
P_AND_Q = st.one_of(
    st.sampled_from([(2, 2), (2, 4), (2, 16), (3, 3), (3, 9), (BIG_PRIME, BIG_PRIME)]),
    st.tuples(st.sampled_from(PQ), st.sampled_from(PQ)),
)


def is_power_of(q, p):
    if p not in PRIMES or q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def is_prime_power(q):
    return any(is_power_of(q, p) for p in PRIMES)


class Argv:
    """argv under construction, plus whether p/q and the rest are well-formed."""

    def __init__(self, draw, *words):
        self.draw, self.words, self.others_ok = draw, list(words), True
        self.svg = None  # the --svg path, when one is drawn

    def __repr__(self):
        return " ".join(self.words)

    def pick(self, flag, good, bad=()):
        value = self.draw(st.sampled_from(tuple(good) + tuple(bad)))
        self.others_ok &= value in good
        self.words += [flag, str(value)]

    def maybe(self, flag, good, bad=()):
        if self.draw(st.booleans()):
            self.pick(flag, good, bad)

    def switch(self, flag):
        if self.draw(st.booleans()):
            self.words.append(flag)

    def maybe_svg(self, svg_dir):
        """Sometimes append --svg, to a writable file or into a missing directory."""
        if self.draw(st.booleans()):
            self.svg_writable = self.draw(st.booleans())
            name = "out.svg" if self.svg_writable else os.path.join("missing", "out.svg")
            self.svg = os.path.join(svg_dir, name)
            self.words += ["--svg", self.svg]


def counts(low):
    return [c for c in COUNTS if c >= low], [c for c in COUNTS if c < low]


@st.composite
def polygon_argv(draw, svg_dir):
    a = Argv(draw, "polygon")
    a.pick("--points", ["0:3,1:1,2:1,4:0", "1:1", "0:0,1:1,1:2"], ["1/2:1", "a:b", ","])
    a.maybe_svg(svg_dir)
    return a, None


@st.composite
def herbrand_argv(draw):
    a = Argv(draw, "herbrand")
    for _ in range(draw(st.integers(1, 2))):
        a.pick("--layer", ["2:3:2", "2:15:2", "4:3:2", "4:1:2,3:2"],
               ["4:3:3", "2:0:2", "0:1:2", "2:3", "x"])
    a.maybe("--eval", ["63", "0", "1/2", "-1"], ["x"])
    return a, None


@st.composite
def formal_argv(draw):
    a = Argv(draw, "formal")
    p, q = draw(P_AND_Q)
    a.words += ["--p", str(p), "--q", str(q)]
    if draw(st.booleans()):
        a.pick("--honda", *counts(1))
    else:
        a.pick("--values", ["1", "1,2,1", "0", "1/2,1", "1/3"], ["x", "1/0"])
    # without --prec, D = q^3 + q
    a.pick("--prec", [1, 2, 3, 8, 24], [-1, 0])
    if draw(st.booleans()):
        a.words.append("--check")
        a.maybe("--assoc", ["auto", "exact", "dense", "sampled", "skip"], ["fast"])
    return a, not (p in PRIMES and is_power_of(q, p))


@st.composite
def tate_argv(draw, svg_dir):
    a = Argv(draw, draw(st.sampled_from(["tate", "tate-breaks"])))
    p = draw(P)
    a.words += ["--p", str(p)]
    a.maybe("--field-ext", *counts(1))
    a.pick("--poly", ["t;t;1", "t^2;t;1", "t^3;0;1", "2*t;0;1", "t;O(t^3);1",
                      "t;t^2;t;1", "t;t;t", "t;1;1", "t;t^3;0;1"], ["t", "t;x;1"])
    a.maybe("--prec", *counts(1))
    a.switch("--assume-totally-ramified")
    a.maybe_svg(svg_dir)
    return a, p not in PRIMES


@st.composite
def schedule_argv(draw):
    a = Argv(draw, "tower", "schedule")
    p, q = draw(P_AND_Q)
    a.words += ["--p", str(p), "--q", str(q)]
    for flag in ("--g", "--d", "--c", "--n"):
        a.pick(flag, *counts(1))
    a.pick("--N", *counts(0))
    return a, not (p in PRIMES and is_power_of(q, p))


@st.composite
def torsion_argv(draw, svg_dir):
    a = Argv(draw, "tower", "torsion")
    q = draw(st.sampled_from(PQ))
    a.words += ["--q", str(q)]
    a.pick("--vals", ["1", "1,1", "1/2,3"], ["0", "-1", "x"])
    a.pick("--g", *counts(1))
    a.pick("--nmax", *counts(0))
    a.maybe("--branch", ["max", "min"], ["sideways"])
    a.maybe_svg(svg_dir)
    return a, not is_prime_power(q)


@st.composite
def verify_argv(draw):
    # --jobs 1 only: a larger value would start a worker pool
    a = Argv(draw, *draw(st.sampled_from([["verify"], ["tower", "verify"]])))
    a.words += ["--grid", "small", "--jobs", "1"]
    a.maybe("--depth", *counts(1))
    return a, None


GRAMMARS = {
    "polygon": polygon_argv, "herbrand": herbrand_argv, "formal": formal_argv,
    "tate": tate_argv, "tower-schedule": schedule_argv, "tower-torsion": torsion_argv,
    "verify": verify_argv,
}
SVG_GRAMMARS = (polygon_argv, tate_argv, torsion_argv)


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_drawn(words):
    with mock.patch.dict(os.environ):
        os.environ.pop(PREC_ENV, None)
        return run_in_process(words)


@pytest.fixture(scope="module")
def svg_dir(tmp_path_factory):
    # module-scoped: hypothesis rejects a function-scoped fixture under @given
    return str(tmp_path_factory.mktemp("svg"))


# up to 50 examples per subcommand, about 280 in all: polygon and verify
# run out of distinct argv after 18 and 12
@pytest.mark.parametrize("grammar", GRAMMARS.values(), ids=GRAMMARS.keys())
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_drawn_argv_keeps_the_exit_code_contract(grammar, svg_dir, data):
    a, malformed_pq = data.draw(grammar(svg_dir) if grammar in SVG_GRAMMARS else grammar())
    if a.svg is not None and os.path.exists(a.svg):
        os.remove(a.svg)
    code, out, err = run_drawn(a.words)
    assert code in (0, 1, 2, 64), (a.words, code)
    assert "Traceback" not in err, (a.words, err)
    if code == 64:
        assert out == "" and err.strip(), (a.words, out)
    else:
        assert read_report(out).status == STATUS_OF_CODE[code], (a.words, out)
    if malformed_pq and a.others_ok:
        assert code == 64, (a.words, code, out)
    if a.svg is not None:
        check_svg_outcome(a, code, out)


def check_svg_outcome(a, code, out):
    """A run that gets as far as the SVG exits 0 having written the file (or
    says that it has no polygon to draw), or fails once on the write with
    the OSError's class as `kind`; a run that stops earlier ends as it
    would without --svg."""
    written = os.path.exists(a.svg)
    if code == 0:
        said = any(line.startswith("no SVG written") for line in read_report(out).diagnostics)
        assert written != said, (a.words, out)
    elif code == 1 and read_report(out).payload["kind"] == "FileNotFoundError":
        assert not a.svg_writable and not written, (a.words, out)
        assert run_drawn(a.words[:-2])[0] == 0, a.words
    else:
        assert not written, a.words
        assert run_drawn(a.words[:-2])[:2] == (code, out), a.words


SVG_COMMANDS = [
    "polygon --points 0:3,1:1",
    "tate --p 2 --poly t;t;1",
    "tower torsion --vals 1 --q 2 --g 1 --nmax 3",
]


@pytest.mark.parametrize("argv", SVG_COMMANDS)
@pytest.mark.parametrize(
    "target, kind",
    [("missing/x.svg", "FileNotFoundError"), (".", "IsADirectoryError"), ("", "FileNotFoundError")],
)
def test_an_unwritable_svg_path_is_the_one_fail_report(tmp_path, argv, target, kind):
    # the SVG is written before the report is printed, so a failed write
    # is reported once, as the run's status, and never after an "ok"
    path = str(tmp_path / target) if target else ""
    code, out, err = run_in_process(argv.split() + ["--svg", path])
    assert code == 1, (argv, out, err)
    assert "Traceback" not in err, err
    report = read_report(out)
    assert report.status == "fail"
    assert report.payload["kind"] == kind
    assert list(tmp_path.iterdir()) == []
