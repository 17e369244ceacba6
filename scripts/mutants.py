"""Mutation audit: does some test notice when the code is quietly wrong?

    python scripts/mutants.py

Each entry of MUTANTS replaces one exact piece of text, which must occur
exactly once in its file, by a plausible slip (a `<` for a `<=`, a widened
threshold, a guard that never fires).  For each mutant the script copies
the checkout into a temporary directory, patches the copy, and runs the
mutant's tests there with `python -m pytest -x`.  Failing tests kill the
mutant; passing tests let it survive, which shows a gap in the tests.  A
mutant that no test can kill because it does not change behaviour is kept
in the list with the reason, as equivalent, and is not run.

The tests are first run once on an unpatched copy, so a failure is the
mutant's and not the checkout's.  This is mutation testing in the sense of
DeMillo, Lipton and Sayward, "Hints on test data selection" (1978).  The
exit status is 0 when every mutant that was run was killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name path old new tests equivalent", defaults=(None,))

MUTANTS = [
    Mutant(
        "fft-rounding-threshold",
        "src/ramtower/fastcheck.py",
        "    if err > 0.01:\n",
        "    if err > 0.49:\n",
        ("tests/test_formal.py",),
    ),
    Mutant(
        "sampled-place-shift-off-by-one",
        "src/ramtower/fastcheck.py",
        "            k = ((1 - outer) % s + g * e0 - (1 - nxt) % s) // s\n",
        "            k = ((1 - outer) % s + (g - 1) * e0 - (1 - nxt) % s) // s\n",
        ("tests/test_formal.py::test_fft_engines_agree_with_the_exact_engine",),
    ),
    Mutant(
        "dense-steps-from-the-wrong-power",
        "src/ramtower/fastcheck.py",
        "mul(plane, gap_transform(n - prev))",
        "mul(base, gap_transform(n - prev))",
        ("tests/test_formal.py::test_fft_engines_agree_with_the_exact_engine",),
    ),
    Mutant(
        "dense-frobenius-stride-one",
        "src/ramtower/fastcheck.py",
        "plane[p * A[:low], p * B[:low]] = vecs[n // p][:low]",
        "plane[1 * A[:low], 1 * B[:low]] = vecs[n // p][:low]",
        ("tests/test_formal.py::test_frobenius_power_is_the_fft_product",),
    ),
    Mutant(
        "dense-row-slice-ends-one-short",
        "src/ramtower/fastcheck.py",
        "            lo, hi = lows[n], rows[row]\n",
        "            lo, hi = lows[n], rows[row] - 1\n",
        ("tests/test_formal.py::test_dense_engine_matches_the_cube_oracle",),
    ),
    Mutant(
        "dense-gather-swaps-b-and-c",
        "src/ramtower/fastcheck.py",
        "V[row_of[:r] + _tri(B[:r] + z) + B[:r]]",
        "V[row_of[:r] + _tri(B[:r] + z) + z]",
        ("tests/test_formal.py::test_dense_engine_matches_the_cube_oracle",),
    ),
    Mutant(
        "residues-skip-prime-subfield-check",
        "src/ramtower/fastcheck.py",
        "        if any(c.coeffs[1:]):\n",
        "        if False:\n",
        ("tests/test_formal.py::test_sampled_rejects_extension_field_coefficients",),
    ),
    Mutant(
        "extension-fold-drops-reduction-rows",
        "src/ramtower/fastcheck.py",
        "    return (C[:, :r] + C[:, r:] @ R) % p\n",
        "    return C[:, :r] % p\n",
        ("tests/test_formal.py::test_vec_mul_is_the_field_multiplication",),
    ),
    Mutant(
        "verify-upper-below-lower",
        "src/ramtower/towers.py",
        "            if not wn * M < B * wd:\n",
        "            if not wn * M <= B * wd:\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "layer-chain-phi-at-the-break",
        "src/ramtower/towers.py",
        "        if X > Bs:\n",
        "        if X >= Bs:\n",
        ("tests/test_towers.py",),
        equivalent="at X = B·scale the layer map gives (B·scale·Q)/(M·scale·Q), the same value",
    ),
    Mutant(
        "bracket-linear-term-guard",
        "src/ramtower/formal.py",
        "    if lead != a:\n",
        "    if False:\n",
        ("tests/test_formal.py",),
    ),
    Mutant(
        "inverse-log-widen-never",
        "src/ramtower/formal.py",
        "        if G % ge.denominator:\n",
        "        if False:\n",
        ("tests/test_formal.py::test_inverse_log_widens_its_denominator",),
    ),
    Mutant(
        "log-powers-recurrence-weight",
        "src/ramtower/formal.py",
        "total += (n1 * w - k) * c * H[j - m]",
        "total += (n * w - k) * c * H[j - m]",
        ("tests/test_formal.py::test_log_powers_match_the_product_oracle",),
    ),
    Mutant(
        "log-powers-delta-drops-denominator",
        "src/ramtower/formal.py",
        "math.lcm(*(c.denominator * delta[j - m] for m, _, c in terms))",
        "math.lcm(*(delta[j - m] for m, _, c in terms))",
        ("tests/test_formal.py::test_log_powers_match_the_product_oracle",),
    ),
    Mutant(
        "log-powers-table-gcd-skipped",
        "src/ramtower/formal.py",
        "    common = math.gcd(L, *(c for row in table for c in row.values()))\n",
        "    common = 1\n",
        ("tests/test_formal.py::test_log_powers_match_the_product_oracle",),
    ),
    Mutant(
        "series-kernel-early-exit",
        "src/ramtower/formal.py",
        "            if deg > room:\n",
        "            if deg >= room:\n",
        ("tests/test_formal.py::test_mul_matches_all_pairs_reference",),
    ),
    Mutant(
        "inverse-log-widen-without-rescale",
        "src/ramtower/formal.py",
        "            cs = [c * widen for c in cs]\n",
        "",
        ("tests/test_formal.py::test_inverse_log_widens_its_denominator",),
    ),
    Mutant(
        "law-series-degree-cut",
        "src/ramtower/formal.py",
        "            if e > cap:\n",
        "            if e >= cap:\n",
        ("tests/test_formal.py::test_rational_composition_matches_power_table",),
    ),
    Mutant(
        "sum-rows-floor-off-by-one",
        "src/ramtower/formal.py",
        "            if e >= floor:\n",
        "            if e > floor:\n",
        ("tests/test_formal.py::test_law_matches_the_full_plane_oracle",),
    ),
    Mutant(
        "law-half-plane-drops-the-middle-row",
        "src/ramtower/formal.py",
        "    half, B = D // 2, []\n",
        "    half, B = (D - 1) // 2, []\n",
        (
            "tests/test_formal.py::test_law_matches_the_full_plane_oracle",
            "tests/test_formal.py::test_law_and_brackets_truncate_consistently",
        ),
    ),
    Mutant(
        "law-mirror-dropped",
        "src/ramtower/formal.py",
        "c = raw[(i, j)] = raw[(j, i)] = Fraction(v, scale)",
        "c = raw[(i, j)] = Fraction(v, scale)",
        ("tests/test_formal.py::test_law_matches_the_full_plane_oracle",),
    ),
    Mutant(
        "exact-assoc-side-cut",
        "src/ramtower/formal.py",
        "            if deg > D - j:\n",
        "            if deg >= D - j:\n",
        ("tests/test_formal.py::test_exact_engine_pins",),
    ),
    Mutant(
        "tate-hypothesis-comparison",
        "src/ramtower/tate.py",
        "            if vi < v1:\n",
        "            if vi <= v1:\n",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "hull-orientation",
        "src/ramtower/polygon.py",
        "(n1 * d0 - n0 * d1) * d * (x - x0) >= (n * d0 - n0 * d) * d1 * (x1 - x0):\n",
        "(n1 * d0 - n0 * d1) * d * (x - x0) > (n * d0 - n0 * d) * d1 * (x1 - x0):\n",
        ("tests/test_polygon.py",),
    ),
    Mutant(
        "torsion-single-segment-step",
        "src/ramtower/towers.py",
        "            if i and len(poly.vertices) == 2:\n",
        "            if i and len(poly.vertices) <= 3:\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "verify-first-layer-equality",
        "src/ramtower/towers.py",
        "        if n == N + 1 and B * wd != wn * M:\n",
        "        if n == N + 1 and B * wd < wn * M:\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "ext-valuation-precision-guard",
        "src/ramtower/tate.py",
        "    if best >= bound:\n",
        "    if best > bound:\n",
        ("tests/test_tate.py",),
        equivalent="the terms n*v(c_k) + k and the bounds n*P + k' have distinct k < n, so "
        "they differ mod n and best never equals bound",
    ),
    Mutant(
        "ext-valuation-accepts-long-representative",
        "src/ramtower/tate.py",
        "    if len(coeffs) > n:\n",
        "    if len(coeffs) > n + 1:\n",
        ("tests/test_tate.py::test_ext_valuation_edge_cases",),
    ),
    Mutant(
        "expansion-binomial-strict",
        "src/ramtower/tate.py",
        "math.comb(k, i) % p if k >= i else 0",
        "math.comb(k, i) % p if k > i else 0",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "expansion-binomial-unreduced",
        "src/ramtower/tate.py",
        "ck = math.comb(k, i) % p if k >= i else 0",
        "ck = math.comb(k, i) if k >= i else 0",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "expansion-drops-lead-coefficient",
        "src/ramtower/tate.py",
        "c = c + -(ak * an) * field.from_int(cn)",
        "c = c + -ak * field.from_int(cn)",
        ("tests/test_tate.py::test_expansion_is_the_reduced_representative",),
    ),
    Mutant(
        "expansion-binomial-of-n-minus-1",
        "src/ramtower/tate.py",
        "math.comb(n, i) % p",
        "math.comb(n - 1, i) % p",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "is-monic-reads-only-the-valuation",
        "src/ramtower/seriespoly.py",
        "return lead.v0 == 0 and lead.coeffs == (self.field.one(),)",
        "return lead.v0 == 0",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "series-valuation-guesses-the-precision",
        "src/ramtower/series.py",
        'raise InsufficientPrecision(f"series is 0 mod t^{self.prec}; valuation unknown")',
        "return self.prec",
        ("tests/test_tate.py::test_truncation_keeps_the_points_or_is_refused_at_construction",),
    ),
    Mutant(
        "filtration-drop-of-one",
        "src/ramtower/herbrand.py",
        "            if d < 2 or left % d:\n",
        "            if left % d:\n",
        ("tests/test_herbrand.py", "tests/test_records.py"),
    ),
    Mutant(
        "canonical-form-keeps-every-point",
        "src/ramtower/herbrand.py",
        "range(1, len(slopes)) if slopes[i] != slopes[i - 1]]",
        "range(1, len(slopes)) if True]",
        ("tests/test_herbrand.py",),
    ),
    Mutant(
        "evaluation-bisect-left",
        "src/ramtower/herbrand.py",
        "from bisect import bisect_right\n",
        "from bisect import bisect_left as bisect_right\n",
        ("tests/test_herbrand.py",),
    ),
    Mutant(
        "walk-slopes-swapped",
        "src/ramtower/herbrand.py",
        "        slopes.append(s * d if inverse else s / d)\n",
        "        slopes.append(s / d if inverse else s * d)\n",
        ("tests/test_herbrand.py",),
    ),
    Mutant(
        "fft-length-drops-factor-5",
        "src/ramtower/fastcheck.py",
        "        for f in (2, 3, 5):\n",
        "        for f in (2, 3):\n",
        ("tests/test_formal.py::test_fft_length_is_the_least_5_smooth_length",),
    ),
    Mutant(
        "prime-test-small-factor",
        "src/ramtower/arith.py",
        "            return n == b\n",
        "            return True\n",
        ("tests/test_fq.py",),
    ),
    Mutant(
        "ben-or-degree-bound",
        "src/ramtower/fq.py",
        "    for _ in range(m // 2):\n",
        "    for _ in range(m // 2 - 1):\n",
        ("tests/test_fq.py::test_irreducibility_matches_a_factor_search",),
    ),
    Mutant(
        "series-sum-keeps-left-precision",
        "src/ramtower/series.py",
        "        prec = min(self.prec, other.prec)\n        if not self.coeffs:\n",
        "        prec = self.prec\n        if not self.coeffs:\n",
        ("tests/test_series.py",),
    ),
    Mutant(
        "series-product-precision-drops-a-side",
        "src/ramtower/series.py",
        "        prec = min(\n            self.prec + other.valuation_lower_bound(), "
        "other.prec + self.valuation_lower_bound()\n        )\n",
        "        prec = self.prec + other.valuation_lower_bound()\n",
        ("tests/test_series.py",),
    ),
    Mutant(
        "series-scalar-skips-the-field-check",
        "src/ramtower/series.py",
        "            self._check(other)\n            coeffs = tuple(a * other for a in self.coeffs)\n",
        "            coeffs = tuple(a * other for a in self.coeffs)\n",
        ("tests/test_series.py",),
    ),
    Mutant(
        "series-coeff-at-the-precision",
        "src/ramtower/series.py",
        "        if e >= self.prec:\n",
        "        if e > self.prec:\n",
        ("tests/test_series.py",),
    ),
    Mutant(
        "parser-negates-by-the-int-minus-one",
        "src/ramtower/series.py",
        "            s = -s\n",
        "            s = s * self.field.from_int(-1)\n",
        ("tests/test_series.py",),
    ),
    Mutant(
        "parse-series-recursion-escapes",
        "src/ramtower/series.py",
        "    try:\n        s = parser.parse_sum()\n    except RecursionError:\n"
        '        raise ValueError("series literal nested too deeply") from None\n',
        "    s = parser.parse_sum()\n",
        (
            "tests/test_series.py",
            "tests/test_cli.py::test_a_too_deeply_nested_literal_is_a_usage_error",
        ),
    ),
    Mutant(
        "eisenstein-accepts-inseparable",
        "src/ramtower/tate.py",
        "        if all(poly.coeff(j).is_exact_zero() for j",
        "        if False and all(poly.coeff(j).is_exact_zero() for j",
        ("tests/test_tate.py", "tests/test_cli.py"),
    ),
    Mutant(
        "separability-ignores-the-lead",
        "src/ramtower/tate.py",
        "for j in range(1, n + 1) if j % poly.field.p",
        "for j in range(1, n) if j % poly.field.p",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "fq-mul-truncates-instead-of-reducing",
        "src/ramtower/fq.py",
        "red = _poly_mod(prod, f.modulus, f.p) if len(prod) > f.m else prod",
        "red = prod[: f.m]",
        ("tests/test_fq.py",),
    ),
    Mutant(
        "report-precision-exit-code",
        "src/ramtower/jsonio.py",
        "STATUS_PRECISION: 2}",
        "STATUS_PRECISION: 1}",
        ("tests/test_jsonio.py", "tests/test_cli.py", "tests/test_cli_contract.py"),
    ),
    Mutant(
        "jsonio-writes-unknown-as-str",
        "src/ramtower/jsonio.py",
        '    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")\n',
        "    return str(v)\n",
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "cli-usage-error-exit-code",
        "src/ramtower/cli.py",
        '        print(f"ramtower: usage error: {e}", file=sys.stderr)\n        return 64\n',
        '        print(f"ramtower: usage error: {e}", file=sys.stderr)\n        return 1\n',
        ("tests/test_cli.py", "tests/test_cli_contract.py"),
    ),
    Mutant(
        "svg-fixed-point-unpadded",
        "src/ramtower/svg.py",
        'return f"{sign}{whole}.{frac:02d}"',
        'return f"{sign}{whole}.{frac}"',
        ("tests/test_cli.py::test_readme_command_output_is_byte_identical",),
    ),
    Mutant(
        "svg-fmt-rounds-half-up",
        "src/ramtower/svg.py",
        "    if 2 * rem > d or (2 * rem == d and scaled % 2):\n",
        "    if 2 * rem >= d:\n",
        ("tests/test_svg.py",),
    ),
    Mutant(
        "svg-y-flip-dropped",
        "src/ramtower/svg.py",
        "return (_H - _MARGIN) * twice * spany - (Y - twice * y0) * (_H - 2 * _MARGIN)",
        "return _MARGIN * twice * spany + (Y - twice * y0) * (_H - 2 * _MARGIN)",
        ("tests/test_svg.py",),
    ),
    Mutant(
        "svg-label-offset",
        "src/ramtower/svg.py",
        "_fmt(nx + 6 * spanx, spanx)",
        "_fmt(nx + 5 * spanx, spanx)",
        ("tests/test_svg.py",),
    ),
    Mutant(
        "compose-coincident-advances-one-list",
        "src/ramtower/herbrand.py",
        "            if t == tb:\n                j += 1\n            slopes.append(",
        "            elif t == tb:\n                j += 1\n            slopes.append(",
        ("tests/test_herbrand.py",),
    ),
    Mutant(
        "compose-slope-keeps-only-self",
        "src/ramtower/herbrand.py",
        "            slopes.append(sa[i] * sb[j])\n",
        "            slopes.append(sb[j])\n",
        ("tests/test_herbrand.py",),
    ),
    Mutant(
        "evaluation-reads-the-next-piece",
        "src/ramtower/herbrand.py",
        "        return y0 + self._slopes[i] * (x - x0)\n",
        "        return y0 + self._slopes[min(i + 1, len(self._slopes) - 1)] * (x - x0)\n",
        ("tests/test_herbrand.py",),
    ),
    Mutant(
        "series-poly-keeps-exact-zero-leading",
        "src/ramtower/seriespoly.py",
        "        while coeffs and coeffs[-1].is_exact_zero():\n",
        "        while False:\n",
        ("tests/test_tate.py", "tests/test_polygon.py"),
    ),
    Mutant(
        "verify-psi-steps-by-q-minus-one",
        "src/ramtower/towers.py",
        "            Y = Bs + (Y - Bs) * Q\n",
        "            Y = Bs + (Y - Bs) * (Q - 1)\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "upper-numerator-drops-the-minus-one",
        "src/ramtower/towers.py",
        "    return params.c * q ** (N + 1) * bracket - _denominator(params)\n",
        "    return params.c * q ** (N + 1) * bracket\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "record-equality-drops-a-field",
        "src/ramtower/record.py",
        "        return self._values() == other._values()\n",
        "        return self._values()[1:] == other._values()[1:]\n",
        ("tests/test_records.py",),
    ),
    Mutant(
        "record-assignment-passes",
        "src/ramtower/record.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        ("tests/test_records.py",),
    ),
]


def _copy_checkout(dest: Path) -> Path:
    repo = dest / "repo"
    shutil.copytree(
        ROOT,
        repo,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"
        ),
    )
    return repo


def _run_tests(repo: Path, tests) -> str:
    """'passed', 'failed' or 'timeout' for `tests` run inside `repo`."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    if proc.returncode in (1, 2):  # failing tests, or a collection error
        return "failed"
    raise RuntimeError(f"pytest exited {proc.returncode} on {' '.join(tests)}")


def run_mutant(mutant: Mutant) -> str:
    """'killed' or 'survived' (a timeout kills)."""
    with tempfile.TemporaryDirectory(prefix="ramtower-mutant-") as tmp:
        repo = _copy_checkout(Path(tmp))
        target = repo / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: old text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new))
        outcome = _run_tests(repo, mutant.tests)
    return "survived" if outcome == "passed" else "killed"


def main() -> int:
    selections = sorted({t for m in MUTANTS if not m.equivalent for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="ramtower-mutant-") as tmp:
        baseline = _run_tests(_copy_checkout(Path(tmp)), selections)
    if baseline != "passed":
        print(f"the unpatched checkout does not pass {' '.join(selections)}")
        return 1

    scores: dict[str, list[int]] = {}
    survivors = 0
    for m in MUTANTS:
        if m.equivalent:
            print(f"{'equivalent':10s} {m.name}: {m.equivalent}")
            continue
        start = time.perf_counter()
        outcome = run_mutant(m)
        elapsed = time.perf_counter() - start
        tests = " ".join(m.tests)
        print(f"{outcome:10s} {m.name} ({m.path}; {tests}; {elapsed:.1f} s)", flush=True)
        score = scores.setdefault(m.path, [0, 0])
        score[0] += outcome == "killed"
        score[1] += 1
        survivors += outcome == "survived"
    for path, (killed, total) in sorted(scores.items()):
        print(f"score {path}: {killed}/{total} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
