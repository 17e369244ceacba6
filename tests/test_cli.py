"""End-to-end CLI checks, run in process through main(argv).

Contract under test: exit code 0 for clean runs, 1 for domain failures,
2 for undetermined valuations, 64 for usage errors; every non-usage path
prints one complete JSON report; --svg output is byte-stable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramtower import formal
from ramtower.cli import main
from ramtower.jsonio import RunReport
from ramtower.polygon import build_polygon
from ramtower.tate import eisenstein_trinomial, tate_breaks
from ramtower.towers import TowerParams, filtration_tables, torsion_valuations
from ramtower.fq import fq_field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    obj = json.loads(out)
    assert obj["schema"] == 1, out
    return code, RunReport(obj["status"], obj["payload"], obj["diagnostics"])


def test_polygon_happy_path(capsys):
    code, rep = report_of(capsys, "polygon", "--points", "1:1,2:1,4:0")
    assert code == 0 and rep.status == "ok"
    assert rep.payload == build_polygon([(1, 1), (2, 1), (4, 0)]).as_json()
    assert rep.payload["vertices"] == [[1, "1"], [4, "0"]]
    assert rep.payload["sides"][0]["slope"] == "-1/3"


def test_polygon_rejects_fractional_abscissa(capsys):
    code, out, err = run(capsys, "polygon", "--points", "1/2:1,2:0")
    assert code == 64
    assert out == ""
    assert "integers" in err


def test_polygon_rejects_garbage(capsys):
    code, _, err = run(capsys, "polygon", "--points", "a:b")
    assert code == 64 and "rational" in err


def test_missing_subcommand_is_usage(capsys):
    code, out, err = run(capsys)
    assert code == 64 and out == "" and "usage" in err.lower()


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polygon", "--nope"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv, env",
    [
        ("herbrand --layer 2:3:x", None),
        ("formal --p 2 --q 2 --honda 1 --prec 0", None),
        ("formal --p 2 --q 2 --honda 1 --prec -3", None),
        ("formal --p 2 --q 2 --honda 1", "0"),
        ("formal --p 2 --q 2 --honda 1", "-5"),
        ("tate --p 2 --poly t;t;1 --prec -1", None),
        ("tower torsion --vals 1 --q 2 --g 1 --nmax -1", None),
        ("verify --grid small --jobs -1", None),
        ("verify --grid small --jobs 0", None),
        ("verify --grid small --depth -1", None),
        ("verify --grid small --depth 0", None),
        ("verify --depth -1", None),
        ("verify --grid default --depth 0", None),
        ("tower schedule --p 2 --q 2 --g 1 --d 1 --N 0 --c 1 --n -1", None),
        ("tower schedule --p 2 --q 2 --g 1 --d 1 --N 0 --c 1 --n 0", None),
        ("tower schedule --p 4 --q 16 --g 1 --d 1 --N 0 --c 1 --n 2", None),
        ("tate --p 2 --field-ext 0 --poly t;t;1", None),
        ("formal --p 2 --q 2 --honda 0", None),
        ("formal --p 2 --q 2 --honda -1", None),
        ("tower torsion --vals 1 --q 2 --g 0 --nmax 2", None),
        ("tate --p 4 --poly t;t;1", None),
        ("formal --p 2 --q 3 --values 1", None),
        ("tower torsion --vals 1 --q 1 --g 1 --nmax 2", None),
        ("herbrand --layer 4:3:3", None),
        ("herbrand --layer 2:0:2", None),
        ("tate --p 2 --poly t^2;t;1 --assume-totally-ramified", None),
        # removed spellings: each command has one
        ("tate-breaks --p 2 --poly t;t;1", None),
        ("tower verify --grid small", None),
    ],
)
def test_bad_values_are_usage_errors(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("RAMTOWER_PREC", env)
    try:
        code = main(argv.split())
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    out = capsys.readouterr()
    assert code == 64
    assert out.out == ""
    assert out.err.strip()


def test_unexpected_error_still_reports_json(capsys, monkeypatch):
    def boom(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("ramtower.cli._cmd_polygon", boom)
    code, out, err = run(capsys, "polygon", "--points", "1:1")
    assert code == 1
    assert "ZeroDivisionError" in err
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["payload"] == {"error": "division by zero", "kind": "ZeroDivisionError"}


def test_herbrand_composition(capsys):
    code, rep = report_of(
        capsys, "herbrand", "--layer", "2:3:2", "--layer", "2:15:2", "--eval", "63"
    )
    assert code == 0
    assert rep.payload["phi_values"] == [["63", "21"]]
    assert rep.payload["psi_values"] == [["63", "231"]]


def test_herbrand_bad_layer(capsys):
    code, _, err = run(capsys, "herbrand", "--layer", "2:3")
    assert code == 64 and "ORDER:BREAK:DROP" in err


def test_formal_honda_check(capsys):
    code, rep = report_of(
        capsys, "formal", "--p", "2", "--q", "2", "--honda", "1", "--prec", "8", "--check"
    )
    assert code == 0
    assert rep.payload["group_law"]["ok"] is True
    assert [c["ok"] for c in rep.payload["congruences"]] == [True, True, True]
    assert rep.payload["law"]["D"] == 8


def test_formal_readme_sampled_example(capsys):
    # the sampled engine needs finite-field coefficients: --check reduces the
    # law mod p, and lists congruences only where q^i fits under D = 81
    code, rep = report_of(
        capsys, "formal", "--p", "3", "--q", "9", "--honda", "2", "--prec", "81",
        "--check", "--assoc", "sampled",
    )
    assert code == 0 and rep.status == "ok"
    assert rep.payload["group_law"]["ok"] is True
    assert rep.payload["group_law"]["method"] == "sampled"
    assert [(c["i"], c["ok"]) for c in rep.payload["congruences"]] == [(1, True), (2, True)]


GOLDEN = Path(__file__).resolve().parent / "golden"
README_GOLDEN = json.loads((GOLDEN / "readme.json").read_text())


@pytest.mark.parametrize("name", sorted(README_GOLDEN))
def test_readme_command_output_is_byte_identical(capsys, monkeypatch, tmp_path, name):
    # stdout, exit code and --svg file recorded by tests/golden/record_readme.py
    case = README_GOLDEN[name]
    monkeypatch.delenv("RAMTOWER_PREC", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()
    argv = case["argv"]
    if case["svg"] is None:
        assert "--svg" not in argv
    else:
        svg = tmp_path / argv[argv.index("--svg") + 1]
        assert svg.read_bytes() == (GOLDEN / case["svg"]).read_bytes()


def test_formal_assoc_skip_leaves_the_run_ok(capsys):
    code, rep = report_of(
        capsys, "formal", "--p", "2", "--q", "4", "--values", "1,1", "--prec", "20",
        "--check", "--assoc", "skip",
    )
    assert code == 0 and rep.status == "ok"
    assert rep.payload["group_law"]["associative_ok"] is None
    assert rep.payload["group_law"]["first_failure"] is None
    assert all(c["ok"] for c in rep.payload["congruences"])


def test_formal_failed_congruence_fails_the_run(capsys, monkeypatch):
    def failing(module, i):
        return formal.CongruenceReport(False, i, 1, (1,))

    monkeypatch.setattr(formal, "check_pi_congruence", failing)
    code, rep = report_of(
        capsys, "formal", "--p", "2", "--q", "2", "--honda", "1", "--prec", "8", "--check"
    )
    assert code == 1 and rep.status == "fail"
    assert rep.payload["group_law"]["ok"] is True
    assert [c["ok"] for c in rep.payload["congruences"]] == [False, False, False]


def test_formal_non_p_power_values_above_degree_160(capsys):
    code, rep = report_of(
        capsys, "formal", "--p", "3", "--q", "3", "--values", "1/2,1", "--prec", "200"
    )
    assert code == 0 and rep.status == "ok"
    assert rep.payload["law"]["D"] == 200
    assert rep.payload["brackets"]["3"]["coeffs"][0] == [1, "3"]


def test_formal_values_flag_required(capsys):
    code, _, err = run(capsys, "formal", "--p", "2", "--q", "2")
    assert code == 64 and "--values" in err


def run_subprocess(*argv):
    """`python -m ramtower.cli argv` in a subprocess, whose timeout turns an
    endless loop into a failure instead of a hung suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "ramtower.cli", *argv],
        capture_output=True, text=True, timeout=30, env=env,
    )


@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (4, 4)])
def test_formal_rejects_non_prime_p(p, q):
    # p = 1 once looped forever dividing q by p
    proc = run_subprocess("formal", "--p", str(p), "--q", str(q), "--values", "1")
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr == "ramtower: usage error: p must be prime\n"


def test_formal_rejects_zero_q():
    # q = 0 once looped forever dividing q by p
    proc = run_subprocess("formal", "--p", "2", "--q", "0", "--values", "1")
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr == "ramtower: usage error: q must be a positive power of p\n"


@pytest.mark.parametrize("q", ["1", "6"])
def test_formal_rejects_q_no_positive_power_of_p(q):
    # q = 1 would never end the loop over the powers q^i <= D, so it must be
    # refused first
    proc = run_subprocess("formal", "--p", "2", "--q", q, "--values", "1", "--prec", "8")
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr == "ramtower: usage error: q must be a positive power of p\n"


def test_prec_env_var_supplies_default(capsys, monkeypatch):
    monkeypatch.setenv("RAMTOWER_PREC", "12")
    code, rep = report_of(capsys, "formal", "--p", "2", "--q", "2", "--honda", "1")
    assert code == 0 and rep.payload["law"]["D"] == 12


def test_prec_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("RAMTOWER_PREC", "soon")
    code, _, err = run(capsys, "formal", "--p", "2", "--q", "2", "--honda", "1")
    assert code == 64 and "RAMTOWER_PREC" in err


def test_tate_single_break(capsys):
    code, rep = report_of(capsys, "tate", "--p", "2", "--poly", "t;t;1")
    assert code == 0
    assert rep.payload["breaks"] == ["1"]
    assert rep.payload == tate_breaks(eisenstein_trinomial(fq_field(2), 1)).as_json()


def test_tate_cubic_over_f3(capsys):
    # x^3 + t^3·x + t over F_3
    code, rep = report_of(capsys, "tate", "--p", "3", "--poly", "t;t^3;0;1")
    assert code == 0
    assert rep.payload["breaks"] == ["7/2"]


def test_a_too_deeply_nested_literal_is_a_usage_error(capsys):
    deep = "(" * 5000 + "t" + ")" * 5000
    code, out, err = run(capsys, "tate", "--p", "2", "--poly", f"{deep};t;1")
    assert code == 64 and out == ""
    assert "nested too deeply" in err and "Traceback" not in err


def test_tate_field_ext(capsys):
    code, rep = report_of(
        capsys, "tate", "--p", "2", "--field-ext", "2", "--poly", "t;t;0;0;1"
    )
    assert code == 0
    assert rep.payload["breaks"] == ["1/3"]


def test_tate_precision_exit(capsys):
    code, rep = report_of(capsys, "tate", "--p", "2", "--poly", "t;O(t^3);1")
    assert code == 2
    assert rep.status == "precision-error"
    assert "error" in rep.payload


def test_tate_domain_failure(capsys):
    code, rep = report_of(capsys, "tate", "--p", "2", "--poly", "t^2;t;1")
    assert code == 1
    assert rep.status == "fail"
    assert rep.payload["kind"] == "ValueError"


@pytest.mark.parametrize("poly", ["t;0;1", "t;0;t;0;1"])
def test_tate_refuses_inseparable_polynomials(capsys, poly):
    # x^2 + t and x^4 + t·x^2 + t over F_2 are x^2-polynomials: f' = 0
    code, rep = report_of(capsys, "tate", "--p", "2", "--poly", poly)
    assert code == 1
    assert rep.status == "fail"
    assert rep.payload["kind"] == "ValueError"
    assert "inseparable" in rep.payload["error"]


def test_tate_leading_minus_negates_over_f4(capsys):
    # -t + t is the exact zero, so the polynomial is x^4 + t^3·x^3 + t
    argv = ["tate", "--p", "2", "--field-ext", "2", "--poly"]
    code, rep = report_of(capsys, *argv, "t;-t + t;0;t^3;1")
    _, plain = report_of(capsys, *argv, "t;0;0;t^3;1")
    assert code == 0 and rep.payload == plain.payload
    assert rep.payload["breaks"] == ["11/3"]


def test_tate_rejects_a_huge_non_prime_p(capsys):
    code, out, err = run(capsys, "tate", "--p", str(10**400), "--poly", "t;t;1")
    assert code == 64 and out == ""
    assert err == "ramtower: usage error: p must be prime\n"


def test_tate_hypothesis_diagnostic(capsys):
    # v(a_2) = 1 < v(a_1) = 2: report stays ok but carries a warning
    code, rep = report_of(capsys, "tate", "--p", "3", "--poly", "t;t^2;t;1")
    assert code == 0
    assert any("undercuts" in d for d in rep.diagnostics)


def test_tower_schedule(capsys):
    code, rep = report_of(
        capsys,
        *"tower schedule --p 2 --q 2 --g 1 --d 1 --N 0 --c 1 --n 3".split(),
    )
    assert code == 0
    assert rep.payload["upper"] == ["3", "9", "21"]
    params = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)
    assert rep.payload == filtration_tables(params, 3).as_json()


def test_tower_schedule_guard(capsys):
    code, rep = report_of(
        capsys,
        *"tower schedule --p 2 --q 2 --g 1 --d 1 --N 2 --c 1 --n 1".split(),
    )
    assert code == 1
    assert rep.payload["kind"] == "GuardViolation"


def test_tower_schedule_lint_in_diagnostics(capsys):
    code, rep = report_of(
        capsys,
        *"tower schedule --p 3 --q 3 --g 1 --d 1 --N 0 --c 1 --n 2".split(),
    )
    assert code == 0
    assert any("not an integer" in d for d in rep.diagnostics)


def test_tower_torsion(capsys):
    code, rep = report_of(
        capsys, *"tower torsion --vals 1,1 --q 2 --g 1 --nmax 4".split()
    )
    assert code == 0
    assert rep.payload["valuations"][:2] == ["1/3", "1/12"]
    assert rep.payload == torsion_valuations((1, 1), q=2, g=1, n_max=4).as_json()


def test_tower_torsion_rejects_a_q_that_is_no_prime_power(capsys):
    code, out, err = run(capsys, *"tower torsion --vals 1 --q 6 --g 1 --nmax 2".split())
    assert code == 64 and out == ""
    assert err == "ramtower: usage error: q must be a prime power\n"


def test_tower_torsion_accepts_the_square_of_a_large_prime(capsys):
    q = (2**31 - 1) ** 2
    code, rep = report_of(capsys, *f"tower torsion --vals 1 --q {q} --g 1 --nmax 1".split())
    assert code == 0 and rep.payload["q"] == q


def test_tower_torsion_branch_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main("tower torsion --vals 1 --q 2 --g 1 --nmax 2 --branch sideways".split())
    assert exc.value.code == 64


def test_verify_small_grid_serial_and_parallel(capsys):
    code1, rep1 = report_of(capsys, "verify", "--grid", "small", "--jobs", "1")
    code2, rep2 = report_of(capsys, "verify", "--grid", "small", "--jobs", "2", "--depth", "4")
    assert code1 == 0 and code2 == 0
    assert rep1.payload["counterexamples"] == 0
    assert rep2.payload["counterexamples"] == 0
    assert rep1.payload["tuples"] == rep2.payload["tuples"] == 16
    assert rep1.payload["cases"] == rep2.payload["cases"] == 64
    assert rep1.payload["jobs"] == 1 and rep2.payload["jobs"] == 2


def test_svg_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["polygon", "--points", "1:1,2:1,4:0", "--svg", str(a)]) == 0
    assert main(["polygon", "--points", "1:1,2:1,4:0", "--svg", str(b)]) == 0
    capsys.readouterr()
    first, second = a.read_bytes(), b.read_bytes()
    assert first == second
    text = first.decode()
    assert "slope -1/3" in text
    assert "(4, 0)" in text


def test_torsion_svg_renders_last_snapshot(capsys, tmp_path):
    target = tmp_path / "trace.svg"
    code = main(
        f"tower torsion --vals 1 --q 2 --g 1 --nmax 3 --svg {target}".split()
    )
    capsys.readouterr()
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_torsion_svg_without_a_step_says_nothing_was_written(capsys, tmp_path):
    # --nmax 0 has no last-step polygon: the payload is the plain run's,
    # and one diagnostic says that no file was written
    target = tmp_path / "trace.svg"
    argv = "tower torsion --vals 1 --q 2 --g 1 --nmax 0".split()
    plain_code, plain = report_of(capsys, *argv)
    code, report = report_of(capsys, *argv, "--svg", str(target))
    assert code == plain_code == 0
    assert report.payload == plain.payload
    assert plain.diagnostics == []
    assert report.diagnostics == [f"no SVG written to {target}: this run has no polygon"]
    assert not target.exists()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, expected",
    [
        ("tower torsion --vals 1 --q 2 --g 1 --nmax 30 --svg", 0),
        ("tate --p 2 --poly t^2;t;1", 1),
    ],
)
def test_a_closed_pipe_leaves_no_traceback(tmp_path, argv, expected, unbuffered):
    # a reader that stopped early (`| head -2`) closed the pipe before the
    # report is written; unbuffered the print fails, buffered the exit flush
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = argv.split()
    target = tmp_path / "trace.svg"
    if argv[-1] == "--svg":
        argv.append(str(target))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ramtower.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert proc.returncode == expected
    if "--svg" in argv:
        assert target.read_text().startswith("<svg")


def test_report_is_well_formed_json_on_every_exit(capsys):
    # same schema on ok, fail and precision paths
    for argv, expected in [
        (["polygon", "--points", "1:1,4:0"], 0),
        (["tate", "--p", "2", "--poly", "t^2;t;1"], 1),
        (["tate", "--p", "2", "--poly", "t;O(t^3);1"], 2),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == expected
        doc = json.loads(out)
        assert set(doc) == {"schema", "status", "payload", "diagnostics"}
        assert doc["schema"] == 1
