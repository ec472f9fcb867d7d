"""End-to-end command line checks through main(argv)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import mpmath as mp
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gha
from gha.cli import main
from gha.hartree import OscillatorModel, solve_level
from gha.qft import FieldTheory, solve_mass_gap, stevenson

from conftest import sigma0_gap_root


def run_json(capsys, argv):
    code = main(argv + ["--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_spectrum_json(capsys):
    doc = run_json(capsys, [
        "spectrum", "--g", "1", "--lambda", "1", "--levels", "0,1",
        "--order", "2",
    ])
    assert doc["command"] == "spectrum"
    assert doc["model"] == {"power": 4, "g": 1.0, "lambda": 1.0}
    ground = doc["levels"][0]
    assert ground["omega"] == 2.0
    assert ground["e0"] == 0.8125
    assert ground["phase"] == "AHO"
    assert ground["e2"] == pytest.approx(0.8032063615501891, rel=1e-12)
    assert len(doc["levels"]) == 2


def test_meta_block_only_in_json(capsys):
    assert main(["spectrum", "--g", "1", "--lambda", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["version"] == "0.1.0"
    assert "timestamp" in doc["meta"]

    assert main(["spectrum", "--g", "1", "--lambda", "1", "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert "meta" not in csv_text and "version" not in csv_text


def test_no_meta_output_is_deterministic(capsys):
    argv = ["spectrum", "--g", "1", "--lambda", "0.3", "--no-meta"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_csv_format(capsys):
    assert main([
        "spectrum", "--g", "1", "--lambda", "1", "--format", "csv",
    ]) == 0
    out = capsys.readouterr().out
    lines = out.split("\r\n")
    assert lines[0] == "n,phase,omega,sigma,e0"
    cells = lines[1].split(",")
    assert float(cells[2]) == 2.0
    assert float(cells[4]) == 0.8125


def test_dwo_without_a_well_reports_the_raw_energy(capsys):
    # at g > 0 the reported energy used to carry a well depth of g²/(16λ)
    doc = run_json(capsys, ["dwo", "--g", "1", "--lambda", "1", "--levels", "0,1"])
    assert doc["well_depth"] == 0.0 and doc["lambda_c"] is None
    assert [row["e_reported"] for row in doc["levels"]] == [row["e_raw"] for row in doc["levels"]]


def test_md_format(capsys):
    assert main([
        "spectrum", "--g", "1", "--lambda", "1", "--format", "md",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| n | phase | omega | sigma | e0 |")
    assert "| --- |" in out


def test_dwo_payload(capsys):
    doc = run_json(capsys, ["dwo", "--lambda", "0.1", "--levels", "0"])
    assert doc["lambda_c"] == pytest.approx(0.09072184232530289, rel=1e-12)
    assert doc["well_depth"] == pytest.approx(0.625, rel=1e-15)
    row = doc["levels"][0]
    assert row["e_reported"] == pytest.approx(0.5496292047180615, rel=1e-10)
    assert row["phase"] == "DWO_SR"
    # below the critical coupling both branches exist and ride along
    doc2 = run_json(capsys, ["dwo", "--lambda", "0.085", "--levels", "0"])
    phases = {b["phase"] for b in doc2["levels"][0]["branches"]}
    assert phases == {"DWO_SR", "DWO_SSB"}


def test_hipt_payload(capsys):
    doc = run_json(capsys, ["hipt", "--g", "1", "--lambda", "1", "--level", "0"])
    assert doc["e2"] == pytest.approx(0.8032063615501891, rel=1e-12)
    assert doc["delta_e2"] < 0.0
    ms = [c["m"] for c in doc["contributions"]]
    assert 4 in ms and all(m != 0 for m in ms)
    # every contribution underflows: JSON lists none, CSV and markdown have no row
    argv = ["hipt", "--g", "1e200", "--lambda", "1e-300"]
    assert run_json(capsys, argv)["contributions"] == []
    for fmt in ("csv", "md"):
        assert main(argv + ["--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: hipt output has no rows")


def test_oracle_payload(capsys):
    doc = run_json(capsys, [
        "oracle", "--g", "1", "--lambda", "1", "--nmax", "2", "--tol", "1e-8",
    ])
    assert len(doc["levels"]) == 3
    assert doc["levels"][0]["energy"] == pytest.approx(0.8037706512342738, rel=1e-9)
    assert all(0.0 < r["convergence_error"] < 1e-8 for r in doc["levels"])
    # the a priori ⌊(3·2 + 1)/2⌋ + 9·2 + 4 = 25, rounded up to even, certifies
    assert doc["dimension"] == 26


def test_vacuum_direct_and_scan(capsys):
    doc = run_json(capsys, ["vacuum", "--omega", "2"])
    assert doc["n0"] == 0.125
    assert doc["u"] == pytest.approx(-1.0 / 3.0, rel=1e-14)

    scan = run_json(capsys, [
        "vacuum", "--omega", "1", "--scan", "1e4,2.5e4,5e4,1e5",
    ])
    assert 0.30 < scan["slope"] < 0.36
    assert len(scan["scan"]) == 4


def test_vacuum_scan_reports_its_quartic_model(capsys):
    # the level path follows --power; the strong-coupling scan is quartic
    argv = ["vacuum", "--g", "1", "--lambda", "1", "--scan", "100,1000"]
    sextic = run_json(capsys, argv + ["--power", "6"])
    assert sextic["model"] == {"power": 6, "g": 1.0, "lambda": 1.0}
    assert sextic["omega"] == solve_level(OscillatorModel(power=6, g=1.0, lam=1.0), 0).omega
    assert sextic["scan_model"] == {"power": 4, "g": 1.0}
    quartic = run_json(capsys, argv)
    assert "scan_model" not in quartic
    assert quartic["scan"] == sextic["scan"]


def test_vacuum_usage_error(capsys):
    assert main(["vacuum"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "provide --omega" in captured.err


def test_qft_renorm(capsys, monkeypatch):
    from gha import qft

    solves = []
    real = qft._ascend
    monkeypatch.setattr(qft, "_ascend",
                        lambda *args: solves.append(args) or real(*args))
    doc = run_json(capsys, [
        "qft", "renorm", "--mass2", "1", "--lambda", "0.1", "--cutoff", "10",
    ])
    assert doc["mR2"] == pytest.approx(2.443389699900859, rel=1e-12)
    assert doc["ratio"] == pytest.approx(0.9302114164943766, rel=1e-12)
    # m_R² is M̄², taken from the one gap solve
    assert doc["M2_bar"] == doc["mR2"]
    assert len(solves) == 1


def test_qft_renorm_needs_no_i1(capsys):
    # I₁ overflows at this cutoff; m_R² and λ_R do not need it, U does
    theory = ["--mass2", "1", "--lambda", "0.001", "--cutoff", "1e100"]
    doc = run_json(capsys, ["qft", "renorm", *theory])
    assert doc["mR2"] == doc["M2_bar"] == 1.5187584064074844e+196
    assert main(["qft", "potential", *theory, "--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: I_1(")


def test_qft_gap(capsys):
    doc = run_json(capsys, [
        "qft", "gap", "--mass2", "1", "--lambda", "0.1", "--cutoff", "10",
    ])
    assert doc["M2"] == pytest.approx(2.443389699900859, rel=1e-12)
    assert abs(doc["residual"]) < 1e-10 * doc["M2"]
    assert doc["i0"] == stevenson(0, doc["M2"], 10.0)
    # the printed residual is the one the solver checked
    theory = FieldTheory(m2=1.0, lam=0.1, cutoff=10.0)
    for sigma in (0.0, 0.7):
        doc = run_json(capsys, ["qft", "gap", "--mass2", "1", "--lambda", "0.1",
                                "--cutoff", "10", "--sigma", str(sigma)])
        assert doc["residual"] == solve_mass_gap(theory, sigma).residual


def test_qft_potential(capsys):
    doc = run_json(capsys, [
        "qft", "potential", "--mass2", "1", "--lambda", "0.1",
        "--cutoff", "10", "--sigma-max", "2", "--points", "5",
    ])
    us = [r["U"] for r in doc["rows"]]
    assert len(us) == 5
    assert all(b > a for a, b in zip(us, us[1:]))

    assert main([
        "qft", "potential", "--mass2", "1", "--lambda", "0.1",
        "--cutoff", "10", "--points", "1",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--points" in captured.err


@pytest.mark.parametrize("sigma_max", ["-1", "0", "nan"])
def test_qft_potential_rejects_nonpositive_sigma_max(capsys, sigma_max):
    assert main([
        "qft", "potential", "--mass2", "1", "--lambda", "0.1",
        "--cutoff", "10", "--sigma-max", sigma_max,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --sigma-max must be positive" in captured.err


def test_qft_static(capsys):
    doc = run_json(capsys, ["qft", "static", "--mr", "1", "--r", "1,2"])
    assert len(doc["rows"]) == 2
    expected = scipy.special.k1(1.0) / (4.0 * math.pi**2)
    assert doc["rows"][0]["U"] == pytest.approx(expected, rel=1e-12)
    # short distances reach the Coulomb-like core until U leaves float range
    doc = run_json(capsys, ["qft", "static", "--mr", "1", "--r", "0.0005"])
    assert doc["rows"][0]["U"] == pytest.approx(1.0 / (4.0 * math.pi**2 * 0.0005**2), rel=1e-5)
    assert main(["qft", "static", "--mr", "1", "--r", "1e-160"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: U(1e-160)")
    # U underflows to 0 at m_R r = 800; where m_R r underflows to 0 (r = 1e-30)
    # or lies below the K₁ sum's range (r = 1e-10), U is 1/(4π²r²)
    assert run_json(capsys, ["qft", "static", "--mr", "1", "--r", "800"])["rows"][0]["U"] == 0.0
    for r in (1e-30, 1e-10):
        doc = run_json(capsys, ["qft", "static", "--mr", "1e-300", "--r", repr(r)])
        assert doc["rows"][0]["U"] == pytest.approx(1.0 / (4.0 * math.pi**2 * r * r), rel=1e-15)

    assert main(["qft", "static"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "provide --mr" in captured.err


def test_qft_integrals(capsys):
    doc = run_json(capsys, [
        "qft", "integrals", "--mass2", "1", "--cutoff", "10",
        "--orders=-1,0,1",
    ])
    vals = {r["n"]: r["value"] for r in doc["rows"]}
    for n in (-1, 0, 1):
        assert vals[n] == stevenson(n, 1.0, 10.0)


def test_table_compare_exit_codes(capsys):
    assert main(["table", "1", "--compare", "--no-meta"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["failures"] == 0

    assert main(["table", "1", "--compare", "--tol", "1e-12", "--no-meta"]) == 1
    capsys.readouterr()

    for tol in ("nan", "-1", "0", "inf"):
        assert main(["table", "1", "--compare", "--tol", tol, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tolerance must lie in (0, inf)" in captured.err


def test_table_listing(capsys):
    doc = run_json(capsys, ["table", "1"])
    assert doc["convention"] == "direct"
    assert len(doc["rows"]) == 88
    assert {"lambda", "n", "provenance", "text", "disputed"} <= set(doc["rows"][0])


def test_numerical_failure_exit_code(capsys):
    # no stable phase exists for the inverted sextic well
    assert main(["spectrum", "--power", "6", "--g", "-1", "--lambda", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_domain_errors_exit_two(capsys):
    assert main(["oracle", "--g", "1", "--lambda", "1", "--nmax", "-1"]) == 2
    assert "error: n_max must be nonnegative" in capsys.readouterr().err
    assert main(["spectrum", "--g", "1", "--lambda", "nan"]) == 2
    assert "error: coupling must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "1e-11"])
def test_oracle_rejects_meaningless_tolerance(capsys, tol):
    assert main(["oracle", "--g", "1", "--lambda", "1", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tolerance must lie in [1e-10, inf)" in captured.err


def test_oracle_beyond_start_dimension(capsys):
    doc = run_json(capsys, ["oracle", "--g", "1", "--lambda", "1", "--nmax", "100"])
    assert len(doc["levels"]) == 101
    assert doc["dimension"] == 172


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--g", "1"])  # missing --lambda
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    # a malformed or empty list flag leaves nothing to print
    for argv in (["spectrum", "--g", "1", "--lambda", "1", "--levels", "a,b"],
                 ["spectrum", "--g", "1", "--lambda", "1", "--levels", ","],
                 ["dwo", "--lambda", "0.1", "--levels", ","],
                 ["qft", "static", "--mr", "1", "--r", ""],
                 ["qft", "integrals", "--mass2", "1", "--cutoff", "10", "--orders", ""],
                 ["vacuum", "--omega", "1", "--scan", ""]):
        capsys.readouterr()
        for fmt in ("json", "csv", "md"):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--format", fmt])
            assert info.value.code == 2
            assert capsys.readouterr().out == "", argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_non_finite_output_exits_one(capsys, fmt):
    # 1/omega overflows: vacuum_structure refuses the infinite n0 itself
    argv = ["vacuum", "--omega", "1e-320", "--format", fmt, "--no-meta"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: condensate density at omega 1e-320 leaves")
    # and the emitter refuses an infinity that a result still carried
    leaky = gha.vacuum.VacuumStructure(alpha=0.0, n0=math.inf, u=0.0)
    with mock.patch("gha.cli.vacuum_structure", return_value=leaky):
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: vacuum output")


@pytest.mark.parametrize("command", ["spectrum", "hipt"])
def test_even_only_flag_is_gone(command):
    with pytest.raises(SystemExit) as info:
        main([command, "--g", "1", "--lambda", "1", "--even-only"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["qft", "gap", "--sigma", "nan"],
    ["qft", "gap", "--sigma", "1e200"],
    ["qft", "potential", "--sigma-max", "inf"],
])
def test_bad_shift_is_blamed_on_sigma(capsys, argv):
    theory = ["--mass2", "1", "--lambda", "0.1", "--cutoff", "10"]
    assert main(argv[:2] + theory + argv[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma" in captured.err
    assert "M2" not in captured.err


_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(gha.__file__).resolve().parents[1])}


@pytest.mark.parametrize("argv", [
    ["dwo", "--lambda", "1e-300"],
    ["qft", "integrals", "--mass2", "1", "--cutoff", "1e300"],
    ["qft", "potential", "--mass2", "1", "--lambda", "0.1", "--cutoff", "10",
     "--sigma-max", "1e100"],
])
def test_overflow_exits_one_without_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "gha.cli", *argv, "--no-meta"],
                          capture_output=True, text=True, env=_SRC_ENV, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


_PAST_FLOAT = str(10**400)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--g", "1", "--lambda", "1", "--levels", _PAST_FLOAT],
    ["dwo", "--g=-1", "--lambda", "0.05", "--levels", _PAST_FLOAT],
    ["hipt", "--g", "1", "--lambda", "1", "--level", _PAST_FLOAT],
    ["vacuum", "--g", "1", "--lambda", "1", "--level", _PAST_FLOAT],
])
def test_level_index_past_float_range_exits_two_without_traceback(argv):
    # ξ = n + ½ overflowed in the level solve, a bare OverflowError (exit 1)
    proc = subprocess.run([sys.executable, "-m", "gha.cli", *argv, "--no-meta"],
                          capture_output=True, text=True, env=_SRC_ENV, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: level index must be nonnegative and integral")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # the symmetry-restored root 7e-361 underflows, and 8e-317 is subnormal
    ["vacuum", "--g=-1.7426264624882977e55", "--lambda", "1.9574360759863343e-306"],
    # the level path of `dwo`, whose well depth g²/(16λ) overflows first
    ["spectrum", "--g=-4.750424056133419e162", "--lambda", "1.1754133192628986e-155"],
])
def test_gap_overflow_is_a_non_finite_value(capsys, argv):
    assert main(argv + ["--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gap root of level 0 of OscillatorModel(")
    assert captured.err.rstrip().endswith("leaves floating-point range")


@pytest.mark.parametrize("g, lam", [("-4.750424056133419e162", "1.1754133192628986e-155"),
                                    ("-1e200", "1")])
def test_dwo_refuses_an_overflowing_well_depth_before_its_levels(capsys, g, lam):
    # the depth was inf, and the level or the emitter failed after it
    assert main(["dwo", f"--g={g}", "--lambda", lam, "--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    model = OscillatorModel(power=4, g=float(g), lam=float(lam))
    assert captured.err == f"error: well depth of {model!r} leaves floating-point range\n"


@pytest.mark.parametrize("argv, g, lam", [
    # c₀ overflows in the model's units, where the gap's start did and these
    # exited 1; each gap is solved at its own scale
    (["vacuum", "--g", "1", "--lambda", "1e308"], 1.0, 1e308),
    (["dwo", "--g=-4e-119", "--lambda", "2.9e307"], -4e-119, 2.9e307),
])
def test_gap_overflow_in_model_units_solves(capsys, argv, g, lam):
    assert main(argv + ["--no-meta"]) == 0
    out = json.loads(capsys.readouterr().out)
    omega = out["omega"] if argv[0] == "vacuum" else out["levels"][0]["omega"]
    root = sigma0_gap_root(4, g, lam, 0)
    assert abs(omega - root) <= 4 * sys.float_info.epsilon * root, (omega, root)


def test_internal_overflow_is_not_blamed_on_input(capsys):
    # I₀ ≈ Λ²/(16π²) overflows: the error names I₀, not the user's M²
    argv = ["qft", "gap", "--mass2", "1e-300", "--lambda", "1", "--cutoff", "1e300"]
    assert main(argv + ["--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: I_0(1e-300) at cutoff 1e+300 leaves floating-point range")


def test_heavy_shift_reports_heavy_mass_integrals(capsys):
    # M ≈ 1.1e10 ≫ Λ = 10: I₀ → Λ³/(12π²M), I₋₁ → Λ³/(12π²M³)
    doc = run_json(capsys, ["qft", "gap", "--mass2", "1", "--lambda", "0.1",
                            "--cutoff", "10", "--sigma", "1e10"])
    mass = math.sqrt(doc["M2"])
    assert doc["i0"] == pytest.approx(1e3 / (12.0 * math.pi**2 * mass), rel=1e-15)
    assert doc["i_minus1"] == pytest.approx(1e3 / (12.0 * math.pi**2 * mass**3), rel=1e-15)
    assert doc["i1"] == pytest.approx(1e3 * mass / (12.0 * math.pi**2), rel=1e-15)


def test_import_loads_no_numpy():
    code = ("import sys, gha\n"
            "print('numpy' in sys.modules, gha.tables._build_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_SRC_ENV).stdout
    assert out.split() == ["False", "0"]


_THEORY = ["--mass2", "1", "--lambda", "0.1", "--cutoff", "10"]
# gha modules every subcommand loads
_BASE = {"gha", "gha.cli", "gha.errors", "gha.hartree", "gha.vacuum"}
# every subcommand once: whether it loads numpy, and the gha modules it loads
_COMMANDS = [
    (["spectrum", "--g", "1", "--lambda", "1", "--levels", "0,3", "--order", "2"], False,
     _BASE | {"gha.hipt"}),
    (["dwo", "--lambda", "0.1", "--levels", "0,1"], False, _BASE),
    (["hipt", "--g", "1", "--lambda", "1", "--level", "2"], False, _BASE | {"gha.hipt"}),
    (["vacuum", "--g", "1", "--lambda", "1", "--scan", "100,1000,10000"], False, _BASE),
    (["qft", "gap", *_THEORY, "--sigma", "0.5"], False, _BASE | {"gha.qft"}),
    (["qft", "renorm", *_THEORY], False, _BASE | {"gha.qft"}),
    (["qft", "potential", *_THEORY], False, _BASE | {"gha.qft"}),
    (["qft", "static", "--mr", "1", "--r", "0.5,2"], False, _BASE | {"gha.qft"}),
    (["qft", "integrals", "--mass2", "1", "--cutoff", "10"], False, _BASE | {"gha.qft"}),
    # the diagonalizing commands do load it, so this guard can fail
    (["oracle", "--g", "1", "--lambda", "1"], True, _BASE | {"gha.oracle"}),
    (["table", "1", "--compare"], True,
     _BASE | {"gha.hipt", "gha.oracle", "gha.tables"}),
    (["spectrum", "--g", "1", "--lambda", "1", "--levels", "0,3"], False, _BASE),
    (["table", "1"], False, _BASE | {"gha.hipt", "gha.oracle", "gha.tables"}),
]


def _loaded_modules(code, *args):
    """Run code in a fresh interpreter: the lines it printed, whether numpy
    was loaded when it ended, and the gha modules that were."""
    code += ("\nprint('numpy' in sys.modules, "
             "*(m for m in sys.modules if m == 'gha' or m.startswith('gha.')))")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, env=_SRC_ENV, timeout=120).stdout
    *printed, last = out.splitlines()
    numpy, *modules = last.split()
    return printed, numpy == "True", set(modules)


def test_import_loads_no_submodule():
    assert _loaded_modules("import sys, gha") == ([], False, {"gha"})


# ids name each row by its index and its numpy column
@pytest.mark.parametrize("argv, loads_numpy, modules", _COMMANDS,
                         ids=[f"argv{i}-{row[1]}" for i, row in enumerate(_COMMANDS)])
def test_only_diagonalizing_commands_load_numpy(argv, loads_numpy, modules):
    code = ("import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from gha.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = main(json.loads(sys.argv[1]))\n"
            "print(code)")
    assert _loaded_modules(code, json.dumps(argv + ["--no-meta"])) == (["0"], loads_numpy,
                                                                        modules)


def _table(fmt, out):
    """Header and rows of CSV or markdown output."""
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(out)))
        return lines[0], lines[1:]
    lines = [[cell.strip() for cell in line[1:-1].split("|")] for line in out.splitlines()]
    assert lines[1] == ["---"] * len(lines[0])
    return lines[0], lines[2:]


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


# below λ_c each dwo level carries a list of branches, which stays out of the columns
@pytest.mark.parametrize("argv", [argv for argv, *_ in _COMMANDS]
                         + [["dwo", "--lambda", "0.085", "--levels", "0,1"]])
def test_csv_and_md_tabulate_the_json_rows(capsys, argv):
    doc = run_json(capsys, argv)
    lists = [v for v in doc.values() if isinstance(v, list)]
    # a one-row command tabulates its own top-level fields
    rows = lists[0] if lists else [{k: v for k, v in doc.items() if k != "command"}]
    if "summary" in doc:  # table --compare leads every flat row with the table id
        rows = [{"table": doc["table"], **row} for row in rows]
    columns = [k for k, v in rows[0].items() if not isinstance(v, (list, dict))]
    assert main(argv + ["--format", "csv"]) == 0
    header, body = _table("csv", capsys.readouterr().out)
    assert header == columns
    assert body == [[_csv_cell(row.get(k)) for k in columns] for row in rows]
    assert main(argv + ["--format", "md"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(rows) + 2


# every numeric flag draws a log-uniform magnitude in [1e-300, 1e300] of
# either sign; integer flags also draw small integers, which parse
_reals = st.builds(lambda sign, exp: repr(sign * 10.0**exp),
                   st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0))
_ints = st.one_of(st.integers(-2, 40).map(str), _reals)
_int_lists = st.lists(st.integers(-1, 40), min_size=1, max_size=3).map(
    lambda ns: ",".join(map(str, ns))) | _reals
_real_lists = st.lists(_reals, min_size=1, max_size=3).map(",".join)
_powers = st.sampled_from(["4", "6", "8"])
# OscillatorModel alone refuses the other powers (exit 2)
_any_powers = _powers | st.sampled_from(["2", "10", "-4"])


def _flags(**draws):
    # --flag=value, because argparse reads a separate "-1e+300" as an option
    return st.fixed_dictionaries(draws).map(
        lambda d: [f"--{flag.replace('_', '-')}={v}" for flag, v in d.items()])


_THEORY_DRAWS = {"mass2": _reals, "lambda": _reals, "cutoff": _reals}
_FUZZ_ARGV = st.tuples(st.one_of(
    st.tuples(st.just(["spectrum"]), _flags(power=_any_powers, g=_reals, **{"lambda": _reals},
                                            levels=_int_lists, order=st.sampled_from(["0", "2"]))),
    st.tuples(st.just(["dwo"]), _flags(g=_reals, levels=_int_lists, **{"lambda": _reals})),
    st.tuples(st.just(["hipt"]), _flags(power=_any_powers, g=_reals, level=_ints, **{"lambda": _reals})),
    st.tuples(st.just(["vacuum"]), _flags(omega=_reals)),
    st.tuples(st.just(["vacuum"]), _flags(power=_any_powers, g=_reals, level=_ints,
                                          scan=_real_lists, **{"lambda": _reals})),
    st.tuples(st.just(["qft", "renorm"]), _flags(**_THEORY_DRAWS)),
    st.tuples(st.just(["qft", "gap"]), _flags(sigma=_reals, **_THEORY_DRAWS)),
    st.tuples(st.just(["qft", "potential"]),
              _flags(sigma_max=_reals, points=st.integers(2, 6).map(str), **_THEORY_DRAWS)),
    st.tuples(st.just(["qft", "static"]), _flags(mr=_reals, r=_real_lists)),
    st.tuples(st.just(["qft", "static"]), _flags(r=_real_lists, **_THEORY_DRAWS)),
    st.tuples(st.just(["qft", "integrals"]),
              _flags(mass2=_reals, cutoff=_reals, orders=_int_lists)),
), st.sampled_from(["json", "csv", "md"])).map(
    lambda draw: draw[0][0] + draw[0][1] + [f"--format={draw[1]}"])


def _run_clean(argv):
    """Exit code and stdout of main(argv + ["--no-meta"]); no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["--no-meta"])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _assert_clean_exit(argv):
    code, out = _run_clean(argv)
    fmt = next((a[len("--format="):] for a in argv if a.startswith("--format=")), "json")
    if code != 0:
        assert out == "", argv
    elif fmt == "json":
        json.loads(out, parse_constant=pytest.fail)
    else:
        header, rows = _table(fmt, out)
        assert header and rows and all(len(row) == len(header) for row in rows), argv
        assert not any(cell.lstrip("-") in ("nan", "inf") for row in rows for cell in row), argv


@settings(max_examples=250, deadline=None)
@given(_FUZZ_ARGV)
# λ_c = (−2g/3)^{3/2}/(3p) overflows
@example(["dwo", "--g=-1e300", "--lambda=1"])
# σ² overflows although 12λσ² does not
@example(["qft", "gap", "--mass2=1", "--lambda=1e-299", "--cutoff=1", "--sigma=1e200"])
def test_fuzzed_flags_exit_cleanly(argv):
    # the numpy-bound oracle and table commands have their own fuzz below
    _assert_clean_exit(argv)


_TINY = 2.2250738585072014e-308  # smallest normal float


@st.composite
def _static_pairs(draw):
    """(m_R, r) with log₁₀ m_R, log₁₀ r in [−300, 300] and m_R r in 1e-320…1e4."""
    product = draw(st.floats(-320.0, 4.0))
    r = draw(st.floats(max(-300.0, product - 300.0), min(300.0, product + 300.0)))
    return repr(10.0 ** (product - r)), repr(10.0**r)


@settings(max_examples=300, deadline=None)
@given(_static_pairs())
def test_fuzzed_static_potential_matches_mpmath(pair):
    mr, r = pair
    code, out = _run_clean(["qft", "static", f"--mr={mr}", f"--r={r}"])
    with mp.workdps(30):
        x = mp.mpf(mr) * mp.mpf(r)
        want = x * mp.besselk(1, x) / (4 * mp.pi**2 * mp.mpf(r) ** 2)
    if want > sys.float_info.max:
        assert code == 1, pair
        return
    assert code == 0, pair
    got = json.loads(out)["rows"][0]["U"]
    if want < _TINY:
        assert got < _TINY, pair
    else:  # within the rounding of x = m_R r, of ln r and of the K₁ sum
        tol = 1e-15 + 4.4e-16 * (float(x) + 2.0 * abs(math.log(float(r))))
        assert abs(got - want) <= tol * want, pair


_specials = st.sampled_from(["nan", "inf", "-inf"])
_ORACLE_ARGV = _flags(
    power=_powers, g=_reals | _specials, **{"lambda": _reals | _specials},
    nmax=st.integers(-5, 60).map(str),
    tol=st.builds(lambda exp: repr(10.0**exp), st.floats(-300.0, 300.0)) | _specials,
).map(lambda flags: ["oracle"] + flags)


@settings(max_examples=400, deadline=None)
@given(_ORACLE_ARGV)
def test_fuzzed_oracle_exits_cleanly(argv):
    # a 256-state budget keeps each draw to a few small eigensolves; past it
    # the oracle raises BudgetExceeded (exit 1) as it does past 4096, and a
    # rounding floor at tol raises NonConvergence (exit 1)
    with mock.patch.object(gha.oracle, "_MAX_DIMENSION", 256):
        _assert_clean_exit(argv)


_TABLE_ARGV = st.tuples(st.sampled_from(["1", "2", "3", "4"]), _reals | _specials).map(
    lambda draw: ["table", draw[0], "--compare", f"--tol={draw[1]}"])


@settings(max_examples=100, deadline=None)
@given(_TABLE_ARGV)
def test_fuzzed_table_exits_cleanly(argv):
    # a failed comparison (exit 1) still prints its report; a numerical
    # failure (exit 1) and a usage error (exit 2) print nothing
    code, out = _run_clean(argv)
    if code == 2:
        assert out == "", argv
    elif code == 0 or out:
        doc = json.loads(out, parse_constant=pytest.fail)
        assert (doc["summary"]["failures"] > 0) == (code == 1), argv
