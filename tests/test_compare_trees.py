"""The parent-against-change harness `tools/compare_trees.py`."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "compare_trees.py"
SRC = ROOT / "src"


def compare(parent, change):
    proc = subprocess.run([sys.executable, "-B", str(SCRIPT), str(parent), str(change),
                           "--draws", "60"], capture_output=True, text=True, timeout=300)
    total = re.search(r"^total mismatches: (\d+)$", proc.stdout, re.M)
    assert total, proc.stdout + proc.stderr
    return proc.returncode, int(total.group(1)), proc.stdout


HARTREE_PROBES = ("hartree.solve_level", "hipt.second_order", "hartree.critical_coupling")
QFT_PROBES = ("qft.solve_mass_gap", "qft.renormalized", "qft.effective_potential")
# the probes that certify levels, on normal-range draws and on doublets
LEVEL_PROBES = ("oracle.converged_levels", "oracle.converged_levels.doublets")
MATRIX_PROBES = ("oracle.hamiltonian_matrix",)
ORACLE_PROBES = LEVEL_PROBES + MATRIX_PROBES
PROBES = HARTREE_PROBES + QFT_PROBES + ORACLE_PROBES
# draws per seed at --draws 60: 60 whole-range and 30 normal-range ones, the
# oracle's minimum of 20 for each level probe, and one matrix build per
# dimension 1..140
DRAWS = dict.fromkeys(PROBES, 90) | dict.fromkeys(LEVEL_PROBES, 20) | {
    "oracle.hamiltonian_matrix": 140}


def perturbed_tree(tmp_path, module, old, new):
    """A copy of the source tree with one line of one module replaced."""
    shutil.copytree(SRC / "gha", tmp_path / "gha",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "gha" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def rows_of(out):
    """Per probe, the (mismatches, class, message, value) counts of each seed."""
    rows = {}
    for name, draws, *counts in re.findall(
            r"^([\w.]+) +\d+ +(\d+) +(\d+) +(\d+) +(\d+) +(\d+) +\w+ +\w+$", out, re.M):
        assert int(draws) == DRAWS[name], out
        rows.setdefault(name, []).append([int(count) for count in counts])
    return rows


def test_a_tree_against_itself_has_no_mismatch():
    code, total, out = compare(SRC, SRC)
    assert (code, total) == (0, 0), out
    assert "examples of" not in out, out
    # every probe names a function that the tree has
    assert "skipped" not in out, out
    assert sorted(rows_of(out)) == sorted(PROBES), out
    for name in PROBES:
        rows = re.findall(rf"^{re.escape(name)} +(\d+) +{DRAWS[name]} +0 +0 +0 +0 +(\w+) +(\w+)$",
                          out, re.M)
        assert [seed for seed, _, _ in rows] == ["16", "99", "7"], out
        assert all(a == b for _, a, b in rows), out


def test_a_perturbed_qft_constant_shows_in_the_qft_probes_alone(tmp_path):
    change = perturbed_tree(tmp_path, "qft.py", "_FOUR_PI2 = 4.0 * math.pi * math.pi\n",
                            "_FOUR_PI2 = 4.0000001 * math.pi * math.pi\n")
    code, total, out = compare(SRC, change)
    assert code == 1 and total > 0, out
    rows = rows_of(out)
    assert all(bad == 0 for name in HARTREE_PROBES + ORACLE_PROBES
               for bad, *_ in rows[name]), out
    # 1/(4π²) scales every cutoff integral, so all three probes move values
    for name in QFT_PROBES:
        assert sum(value for *_, value in rows[name]) > 0, (name, out)
        assert f"examples of {name}, value mismatches:" in out, out
    assert "examples of hartree" not in out and "examples of hipt" not in out, out
    assert "examples of oracle" not in out, out


def test_a_perturbed_oracle_constant_shows_in_the_oracle_probe_alone(tmp_path):
    change = perturbed_tree(tmp_path, "oracle.py", "_EPSILON = sys.float_info.epsilon\n",
                            "_EPSILON = 1.0000001 * sys.float_info.epsilon\n")
    code, total, out = compare(SRC, change)
    assert code == 1 and total > 0, out
    rows = rows_of(out)
    # the rounding floor is part of every bound, so every draw of both level
    # probes moves a value, and nothing that does not certify a level moves
    for name in LEVEL_PROBES:
        assert rows[name] == [[20, 0, 0, 20]] * 3, out
        assert f"examples of {name}, value mismatches:" in out, out
    assert all(bad == 0 for name in HARTREE_PROBES + QFT_PROBES + MATRIX_PROBES
               for bad, *_ in rows[name]), out
    assert re.findall(r"^examples of ([\w.]+)", out, re.M) == list(LEVEL_PROBES), out


def test_a_perturbed_matrix_level_shows_in_the_oracle_probes_alone(tmp_path):
    change = perturbed_tree(tmp_path, "oracle.py", "np.arange(n_dim) + 0.5\n",
                            "np.arange(n_dim) + 0.5000001\n")
    code, total, out = compare(SRC, change)
    assert code == 1 and total > 0, out
    rows = rows_of(out)
    # every diagonal element moves, at every dimension and frequency
    assert rows["oracle.hamiltonian_matrix"] == [[140, 0, 0, 140]] * 3, out
    assert sum(bad for bad, *_ in rows["oracle.converged_levels"]) > 0, out
    assert all(bad == 0 for name in HARTREE_PROBES + QFT_PROBES for bad, *_ in rows[name]), out
    assert "examples of oracle.hamiltonian_matrix, value mismatches:" in out, out


def test_a_perturbed_constant_shows_as_mismatches(tmp_path):
    change = perturbed_tree(tmp_path, "hartree.py", "return n + 0.5\n", "return n + 0.5000001\n")
    code, total, out = compare(SRC, change)
    assert code == 1 and total > 0, out
    # each mismatch changes the class, only the message or only the value
    rows = re.findall(r"^[\w.]+ +\d+ +\d+ +(\d+) +(\d+) +(\d+) +(\d+) +\w+ +\w+$", out, re.M)
    assert len(rows) == 27, out
    split = [[int(count) for count in row] for row in rows]
    assert all(bad == sum(kinds) for bad, *kinds in split), out
    assert sum(bad for bad, *_ in split) == total, out
    # ξ moves every solved value
    assert sum(value for *_, value in split) > 0, out
    # up to three example draws per function and kind of mismatch, each with
    # its (power, g, λ, n) and both trees' outcomes
    names = re.findall(r"^([\w.]+) +\d+ +\d+ ", out, re.M)
    blocks = re.findall(r"^examples of ([\w.]+), (\w+) mismatches:\n((?:  .*\n)+)", out, re.M)
    shown = {(name, kind): body for name, kind, body in blocks}
    assert len(shown) == len(blocks), out
    for row, name in enumerate(names[::3]):
        counts = [sum(split[3 * row + seed][1 + kind] for seed in range(3)) for kind in range(3)]
        for kind, count in zip(("class", "message", "value"), counts):
            body = shown.get((name, kind), "")
            draws = re.findall(r"^  seed (\d+) draw (\d+): \(([468]), (\S+), (\S+), (\d+)\)\n"
                               r"    parent: (.+)\n    change: (.+)$", body, re.M)
            assert len(draws) == min(count, 3), (name, kind, out)
            assert body.count("\n") == 3 * len(draws), (name, kind, out)
            assert all(parent != change for *_, parent, change in draws), out
    assert ("hartree.solve_level", "value") in shown, out
