"""Benchmark-table regression harness: embedded data, comparison, rendering."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gha
from gha import hartree, oracle, tables
from gha.cli import main
from gha.errors import DomainError
from gha.tables import ComparisonReport, Provenance, reference_table, run_table


def find_cell(table, lam, n, prov):
    for c in table.cells:
        if c.lam == lam and c.n == n and c.provenance is prov:
            return c
    raise AssertionError(f"no cell ({lam}, {n}, {prov})")


def find_row(report, lam, n, prov):
    for r in report.rows:
        if r.lam == lam and r.n == n and r.provenance == prov:
            return r
    raise AssertionError(f"no row ({lam}, {n}, {prov})")


def test_unknown_table_rejected():
    with pytest.raises(DomainError):
        reference_table(5)
    with pytest.raises(DomainError):
        run_table(0)


def test_table_metadata():
    t1, t2, t3, t4 = (reference_table(i) for i in (1, 2, 3, 4))
    assert (t1.power, t1.g, t1.convention) == (4, 1.0, "direct")
    assert (t2.power, t2.g, t2.convention) == (4, -1.0, "shifted")
    assert (t3.power, t3.g, t3.convention) == (6, 1.0, "doubled")
    assert (t4.power, t4.g, t4.convention) == (8, 1.0, "doubled")
    assert len(t1.cells) == 88
    assert len(t2.cells) == 60
    assert (len(t3.cells), len(t3.percent_cells)) == (96, 48)
    assert len(t4.cells) == 120


def test_known_digit_slips_are_marked():
    t1 = reference_table(1)
    assert find_cell(t1, 0.1, 10, Provenance.GHA).disputed
    assert find_cell(t1, 0.1, 10, Provenance.GHA).text == "17.2267"
    assert find_cell(t1, 0.1, 40, Provenance.EXTERNAL_REF).disputed
    assert not find_cell(t1, 1.0, 0, Provenance.GHA).disputed

    t4 = reference_table(4)
    slipped = find_cell(t4, 0.1, 11, Provenance.GHA)
    assert slipped.disputed and slipped.text == "824.24"

    t3 = reference_table(3)
    for beta in (0.2, 2.0, 10.0, 100.0, 400.0, 2000.0):
        assert find_cell(t3, beta, 17, Provenance.EXTERNAL_REF).disputed

    t2 = reference_table(2)
    assert find_cell(t2, 1.0, 1, Provenance.EXTERNAL_REF).disputed


def test_run_table_spot_values():
    r1 = run_table(1)
    assert find_row(r1, 1.0, 0, "GHA").computed == pytest.approx(0.8125, abs=1e-12)
    assert find_row(r1, 1.0, 0, "GHA").passed

    r2 = run_table(2)
    assert find_row(r2, 0.1, 1, "GHA").computed == pytest.approx(0.84303, abs=1e-5)

    r3 = run_table(3)
    assert find_row(r3, 0.2, 0, "GHA").computed == pytest.approx(1.19281, abs=1e-5)

    r4 = run_table(4)
    assert find_row(r4, 0.1, 0, "GHA").computed == pytest.approx(1.30053, abs=1e-5)


def test_all_tables_pass_at_design_tolerances():
    expected_disputed = {1: 3, 2: 10, 3: 54, 4: 2}
    for tid in (1, 2, 3, 4):
        report = run_table(tid)
        assert isinstance(report, ComparisonReport)
        assert report.ok, f"table {tid} failures: {report.failures}"
        s = report.summary()
        assert s["failures"] == 0
        assert s["disputed"] == expected_disputed[tid]
        assert s["cells"] == len(report.rows)
        assert 0.0 < s["max_rel_error"] < 2e-3


def test_disputed_rows_never_count():
    r1 = run_table(1)
    slip = find_row(r1, 0.1, 10, "GHA")
    assert slip.disputed and not slip.passed
    assert slip.rel_error > 2e-3
    # the headline error excludes the disputed cells entirely
    assert r1.max_rel_error < slip.rel_error
    assert r1.failures == 0


def test_percent_rows_are_informational():
    r3 = run_table(3)
    pct = [r for r in r3.rows if r.provenance == "PERCENT"]
    assert len(pct) == 48
    assert all(r.disputed and not r.passed for r in pct)
    assert all(r.computed >= 0.0 for r in pct)
    # each reads the report's GHA row and the quoted cell's printed value
    for r in pct:
        gha = find_row(r3, r.lam, r.n, "GHA").computed
        quoted = find_cell(reference_table(3), r.lam, r.n, Provenance.EXTERNAL_REF).reference
        assert r.computed == 100.0 * abs(gha - quoted) / abs(quoted)


def test_tolerance_overrides():
    tight = run_table(1, tol=1e-12)
    assert not tight.ok and tight.failures > 0
    assert run_table(1, tol=1.0).ok


def compare_output(capsys, table_id, *options):
    code = main(["table", str(table_id), "--compare", *options])
    assert code == 0
    return capsys.readouterr().out


def test_json_rendering(capsys):
    report = run_table(2)
    doc = json.loads(compare_output(capsys, 2))
    assert list(doc) == ["table", "rows", "summary", "meta"]
    assert doc["table"] == 2
    assert doc["meta"]["version"] == "0.1.0"
    assert doc["summary"] == report.summary()
    assert doc["summary"]["failures"] == 0
    assert len(doc["rows"]) == len(report.rows)
    first = doc["rows"][0]
    assert set(first) == {
        "lambda", "n", "provenance", "computed", "reference",
        "rel_error", "pass", "disputed",
    }
    # float round trip is exact because repr-precision survives json
    assert first["computed"] == report.rows[0].computed

    bare = json.loads(compare_output(capsys, 2, "--no-meta"))
    assert "meta" not in bare
    assert bare == {k: v for k, v in doc.items() if k != "meta"}


def test_csv_rendering(capsys):
    report = run_table(4)
    text = compare_output(capsys, 4, "--format", "csv")
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "table", "lambda", "n", "provenance", "computed", "reference",
        "rel_error", "pass", "disputed",
    ]
    assert len(rows) == 1 + len(report.rows)
    body = rows[1]
    assert body[0] == "4"
    assert float(body[4]) == report.rows[0].computed
    assert body[7] in ("true", "false")
    assert body[8] in ("true", "false")


def test_md_rendering(capsys):
    text = compare_output(capsys, 1, "--format", "md")
    lines = text.splitlines()
    assert lines[0] == ("| table | lambda | n | provenance | computed | reference "
                        "| rel_error | pass | disputed |")
    assert lines[1].startswith("| --- |")
    assert len(lines) == 2 + len(run_table(1).rows)
    assert text.endswith("\n")


def test_serial_runs_agree_and_threads_are_rejected():
    first, second = run_table(1), run_table(1, threads=1)
    assert first.rows == second.rows
    # one row per cell in embedded order, then the percent rows in theirs
    for table_id in (1, 2, 3, 4):
        table = reference_table(table_id)
        order = [(c.lam, c.n, c.provenance.value) for c in table.cells]
        order += [(p.lam, p.n, "PERCENT") for p in table.percent_cells]
        rows = first.rows if table_id == 1 else run_table(table_id).rows
        assert [(r.lam, r.n, r.provenance) for r in rows] == order
    with pytest.raises(DomainError):
        run_table(1, threads=2)


def test_import_loads_no_thread_pool():
    src = str(Path(gha.__file__).resolve().parents[1])
    code = "import sys, gha; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_each_column_solves_each_level_once(monkeypatch):
    solved, spectra = Counter(), Counter()
    real_solve, real_spectrum = hartree._solve_level, tables.converged_levels
    monkeypatch.setattr(hartree, "_solve_level",
                        lambda model, n, xi: solved.update([(model.lam, n)])
                        or real_solve(model, n, xi))
    monkeypatch.setattr(tables, "converged_levels",
                        lambda model, n_max, tol: spectra.update([(model.lam, n_max)])
                        or real_spectrum(model, n_max, tol))
    for table_id in (1, 2, 3, 4):
        solved.clear()
        spectra.clear()
        report = run_table(table_id)
        assert report.ok
        # the sextic table prints β = 2λ
        scale = 0.5 if table_id == 3 else 1.0
        # GHA cells, second-order neighbours and the oracle's n_max all share
        # one solve per (coupling, level)
        assert solved and set(solved.values()) == {1}
        assert {(scale * r.lam, r.n) for r in report.rows if r.provenance == "GHA"} <= set(solved)
        # one oracle spectrum per coupling with quoted cells, at its largest level
        top = {}
        for c in reference_table(table_id).cells:
            if c.provenance is Provenance.EXTERNAL_REF:
                top[scale * c.lam] = max(top.get(scale * c.lam, 0), c.n)
        assert spectra == Counter(top.items()), table_id


def test_oracle_dimension_of_each_column(monkeypatch):
    # the a priori dimension ⌊(3·n_max + 1)/2⌋ + 9k + 4, rounded up to even,
    # certifies each column's spectrum to the table tolerance with one matrix
    # build and one eigensolve; a rounding change in the oracle must not move it
    used, builds = {}, Counter()
    real_spectrum, real_build = tables.converged_levels, oracle.hamiltonian_matrix

    def spectrum(model, n_max, tol):
        estimate = real_spectrum(model, n_max, tol)
        used[model.lam] = estimate.dimension_used
        return estimate

    monkeypatch.setattr(tables, "converged_levels", spectrum)
    monkeypatch.setattr(oracle, "hamiltonian_matrix",
                        lambda model, basis: builds.update([model.lam])
                        or real_build(model, basis))
    dimension = {1: 82, 2: 38, 3: 58, 4: 62}
    for table_id in (1, 2, 3, 4):
        used.clear()
        builds.clear()
        run_table(table_id)
        scale = 0.5 if table_id == 3 else 1.0
        quoted = {c.lam for c in reference_table(table_id).cells
                  if c.provenance is Provenance.EXTERNAL_REF}
        # table 1 quotes levels up to 40, but only up to 4 at λ = 1000
        expected = {scale * lam: 28 if lam == 1000.0 else dimension[table_id]
                    for lam in quoted}
        assert used == expected, table_id
        assert builds == Counter(expected.keys()), table_id


# SHA-256 of `gha table N --compare --no-meta` where each cell took its model,
# tolerance and reference through per-run closures and Enum lookups
@pytest.mark.parametrize("table_id, fmt, digest", [
    (1, "json", "dcdf5340ff9948fa8d02a5168cf13670d601313e2ad6708f82a0042cb01e2841"),
    (1, "csv", "ed32dce9ca086d4212822f7c259a7e215c4253a345d568b703fd1032dc8a147c"),
    (1, "md", "995b4bd9360b49e47f49379b62d8eb5d6911067ad90eece03a47e5bdb6425523"),
    (2, "json", "21bfea660ce5a2f2d0de7f460e812334872bf83d37948c7674982781cd1f682a"),
    (2, "csv", "aee4b2359750d32686c8a0bbe6bab60cb948c09da02c95146554ec62464e6ce6"),
    (2, "md", "3ffb760bcb77cca92aa0cdb495e948337a18dfc10d3daa837bdc259f92a65d12"),
    (3, "json", "5f48125c26a735d1788d59178d2ab441f139b6859cba5c603bfd15834ba156a0"),
    (3, "csv", "c868347f9990bdc92759e414eb7288d241a2eaf664a2589620cf9d592d327478"),
    (3, "md", "27e249d97dda0765d73e335bcc20ffe69ee6de7c09257c8b260dfa7c449caaf7"),
    (4, "json", "0971ecb311ed0aa8b01d5e54b5aa3e0770daba7f787c6d45cd3347c7bbcf14d2"),
    (4, "csv", "a33ef8672604c42d9cd5a80cc921d8131e3da1d8c68421e088d9ca1cbd900c48"),
    (4, "md", "0c8493105c9bd884a1e86861de82113099ad364f0ae6e7cdc147b40f9c445a66"),
])
def test_replay_output_is_that_of_the_per_cell_replay(capsys, table_id, fmt, digest):
    out = compare_output(capsys, table_id, "--no-meta", "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_plan_is_built_on_the_first_run_alone():
    # the replay plan holds no model, so a second run solves afresh, and
    # reading a table builds no plan
    tables._plan.cache_clear()
    reference_table(1)
    assert tables._plan.cache_info().currsize == 0
    run_table(1)
    power, g, scale, columns, cells, percents = tables._plan(1)
    assert (power, g, scale, len(columns), len(cells), percents) == (4, 1.0, 1.0, 5, 88, ())
    assert tables._plan.cache_info()[:2] == (1, 1)
    leaves = [x for group in (columns, cells) for entry in group for x in entry]
    assert all(type(x) in (int, float, str, bool, type(None)) for x in leaves)
