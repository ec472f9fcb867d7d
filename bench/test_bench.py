"""Self-tests of the benchmark: seeded inputs, output checks, the tracer and
the reference scale.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DECKS, WORKLOADS, CliOutput  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    return workloads.Runner()


def _kind(spec):
    if spec["kind"] == "level":
        return ("level", spec["power"], spec["g"])
    if spec["kind"] == "field":
        return ("field",)
    return spec["table"] if "table" in spec else spec["command"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    size = 2 * len(DECKS[workload])
    first = workloads.first_ops(workload, 7, size)
    assert first == workloads.first_ops(workload, 7, size)
    assert json.loads(json.dumps(first)) == first  # plain data a child can take
    assert first != workloads.first_ops(workload, 8, size)
    assert first != workloads.first_ops(workload, 7, size, stream="warmup")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_deck_holds_the_fixed_multiset(workload):
    deck = DECKS[workload]
    assert len(deck) % 5 == 0 and len(deck) % 2 == 1
    source = workloads.decks(workload, 3)
    for _ in range(3):
        assert Counter(map(_kind, next(source))) == Counter(deck)


def test_cli_deck_covers_every_subcommand(runner):
    parser = runner.cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    qft = next(a for a in sub.choices["qft"]._actions if a.dest == "qft_command")
    commands = {" ".join(s["argv"][:2]) if s["argv"][0] == "qft" else s["argv"][0]
                for s in workloads.first_ops("cli", 5, 15)}
    assert commands == (set(sub.choices) - {"qft"}) | {f"qft {q}" for q in qft.choices}


def test_level_check_rejects_wrong_values(runner):
    spec = {"kind": "level", "power": 6, "g": 1.0, "lam": 3.0, "n": 5}
    sol, rep = runner.run(spec)
    assert runner.check(spec, (sol, rep)) is None
    bad_omega = dataclasses.replace(sol, omega=sol.omega * (1 + 1e-6))
    assert "gap residual" in runner.check(spec, (bad_omega, rep))
    bad_c = dataclasses.replace(sol, C=sol.C + 1e-6 * abs(sol.energy) / spec["lam"])
    assert "first-order" in runner.check(spec, (bad_c, rep))
    nan = dataclasses.replace(rep, e2=float("nan"))
    assert "non-finite" in runner.check(spec, (sol, nan))


def test_field_check_rejects_wrong_values(runner):
    spec = {"kind": "field", "m2": 1.0, "lam": 0.1, "cutoff": 10.0,
            "sigmas": [0.3, 1.0, 1.7], "mr_r": 0.5}
    ren, potentials, static = runner.run(spec)
    assert runner.check(spec, (ren, potentials, static)) is None
    bad = dataclasses.replace(ren, mR2=ren.mR2 * (1 + 1e-8))
    assert "mass-gap residual" in runner.check(spec, (bad, potentials, static))
    assert "U(" in runner.check(spec, (ren, [potentials[0] * 1.001, *potentials[1:]], static))
    assert "static" in runner.check(spec, (ren, potentials, -static))


def test_replay_check_rejects_a_changed_verdict_or_value(runner):
    spec = {"kind": "table", "table": 2}
    report = runner.run(spec)
    assert runner.check(spec, report) is None
    rows = list(report.rows)
    flipped = [dataclasses.replace(rows[0], passed=not rows[0].passed)] + rows[1:]
    assert "differs" in runner.check(spec, dataclasses.replace(report, rows=tuple(flipped)))
    moved = [dataclasses.replace(rows[0], computed=rows[0].computed * (1 + 1e-5))] + rows[1:]
    assert "recorded" in runner.check(spec, dataclasses.replace(report, rows=tuple(moved)))
    assert "not ok" in runner.check(spec, dataclasses.replace(report, failures=1))


def test_cli_check_rejects_bad_exit_or_output(runner):
    spec = next(s for s in workloads.first_ops("cli", 5, 15) if s["command"] == "spectrum2")
    out = runner.run_inprocess(spec["argv"])
    assert runner.check(spec, out) is None
    assert "exit code" in runner.check(spec, CliOutput(1, out.stdout))
    payload = json.loads(out.stdout)
    del payload["levels"][0]["e2"]
    assert "rows" in runner.check(spec, CliOutput(0, json.dumps(payload)))
    del payload["model"]
    assert "missing keys" in runner.check(spec, CliOutput(0, json.dumps(payload)))
    assert "unparsable" in runner.check(spec, CliOutput(0, "error"))


def test_tracer_wraps_names_in_every_importing_module(runner):
    tracer = spans.Tracer()
    original = runner.hartree.solve_level
    with tracer.installed():
        wrapped = runner.hartree.solve_level
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (runner.tables, runner.hipt, runner.cli,
                       sys.modules["gha.oracle"], sys.modules["gha.vacuum"],
                       sys.modules["gha"]):
            assert module.solve_level is wrapped
    assert runner.hartree.solve_level is original and runner.tables.solve_level is original


def test_tracer_attributes_pool_spans_and_accounts_for_the_op(runner):
    tracer = spans.Tracer()
    with tracer.installed():
        runner.run({"kind": "table", "table": 2})  # outside an op: not recorded
        assert tracer.drain() == []
        with tracer.op():
            runner.run({"kind": "table", "table": 2})
        with tracer.op():
            runner.run({"kind": "level", "power": 4, "g": 1.0, "lam": 1.0, "n": 3})
    recorded = tracer.drain()
    roots = [s for s in recorded if s[spans.PARENT] is None]
    assert [s[spans.NAME] for s in roots] == ["op", "op"]
    stats = spans.summarise(recorded)
    table_op = roots[0]
    pool = {s[spans.THREAD] for s in recorded} - {table_op[spans.THREAD]}
    assert max(stats["tables.run_table"]["workers"]) == max(1, len(pool))
    # spans on pool threads hang below run_table, not below nothing
    for s in recorded:
        if s[spans.THREAD] in pool:
            parent = s[spans.PARENT]
            while parent[spans.NAME] != "tables.run_table":
                parent = parent[spans.PARENT]
    level_op = roots[1]
    within = [s for s in recorded if s[spans.START] >= level_op[spans.START]
              and s[spans.END] <= level_op[spans.END]]
    self_sum = sum(v["self_ms"] for v in spans.summarise(within).values())
    assert self_sum == pytest.approx(1e3 * (level_op[spans.END] - level_op[spans.START]),
                                     rel=1e-9)


def test_reference_scale_cancels_machine_speed():
    scale = reference.Scale("inprocess")
    nominal = scale.nominal
    # an op that took 3 ms while the reference took twice its nominal time
    # reports as 1.5 ms; at the nominal speed it reports as measured
    assert 3e-3 * scale.factor(2 * nominal, 2 * nominal) == pytest.approx(1.5e-3)
    assert scale.factor(nominal, nominal) == pytest.approx(1.0)
    assert scale.factor(0.5 * nominal, 1.5 * nominal) == pytest.approx(1.0)
    assert scale.mark() > 0 and len(scale.times) == 1


def test_reference_work_does_not_touch_the_package():
    code = ("import sys; sys.path.insert(0, 'bench'); import reference; "
            "reference.inprocess(); print(any(m == 'gha' or m.startswith('gha.') "
            "for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
