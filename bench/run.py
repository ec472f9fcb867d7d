"""gha benchmark: seeded closed-loop workloads with output checks.

    python3 bench/run.py --workload {cli,replay,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from `src`.
One client runs one op at a time.  With --trace 0 the run measures the
end-to-end metrics with tracing off, each time scaled by a fixed reference
work timed around it (reference.py); with --trace 1 it alternates untraced and
traced passes over a fixed seeded op list and reports per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records the
environment and the sample counts.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
import spans
import workloads
from workloads import ROOT, SRC, WORKLOADS

# Unit of every metric this script reports; the first four are end to end.
UNITS = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
    "import.gha_ms": "ms", "import.numpy_ms": "ms",
    "cli.main_ms": "ms/op", "cli.startup_ms": "ms/op",
    "tables.run_table.ms": "ms/op", "tables.run_table.self_ms": "ms/op",
    "tables.workers": "count",
    "oracle.converged_levels.ms": "ms/op", "oracle.hamiltonian_matrix.calls": "calls/op",
    "oracle.hamiltonian_matrix.ms": "ms/op", "oracle.eigensolve_ms": "ms/op",
    "oracle.builds_per_call": "ratio", "oracle.dimension_max": "count",
    "ladder.matrix_element.calls": "calls/op", "ladder.matrix_element.ms": "ms/op",
    "ladder.field_power.calls": "calls/op", "ladder.field_power.ms": "ms/op",
    "hartree.solve_level.calls": "calls/op", "hartree.solve_level.ms": "ms/op",
    "hartree.solve_level.unique_ratio": "ratio", "hartree.solve_gap.ms": "ms/op",
    "hartree.hartree_coefficients.ms": "ms/op",
    "hipt.second_order.calls": "calls/op", "hipt.second_order.self_ms": "ms/op",
    "qft.solve_mass_gap.calls": "calls/op", "qft.solve_mass_gap.ms": "ms/op",
    "qft.bessel_k1.calls": "calls/op", "qft.bessel_k1.ms": "ms/op",
    **{f"{m}.self_ms": "ms/op" for m in ("cli", "tables", "oracle", "hartree", "hipt",
                                          "ladder", "qft", "vacuum", "op")},
    "trace.op_ms": "ms/op", "trace.accounted_pct": "%", "trace.concurrency": "ratio",
    "trace.overhead_pct": "%",
}

SETUP_REPEATS = 7        # fresh interpreters per run; setup_s is their median
IMPORT_REPEATS = 5       # `python -X importtime` runs in a traced run
MIN_OPS = 105            # p90 of 105 samples has ten samples beyond it
MAX_MEASURE_S = 150.0    # stop after the current deck even if MIN_OPS is unmet
# Warm-up: interpreter caches, the first LAPACK call and the page cache of the
# package files fill here.  cli ops are fresh processes and only need the
# files warm.
WARMUP_OPS = 3
WARMUP_S = {"cli": 0.0, "replay": 2.0, "sweep": 2.0}
# fixed op list of a traced pass: one deck, or 16 decks (400 ops) of sweep
TRACE_OPS = {"cli": 15, "replay": 15, "sweep": 400}

# A fresh interpreter imports gha and gets the workload's first op ready.
SETUP_CHILD = r"""
import json, sys
workload, spec = sys.argv[1], json.loads(sys.argv[2])
import gha
if workload == "cli":
    from gha import cli
    cli.build_parser().parse_args(spec["argv"])
elif workload == "replay":
    gha.reference_table(spec["table"])
elif spec["kind"] == "level":
    gha.OscillatorModel(spec["power"], spec["g"], spec["lam"])
else:
    gha.FieldTheory(spec["m2"], spec["lam"], spec["cutoff"])
print("ready", flush=True)
"""


def setup_seconds(workload, first_spec, scale):
    """Median time from spawning a fresh interpreter to its first op ready,
    scaled by the process reference (see reference.py); also the raw median."""
    def spawn():
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, workload,
                                 json.dumps(first_spec)],
                                cwd=ROOT, env=workloads.cli_env(), text=True,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with code {proc.returncode}")
        return elapsed

    spawn()  # the first spawn warms the file cache
    times, raw = [], []
    before = scale.mark()
    for _ in range(SETUP_REPEATS):
        elapsed = spawn()
        after = scale.mark()
        times.append(elapsed * scale.factor(before, after))
        raw.append(elapsed)
        before = after
    return statistics.median(times), statistics.median(raw)


def import_times():
    """Median cumulative import time of gha and of numpy, in ms."""
    gha_ms, numpy_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gha"],
                              cwd=ROOT, env=workloads.cli_env(), text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("import gha failed")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:
                    continue  # the header line
        gha_ms.append(cumulative["gha"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return statistics.median(gha_ms), statistics.median(numpy_ms)


def environment(runner):
    """Machine and library versions, and the workers run_table really used."""
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.op():
            runner.tables.run_table(2)
    stats = spans.summarise(tracer.drain())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
        "GHA_THREADS": os.environ.get("GHA_THREADS", "unset"),
        # when set, every gha process compiles the package from source
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "run_table_workers": max(stats["tables.run_table"]["workers"]),
    }


class Tally:
    """Attempted and failed ops; prints the first few failures to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, spec, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"op failed: {error} [{json.dumps(spec)}]", file=sys.stderr)
        return error is None


def verdict(runner, spec, output):
    """None if the op's output (or the exception it raised) is right."""
    if isinstance(output, Exception):
        return f"{type(output).__name__}: {output}"
    try:
        return runner.check(spec, output)
    except Exception as exc:  # a check that cannot run fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def run_op(run, spec):
    """(seconds, output or the exception raised) of one op."""
    t0 = time.perf_counter()
    try:
        output = run(spec)
    except Exception as exc:  # any library failure is a failed op, not a crash
        output = exc
    return time.perf_counter() - t0, output


def timed_op(runner, spec, tally, run=None):
    """(seconds, ok) of one checked op."""
    elapsed, output = run_op(run or runner.run, spec)
    return elapsed, tally.record(spec, verdict(runner, spec, output))


def warm_up(runner, workload, seed, tally):
    source = workloads.decks(workload, seed, stream="warmup")
    t0, done = time.perf_counter(), 0
    while done < WARMUP_OPS or time.perf_counter() - t0 < WARMUP_S[workload]:
        for spec in next(source):
            timed_op(runner, spec, tally)
            done += 1
            if done >= WARMUP_OPS and time.perf_counter() - t0 >= WARMUP_S[workload]:
                break
    return done


def reference_scale(workload):
    """The reference that tracks the speed of the workload's kind of op."""
    if workload == "cli":
        return reference.Scale("process", ROOT, workloads.cli_env())
    return reference.Scale("inprocess")


def measure(runner, workload, seed, seconds):
    """End-to-end metrics over whole decks of at least `seconds` seconds.

    Every time is scaled by the reference timed around it (reference.py);
    the info returned carries the raw medians next to the scaled ones.
    """
    first = workloads.first_ops(workload, seed, 1)[0]
    setup, setup_raw = setup_seconds(workload, first, reference.Scale(
        "process", ROOT, workloads.cli_env()))
    tally = Tally()
    warm = warm_up(runner, workload, seed, tally)
    scale = reference_scale(workload)
    latencies, raw, busy, raw_busy = [], [], 0.0, 0.0
    pending, since = [], 0.0  # ops timed since the last reference mark
    source = workloads.decks(workload, seed)
    before = scale.mark()
    t0 = time.perf_counter()
    while True:
        deck = next(source)
        for i, spec in enumerate(deck):
            elapsed, ok = timed_op(runner, spec, tally)
            pending.append((elapsed, ok))
            since += elapsed
            if since < scale.every and i < len(deck) - 1:
                continue
            after = scale.mark()
            factor = scale.factor(before, after)
            for elapsed, ok in pending:
                busy += elapsed * factor
                raw_busy += elapsed
                if ok:
                    latencies.append(1e3 * elapsed * factor)
                    raw.append(1e3 * elapsed)
            pending, since, before = [], 0.0, after
        wall = time.perf_counter() - t0
        done = len(latencies) >= MIN_OPS and wall >= seconds
        if done or wall >= MAX_MEASURE_S:
            break
    if len(latencies) < 2:
        raise RuntimeError("fewer than two ops succeeded")
    metrics = {
        "setup_s": setup,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "ops_per_s": len(latencies) / busy,
    }
    info = {"samples": len(latencies), "warmup_ops": warm,
            "measured_s": round(wall, 3), "setup_repeats": SETUP_REPEATS,
            "ops_attempted": tally.attempted, "ops_failed": tally.failed,
            "reference": {"marks": len(scale.times),
                          "median_s": statistics.median(scale.times),
                          "nominal_s": scale.nominal},
            "raw": {"setup_s": setup_raw, "op_ms_p50": statistics.median(raw),
                    "op_ms_p90": statistics.quantiles(raw, n=10)[8],
                    "ops_per_s": len(raw) / raw_busy}}
    return metrics, tally, info


def layer_metrics(stats, n_ops):
    """Per-op layer metrics of one traced pass."""
    def get(name, key="ms"):
        return stats[name][key] if name in stats else 0

    def per_op(name, key="ms"):
        return get(name, key) / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    level_keys = get("hartree.solve_level", "details") or []
    dims = get("oracle.hamiltonian_matrix", "details") or [0]
    workers = get("tables.run_table", "workers") or [0]
    m = {
        "cli.main_ms": per_op("cli.main"),
        "tables.run_table.ms": per_op("tables.run_table"),
        "tables.run_table.self_ms": per_op("tables.run_table", "self_ms"),
        "tables.workers": max(workers),
        "oracle.converged_levels.ms": per_op("oracle.converged_levels"),
        "oracle.hamiltonian_matrix.calls": per_op("oracle.hamiltonian_matrix", "calls"),
        "oracle.hamiltonian_matrix.ms": per_op("oracle.hamiltonian_matrix"),
        "oracle.eigensolve_ms": per_op("oracle.converged_levels", "self_ms"),
        "oracle.builds_per_call": ratio(get("oracle.hamiltonian_matrix", "calls"),
                                        get("oracle.converged_levels", "calls")),
        "oracle.dimension_max": max(dims),
        "hartree.solve_level.unique_ratio": ratio(len(set(level_keys)), len(level_keys)),
        "hipt.second_order.self_ms": per_op("hipt.second_order", "self_ms"),
    }
    for name in ("ladder.matrix_element", "ladder.field_power", "hartree.solve_level",
                 "qft.solve_mass_gap", "qft.bessel_k1"):
        m[f"{name}.calls"] = per_op(name, "calls")
        m[f"{name}.ms"] = per_op(name)
    m["hipt.second_order.calls"] = per_op("hipt.second_order", "calls")
    m["hartree.solve_gap.ms"] = per_op("hartree.solve_gap")
    m["hartree.hartree_coefficients.ms"] = per_op("hartree.hartree_coefficients")
    modules = {}
    for name, st in stats.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + st["self_ms"]
    for module in ("cli", "tables", "oracle", "hartree", "hipt", "ladder", "qft",
                   "vacuum", "op"):
        m[f"{module}.self_ms"] = modules.get(module, 0.0) / n_ops
    op_ms, op_self = get("op"), get("op", "self_ms")
    m["trace.op_ms"] = op_ms / n_ops
    m["trace.accounted_pct"] = 100.0 * ratio(op_ms - op_self, op_ms)
    m["trace.concurrency"] = ratio(sum(modules.values()) - op_self, op_ms - op_self)
    return m


def traced(runner, workload, seed, seconds, out_dir):
    """Per-layer metrics: median over traced passes of a fixed op list."""
    ops = workloads.first_ops(workload, seed, TRACE_OPS[workload])
    tally = Tally()
    warm_up(runner, workload, seed, tally)
    gha_ms, numpy_ms = import_times()
    if workload == "cli":
        def run_local(spec):
            return runner.run_inprocess(spec["argv"])
    else:
        run_local = runner.run
    tracer = spans.Tracer()
    passes, untraced_s, startup_ms = [], [], []
    t0 = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - t0 < seconds
                              and time.perf_counter() - t0 < MAX_MEASURE_S):
        busy = 0.0
        for spec in ops:
            if workload == "cli":
                wall, _ = timed_op(runner, spec, tally)
                main_s, _ = timed_op(runner, spec, tally, run=run_local)
                startup_ms.append(1e3 * (wall - main_s))
                busy += main_s
            else:
                busy += timed_op(runner, spec, tally)[0]
        untraced_s.append(busy)
        outputs = []
        with tracer.installed():
            for spec in ops:
                with tracer.op():
                    outputs.append(run_op(run_local, spec)[1])
        recorded = tracer.drain()
        for spec, output in zip(ops, outputs):
            tally.record(spec, verdict(runner, spec, output))
        if not passes:
            out_dir.mkdir(exist_ok=True)
            spans.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl.gz", recorded)
        passes.append(layer_metrics(spans.summarise(recorded), len(ops)))
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    traced_ms = statistics.median(p["trace.op_ms"] for p in passes)
    untraced_ms = 1e3 * statistics.median(untraced_s) / len(ops)
    metrics.update({
        "import.gha_ms": gha_ms, "import.numpy_ms": numpy_ms,
        "cli.startup_ms": statistics.median(startup_ms) if startup_ms else 0.0,
        "trace.overhead_pct": 100.0 * (traced_ms / untraced_ms - 1.0),
    })
    info = {"passes": len(passes), "ops_per_pass": len(ops),
            "untraced_op_ms": untraced_ms, "ops_attempted": tally.attempted,
            "ops_failed": tally.failed}
    return metrics, tally, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gha" / "__init__.py").is_file():
        print(f"error: no gha package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    gha_threads = os.environ.pop("GHA_THREADS", None)  # library defaults only
    sys.path.insert(0, str(SRC))
    runner = workloads.Runner()
    env = environment(runner)
    if gha_threads is not None:
        env["GHA_THREADS"] = f"removed (was {gha_threads!r})"
    if args.trace:
        metrics, tally, info = traced(runner, args.workload, args.seed, args.seconds,
                                      Path(__file__).resolve().parent / "out")
    else:
        metrics, tally, info = measure(runner, args.workload, args.seed, args.seconds)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env, **info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
