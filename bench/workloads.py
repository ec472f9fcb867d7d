"""Seeded inputs, op execution and output checks for the gha benchmark.

Each workload is an endless stream of decks.  A deck is a fixed multiset of
op kinds, shuffled by the seed, whose continuous parameters are also drawn
from the seed.  Fixing the multiset keeps the share of each op kind the same
on every seed, so the mean cost per op does not wander with the draws.  Every
deck holds an odd multiple of 5 ops, so that over whole decks the median and
the 90th percentile sit half a deck-share inside one op kind rather than on
the edge between two kinds; otherwise they would jump between the latencies
of two kinds from seed to seed.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED_TABLES = BENCH / "expected_tables.json"

# The paper's tables span levels 0-40 and couplings 0.1-2000; the draws keep
# the levels and add about a decade of margin on the couplings.
LEVELS = (0, 40)
COUPLINGS = (1e-2, 1e4)
# field-theory points: bare mass^2, coupling, cutoff, shifts and m_R r
FIELD_M2 = (0.1, 10.0)
FIELD_LAMBDA = (1e-3, 1.0)
FIELD_CUTOFF = (10.0, 1e3)
FIELD_SIGMA = (0.0, 2.0)
FIELD_MR_R = (0.05, 20.0)

# sweep: 19 level ops and 6 field-theory points, i.e. about three of four
# ops are level ops.  Each kind forms a tight latency cluster, in cost order
# field < quartic < sextic < octic on the seed code.  The shares put the
# median mid-way into the quartic ops (ranks 24-68%) and p90 mid-way into the
# octic ones (80-100%), away from the gaps between clusters, where a burst of
# machine slowness would move a percentile by a whole cluster.
SWEEP_DECK = ((("level", 4, 1.0),) * 7 + (("level", 4, -1.0),) * 4
              + (("level", 6, 1.0),) * 3 + (("level", 8, 1.0),) * 5
              + (("field",),) * 6)
# replay: every table in every deck.  On the seed code the tables cost, in
# order, 2 < 3 < 1 ~ 4; five each of tables 2 and 3 put the median mid-way
# into the table-3 ops (ranks 33-67%) and p90 into the table-1/4 ops
# (67-100%), away from the gaps between clusters.
REPLAY_DECK = (2,) * 5 + (3,) * 5 + (1,) * 3 + (4,) * 2
# cli: every subcommand once (one vacuum call takes both the level path and
# --scan) and each of the four tables once
CLI_DECK = ("spectrum0", "spectrum2", "dwo", "hipt", "oracle", "vacuum",
            "qft_gap", "qft_renorm", "qft_potential", "qft_static",
            "qft_integrals", 1, 2, 3, 4)
DECKS = {"cli": CLI_DECK, "replay": REPLAY_DECK, "sweep": SWEEP_DECK}
WORKLOADS = tuple(DECKS)

GAP_RESIDUAL_TOL = 1e-9      # relative to hartree.gap_residual_scale
FIRST_ORDER_TOL = 1e-9       # |<n|lam H'|n>| relative to max(1, |E|)
MASS_GAP_TOL = 1e-10         # relative to M^2
POTENTIAL_RTOL = 1e-12       # U(sigma) against its terms on the gap solution
TABLE_VALUE_RTOL = 1e-6      # replayed cells against the recorded values


def _loguniform(rng, bounds):
    lo, hi = bounds
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _fmt(x):
    return repr(float(x))


def _level_spec(rng, power, g):
    return {"kind": "level", "power": power, "g": g,
            "lam": _loguniform(rng, COUPLINGS), "n": rng.randint(*LEVELS)}


def _field_spec(rng):
    return {"kind": "field", "m2": _loguniform(rng, FIELD_M2),
            "lam": _loguniform(rng, FIELD_LAMBDA),
            "cutoff": _loguniform(rng, FIELD_CUTOFF),
            "sigmas": [rng.uniform(*FIELD_SIGMA) for _ in range(3)],
            "mr_r": _loguniform(rng, FIELD_MR_R)}


_MODEL_KEYS = ["command", "model", "levels"]
_LEVEL_KEYS = ["n", "phase", "omega", "sigma", "e0"]


def _cli_spec(rng, kind):
    """argv of one `gha` call plus what its JSON output must contain."""
    power = rng.choice((4, 6, 8))
    lam = _fmt(_loguniform(rng, COUPLINGS))
    levels = sorted(rng.sample(range(LEVELS[0], LEVELS[1] + 1), 3))
    level_arg = ",".join(map(str, levels))
    theory = ["--mass2", _fmt(_loguniform(rng, FIELD_M2)),
              "--lambda", _fmt(_loguniform(rng, FIELD_LAMBDA)),
              "--cutoff", _fmt(_loguniform(rng, FIELD_CUTOFF))]
    if kind == "spectrum0" or kind == "spectrum2":
        order = kind[-1]
        argv = ["spectrum", "--power", str(power), "--g", "1", "--lambda", lam,
                "--levels", level_arg, "--order", order]
        rows = _LEVEL_KEYS + (["delta_e2", "e2"] if order == "2" else [])
        spec = {"keys": _MODEL_KEYS, "rows": ["levels", len(levels), rows]}
    elif kind == "dwo":
        argv = ["dwo", "--lambda", lam, "--levels", level_arg]
        spec = {"keys": _MODEL_KEYS + ["well_depth", "lambda_c"],
                "rows": ["levels", len(levels), _LEVEL_KEYS[:4] + ["e_raw", "e_reported"]]}
    elif kind == "hipt":
        argv = ["hipt", "--power", str(power), "--g", "1", "--lambda", lam,
                "--level", str(levels[0])]
        spec = {"keys": ["command", "model", "n", "e0", "delta_e2", "e2",
                         "contributions"]}
    elif kind == "oracle":
        argv = ["oracle", "--power", str(power), "--g", "1", "--lambda", lam,
                "--nmax", str(levels[0])]
        spec = {"keys": _MODEL_KEYS + ["dimension"],
                "rows": ["levels", levels[0] + 1, ["n", "energy", "convergence_error"]]}
    elif kind == "vacuum":
        scan = sorted(_fmt(_loguniform(rng, (1e2, 1e5))) for _ in range(3))
        argv = ["vacuum", "--power", str(power), "--g", "1", "--lambda", lam,
                "--level", str(levels[0]), "--scan", ",".join(scan)]
        spec = {"keys": ["command", "model", "n", "omega", "alpha", "n0", "u",
                         "slope"],
                "rows": ["scan", 3, ["lambda", "n0"]]}
    elif kind == "qft_gap":
        argv = ["qft", "gap", *theory, "--sigma", _fmt(rng.uniform(*FIELD_SIGMA))]
        spec = {"keys": ["command", "theory", "sigma", "M2", "i0", "i1",
                         "i_minus1", "residual"]}
    elif kind == "qft_renorm":
        argv = ["qft", "renorm", *theory]
        spec = {"keys": ["command", "theory", "M2_bar", "mR2", "lambdaR", "ratio"]}
    elif kind == "qft_potential":
        points = rng.randint(11, 31)
        argv = ["qft", "potential", *theory, "--points", str(points),
                "--sigma-max", _fmt(rng.uniform(0.5, FIELD_SIGMA[1]))]
        spec = {"keys": ["command", "theory", "rows"],
                "rows": ["rows", points, ["sigma", "U"]]}
    elif kind == "qft_static":
        rs = sorted(_fmt(_loguniform(rng, FIELD_MR_R)) for _ in range(3))
        argv = ["qft", "static", "--mr", "1", "--r", ",".join(rs)]
        spec = {"keys": ["command", "mR", "rows"], "rows": ["rows", 3, ["r", "U"]]}
    elif kind == "qft_integrals":
        argv = ["qft", "integrals", theory[0], theory[1], theory[4], theory[5]]
        spec = {"keys": ["command", "mass2", "cutoff", "rows"],
                "rows": ["rows", 3, ["n", "value"]]}
    else:
        argv = ["table", str(kind), "--compare"]
        spec = {"keys": ["table", "rows", "summary"], "table": kind}
        kind = "table"
    spec.update(kind="cli", command=kind, argv=argv + ["--no-meta"])
    return spec


def decks(workload: str, seed: int, stream: str = "run"):
    """Endless, seed-determined stream of decks (lists of op specs).

    `stream` names an independent stream of the same seed; the warm-up draws
    from its own stream so that the measured ops do not depend on how many
    ops the warm-up took.
    """
    rng = random.Random(f"gha-bench:{workload}:{seed}:{stream}")
    while True:
        kinds = list(DECKS[workload])
        rng.shuffle(kinds)
        if workload == "replay":
            yield [{"kind": "table", "table": kind} for kind in kinds]
        elif workload == "sweep":
            yield [_level_spec(rng, *kind[1:]) if kind[0] == "level"
                   else _field_spec(rng) for kind in kinds]
        else:
            yield [_cli_spec(rng, kind) for kind in kinds]


def first_ops(workload: str, seed: int, count: int, stream: str = "run"):
    """The first `count` ops of a stream (count a multiple of the deck size)."""
    ops, source = [], decks(workload, seed, stream)
    while len(ops) < count:
        ops.extend(next(source))
    return ops[:count]


def cli_env():
    """Environment of a `gha` process: src on PYTHONPATH, GHA_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "GHA_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _json_finite(node):
    if isinstance(node, dict):
        return all(_json_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_json_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


@dataclass
class CliOutput:
    returncode: int
    stdout: str


class Runner:
    """Executes op specs against the package under src and checks outputs.

    Library functions are always looked up on their module at call time, so
    the tracer's wrappers see every call the benchmark makes.
    """

    def __init__(self):
        from gha import cli, hartree, hipt, ladder, qft, tables
        self.cli, self.hartree, self.hipt = cli, hartree, hipt
        self.ladder, self.qft, self.tables = ladder, qft, tables
        with open(EXPECTED_TABLES) as fh:
            self.expected = {int(k): v for k, v in json.load(fh).items()}
        self.env = cli_env()

    # -- execution ---------------------------------------------------------

    def run(self, spec):
        kind = spec["kind"]
        if kind == "table":
            return self.tables.run_table(spec["table"])
        if kind == "level":
            model = self.hartree.OscillatorModel(spec["power"], spec["g"], spec["lam"])
            return (self.hartree.solve_level(model, spec["n"]),
                    self.hipt.second_order(model, spec["n"]))
        if kind == "field":
            qft = self.qft
            theory = qft.FieldTheory(spec["m2"], spec["lam"], spec["cutoff"])
            ren = qft.renormalized(theory)
            potentials = [qft.effective_potential(theory, s) for s in spec["sigmas"]]
            m_r = math.sqrt(ren.mR2)
            return ren, potentials, qft.static_potential(spec["mr_r"] / m_r, m_r)
        return self.run_process(spec["argv"])

    def run_process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "gha.cli", *argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=150)
        return CliOutput(proc.returncode, proc.stdout)

    def run_inprocess(self, argv):
        """`gha.cli.main(argv)` in this process with its output captured."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return CliOutput(code, out.getvalue())

    # -- output checks: None when the output is right, else the reason ------

    def check(self, spec, output):
        kind = spec["kind"]
        if kind == "table":
            return self._check_report(spec["table"], output.ok,
                                      [(r.provenance, r.lam, r.n, r.passed,
                                        r.disputed, r.computed)
                                       for r in output.rows])
        if kind == "level":
            return self._check_level(spec, *output)
        if kind == "field":
            return self._check_field(spec, *output)
        return self._check_cli(spec, output)

    def _check_report(self, table_id, ok, rows):
        if not ok:
            return f"table {table_id}: report not ok"
        expected = self.expected[table_id]
        if len(rows) != len(expected):
            return f"table {table_id}: {len(rows)} rows, expected {len(expected)}"
        for got, want in zip(rows, expected):
            if list(got[:5]) != want[:5]:
                return f"table {table_id}: row {got[:5]} differs from {want[:5]}"
            if not abs(got[5] - want[5]) <= TABLE_VALUE_RTOL * abs(want[5]):
                return f"table {table_id}: {got[:3]} computed {got[5]!r}, recorded {want[5]!r}"
        return None

    def _check_level(self, spec, sol, rep):
        h = self.hartree
        model = h.OscillatorModel(spec["power"], spec["g"], spec["lam"])
        n = spec["n"]
        values = [sol.omega, sol.sigma, sol.A, sol.B, sol.C, sol.h0, sol.energy,
                  rep.e0, rep.delta_e2, rep.e2]
        values += [v for c in rep.contributions for v in (c.numerator, c.denominator)]
        if not _finite(*values):
            return f"non-finite value in level {n} of {model}"
        scale = h.gap_residual_scale(model, n, sol.phase)
        gap, shift = h.general_gap_residuals(model, n, sol.omega, sol.sigma)
        if not (abs(gap) <= GAP_RESIDUAL_TOL * scale
                and abs(shift) <= GAP_RESIDUAL_TOL * scale):
            return f"gap residuals ({gap:.3e}, {shift:.3e}) against scale {scale:.3e}"
        h_prime = self.hipt.build_h_prime(model, sol)
        first = model.lam * self.ladder.matrix_element(h_prime, n, n)
        if not abs(first) <= FIRST_ORDER_TOL * max(1.0, abs(sol.energy)):
            return f"first-order term {first:.3e} does not vanish"
        if rep.e0 != sol.energy or rep.n != n:
            return "second_order is not built on the level's own solution"
        return None

    def _check_field(self, spec, ren, potentials, static):
        qft = self.qft
        theory = qft.FieldTheory(spec["m2"], spec["lam"], spec["cutoff"])
        if not _finite(ren.mR2, ren.lambdaR, static, *potentials):
            return f"non-finite field-theory value for {theory}"
        # m_R^2 = M-bar^2 solves the sigma = 0 gap equation itself
        states = [(0.0, ren.mR2)]
        for s, u in zip(spec["sigmas"], potentials):
            st = qft.solve_mass_gap(theory, s)
            terms = (st.i1, -3.0 * theory.lam * st.i0 * st.i0,
                     0.5 * theory.m2 * s * s, theory.lam * s ** 4)
            want = sum(terms)
            if not abs(u - want) <= POTENTIAL_RTOL * sum(map(abs, terms)):
                return f"U({s}) = {u!r}, gap state gives {want!r}"
            states.append((s, st.M2))
        for s, m2 in states:
            i0 = qft.stevenson(0, m2, theory.cutoff)
            residual = m2 - theory.m2 - 12.0 * theory.lam * (s * s + i0)
            if not abs(residual) <= MASS_GAP_TOL * m2:
                return f"mass-gap residual {residual:.3e} at sigma={s}, M2={m2!r}"
        if not static > 0.0:
            return f"static potential {static!r} is not positive"
        return None

    def _check_cli(self, spec, out):
        if out.returncode != 0:
            return f"exit code {out.returncode} for {' '.join(spec['argv'])}"
        try:
            payload = json.loads(out.stdout)
        except ValueError as exc:
            return f"unparsable output of {spec['argv'][0]}: {exc}"
        missing = [k for k in spec["keys"] if k not in payload]
        if missing:
            return f"{spec['command']}: missing keys {missing}"
        if not _json_finite(payload):
            return f"{spec['command']}: non-finite value in output"
        if "rows" in spec:
            name, count, keys = spec["rows"]
            rows = payload[name]
            if len(rows) != count or any(k not in r for r in rows for k in keys):
                return f"{spec['command']}: {name} lack {count} rows with keys {keys}"
        if "table" in spec:
            rows = [(r["provenance"], r["lambda"], r["n"], r["pass"],
                     r["disputed"], r["computed"]) for r in payload["rows"]]
            return self._check_report(spec["table"],
                                      payload["summary"]["failures"] == 0, rows)
        return None
