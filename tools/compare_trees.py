"""Compare the library outcomes of two `gha` source trees, draw by draw.

    python tools/compare_trees.py PARENT_SRC CHANGE_SRC [--draws N]

PARENT_SRC and CHANGE_SRC are directories that hold a `gha` package, for
example the `src` of two checkouts.  Each tree is imported in its own
subprocess, which evaluates the same seeded draws.  For each seed of 16, 99
and 7 there are N whole-range draws (power 4, 6 or 8, g = ±10^U(−320, 300),
λ = 10^U(−323, 300), n ≤ 40) and N // 2 normal-range draws (g = ±10^U(−3, 3),
λ = 10^U(−3, 3), n ≤ 40); N defaults to 40,000.

The Hartree probes solve the draw's model at level n, or take its well
depth.  `gap_residual_scale` takes the draw's model at level 10^n, so that
its c₀, which grows like λ·10^{n(k−1)} (λ·10^n on the broken cubic), passes
float range on some draws; its phase is AHO for g > 0, else DWO_SR for even
n and DWO_SSB for odd n.  The `gha.qft` probes, `solve_mass_gap`,
`renormalized` and `effective_potential`, take their field theory and shift
from the same draw (`field_point`): m² = |g|, the draw's λ, a cutoff Λ =
m·10^{(n−20)/2} and σ² = (power − 4)/4 · m²/λ.  So Λ/m runs from 1e-10,
where the cutoff integrals take their heavy-mass series, to 1e10, where
they take their closed forms; a third of the draws has σ = 0, and the
others have 12λσ² = 6m² or 12m².  Over the whole range I₀ is subnormal on
some draws and overflows on others.  `stevenson` takes the order n mod 3 − 1
at M² = m² and the same Λ, so it reaches the closed forms, the heavy-mass
series and overflow for each order.  `static_potential` takes r = |g| and
m_R = λ, and `vacuum_structure` takes ω = λ.  Over the whole range,
`classical_well_depth`, `gap_residual_scale`, `static_potential` and
`vacuum_structure` each reach both values and `NonFiniteValue`.

The oracle probe, `converged_levels`, has its own normal-range draws, max(20,
N // 100) per seed: power 4, 6 or 8 at g = 1 and the quartic well at g = −1,
λ = 10^U(−2, 4) and n_max ≤ 40, each solved at tol 1e-7.  Its outcome holds
the levels and the error bounds by `float.hex`, and the dimension used.  The
doublet probe, `converged_levels` again, has its own draws, as many: quartic
wells, g = −10^U(−1, 1), at the depth |g|³/λ² = 10^U(4.2, 4.45), where levels
2j and 2j + 1 form a tunnelling doublet narrower than its bounds, solved at
n_max = 3 and tol 1e-7, each in about 1–2 ms.

The matrix probe, `hamiltonian_matrix`, has its own draws too, max(140,
N // 20) per seed: power 4, 6 or 8, g = ±10^U(−3, 3), λ = 10^U(−3, 3) and the
dimension 1 + i mod 140 at draw i, so every dimension from 1 to 140 comes up.
Each draw builds both parity blocks at the basis frequencies 0.3, 1 and 2.7;
its outcome holds their shapes and a SHA-256 of their bytes.

Each probed function is called on a fresh model or theory for every draw, and
its outcome is the repr of its result, or its error class and message.  The
script prints, per function and seed, the number of draws whose outcomes
differ and a SHA-256 of each tree's outcomes in draw order.  It splits those
mismatches into draws whose outcome changes class (a value against an error,
or one error class against another), draws that change only an error
message, and draws that change only a value.  For each function and each of
those three kinds it then prints up to three example draws, (power, g, λ, n)
or, for the matrix probe, (power, g, λ, N), with both trees' outcomes, the
first in seed and draw order.  It names every probed function that is
missing from either tree and skips it, and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

SEEDS = (16, 99, 7)
POWERS = (4, 6, 8)
MAX_LEVEL = 40
# log10 ranges of |g| and λ: the whole float range, then the normal one
WHOLE_RANGE = ((-320.0, 300.0), (-323.0, 300.0))
NORMAL_RANGE = ((-3.0, 3.0), (-3.0, 3.0))
# the oracle probe: log10 range of λ, its tolerance, and its share of N
ORACLE_LAMBDA = (-2.0, 4.0)
ORACLE_TOL = 1e-7
ORACLE_SHARE, ORACLE_MIN = 100, 20
# the doublet probe: log10 ranges of |g| and of the depth |g|³/λ², and n_max
DOUBLET_G = (-1.0, 1.0)
DOUBLET_DEPTH = (4.2, 4.45)
DOUBLET_LEVELS = 3
# the matrix probe: its dimensions 1..MATRIX_DIMENSIONS, its basis
# frequencies, and its share of N
MATRIX_DIMENSIONS = 140
MATRIX_FREQUENCIES = (0.3, 1.0, 2.7)
MATRIX_SHARE = 20


def draws(seed: int, count: int):
    """(power, g, λ, n) of the whole-range then the normal-range draws."""
    rng = random.Random(seed)
    for (g_lo, g_hi), (l_lo, l_hi), size in ((*WHOLE_RANGE, count),
                                             (*NORMAL_RANGE, count // 2)):
        for _ in range(size):
            power = rng.choice(POWERS)
            g = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(g_lo, g_hi)
            yield power, g, 10.0 ** rng.uniform(l_lo, l_hi), rng.randint(0, MAX_LEVEL)


def oracle_draws(seed: int, count: int):
    """(power, g, λ, n_max) of the oracle probe's draws."""
    rng = random.Random(f"oracle:{seed}")
    for _ in range(max(ORACLE_MIN, count // ORACLE_SHARE)):
        power = rng.choice(POWERS)
        g = -1.0 if power == 4 and rng.random() < 0.5 else 1.0
        yield power, g, 10.0 ** rng.uniform(*ORACLE_LAMBDA), rng.randint(0, MAX_LEVEL)


def doublet_draws(seed: int, count: int):
    """(power, g, λ, n_max) of the doublet probe's draws."""
    rng = random.Random(f"doublet:{seed}")
    for _ in range(max(ORACLE_MIN, count // ORACLE_SHARE)):
        g = 10.0 ** rng.uniform(*DOUBLET_G)
        yield 4, -g, math.sqrt(g**3 / 10.0 ** rng.uniform(*DOUBLET_DEPTH)), DOUBLET_LEVELS


def matrix_draws(seed: int, count: int):
    """(power, g, λ, N) of the matrix probe's draws."""
    rng = random.Random(f"matrix:{seed}")
    (g_lo, g_hi), (l_lo, l_hi) = NORMAL_RANGE
    for index in range(max(MATRIX_DIMENSIONS, count // MATRIX_SHARE)):
        power = rng.choice(POWERS)
        g = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(g_lo, g_hi)
        yield power, g, 10.0 ** rng.uniform(l_lo, l_hi), 1 + index % MATRIX_DIMENSIONS


def _blocks(gha, power: int, g: float, lam: float, n_dim: int):
    """The shapes and a SHA-256 of the bytes of both parity blocks of H at
    each of the matrix probe's basis frequencies."""
    model = gha.hartree.OscillatorModel(power, g, lam)
    outcome = []
    for frequency in MATRIX_FREQUENCIES:
        blocks = gha.oracle.hamiltonian_matrix(
            model, gha.oracle._TruncatedBasis(n_dim, frequency))
        outcome.append(([block.shape for block in blocks], hashlib.sha256(
            b"".join(block.tobytes() for block in blocks)).hexdigest()))
    return outcome


def _spectrum(estimate):
    """The levels and bounds of an oracle estimate by float.hex, and its dimension."""
    return ([x.hex() for x in estimate.levels], estimate.dimension_used,
            [x.hex() for x in estimate.convergence_error])


def _levels(gha, power: int, g: float, lam: float, n_max: int):
    """The oracle's estimate of levels 0..n_max of one draw's model, by `_spectrum`."""
    return _spectrum(gha.oracle.converged_levels(
        gha.hartree.OscillatorModel(power, g, lam), n_max, ORACLE_TOL))


def _outcome(fn, *args):
    """(class, text) of one call: "value" and the repr of its result, or the
    error class and the class with its message."""
    try:
        return "value", repr(fn(*args))
    except Exception as exc:  # every error class is an outcome to compare
        name = type(exc).__name__
        return name, f"{name}: {exc}"


def _digest(text: str, size: int) -> str:
    return hashlib.blake2b(text.encode(), digest_size=size).hexdigest()


# per-draw digest widths in hex characters: the outcome and its class
OUTCOME_HEX, CLASS_HEX = 16, 8
VALUE_CLASS = _digest("value", CLASS_HEX // 2)


def field_point(power: int, g: float, lam: float, n: int):
    """(m², λ, Λ, σ) of the `gha.qft` probes from one (power, g, λ, n) draw."""
    m2 = abs(g)
    return m2, lam, math.sqrt(m2) * 10.0 ** ((n - 20) / 2), math.sqrt((power - 4) / 4 * m2 / lam)


def _residual_scale(gha, power: int, g: float, lam: float, n: int):
    """`gap_residual_scale` of one draw's model at level 10^n, in the phase
    that the draw picks."""
    phase = "AHO" if g > 0.0 else ("DWO_SR", "DWO_SSB")[n % 2]
    return gha.hartree.gap_residual_scale(gha.hartree.OscillatorModel(power, g, lam), 10**n,
                                          gha.hartree.Phase[phase])


def _integral(gha, power: int, g: float, lam: float, n: int):
    """`stevenson` of order n mod 3 − 1 at the M² and Λ of `field_point`."""
    m2, _, cutoff, _ = field_point(power, g, lam, n)
    return gha.qft.stevenson(n % 3 - 1, m2, cutoff)


def _field(gha, draw):
    """The field theory and the shift σ of the `gha.qft` probes at one draw."""
    m2, lam, cutoff, sigma = field_point(*draw)
    return gha.qft.FieldTheory(m2, lam, cutoff), sigma


# qualified name -> result of one draw, from the tree and the draw; a third
# part names a second probe of the same function, on draws of its own
PROBES = {
    "hartree.solve_level": lambda gha, power, g, lam, n:
        gha.hartree.solve_level(gha.hartree.OscillatorModel(power, g, lam), n),
    "hipt.second_order": lambda gha, power, g, lam, n:
        gha.hipt.second_order(gha.hartree.OscillatorModel(power, g, lam), n),
    "hartree.critical_coupling": lambda gha, power, g, lam, n:
        gha.hartree.critical_coupling(n + 0.5, gha.hartree.OscillatorModel(power, g, lam).g),
    "hartree.classical_well_depth": lambda gha, power, g, lam, n:
        gha.hartree.classical_well_depth(gha.hartree.OscillatorModel(power, g, lam)),
    "hartree.gap_residual_scale": _residual_scale,
    "qft.solve_mass_gap": lambda gha, *draw: gha.qft.solve_mass_gap(*_field(gha, draw)),
    "qft.renormalized": lambda gha, *draw: gha.qft.renormalized(_field(gha, draw)[0]),
    "qft.effective_potential": lambda gha, *draw: gha.qft.effective_potential(*_field(gha, draw)),
    "qft.stevenson": _integral,
    "qft.static_potential": lambda gha, power, g, lam, n: gha.qft.static_potential(abs(g), lam),
    "vacuum.vacuum_structure": lambda gha, power, g, lam, n: gha.vacuum.vacuum_structure(lam),
    "oracle.converged_levels": _levels,
    "oracle.hamiltonian_matrix": _blocks,
    "oracle.converged_levels.doublets": _levels,
}
# qualified name -> its draws, where they are not `draws`
DRAWS = {"oracle.converged_levels": oracle_draws, "oracle.hamiltonian_matrix": matrix_draws,
         "oracle.converged_levels.doublets": doublet_draws}


KINDS = ("class", "message", "value")
# example draws printed per function and kind of mismatch
EXAMPLES = 3


def _present(gha, name: str) -> bool:
    module, attr = name.split(".")[:2]
    return hasattr(getattr(gha, module), attr)


def _import_tree(src: str):
    sys.path.insert(0, src)
    import gha
    import gha.hartree
    import gha.hipt
    import gha.oracle
    import gha.qft
    import gha.vacuum

    home = Path(gha.__file__).resolve().parent
    if home.parent != Path(src).resolve():
        raise SystemExit(f"imported gha from {home}, not from {src}")
    return gha


def _probe(gha, name: str, power: int, g: float, lam: float, n: int):
    return _outcome(PROBES[name], gha, power, g, lam, n)


def _draws(name: str, seed: int, count: int):
    return DRAWS.get(name, draws)(seed, count)


def _draw(name: str, seed: int, count: int, index: int):
    return next(itertools.islice(_draws(name, seed, count), index, None))


def worker(src: str, job: dict) -> dict:
    """The answer of the tree at src to a job read from stdin: the probed
    names that it has, where the job names none; else, per name, the outcome
    texts of the job's example draws, where it has them, or per seed [SHA-256
    of the outcomes, per-draw digests of the outcomes and of their classes,
    in hex] over all draws."""
    gha = _import_tree(src)
    if job.get("names") is None:
        return {"present": [name for name in PROBES if _present(gha, name)]}
    results = {}
    for name in job["names"]:
        if "examples" in job:
            results[name] = [_probe(gha, name, *_draw(name, seed, job["draws"], index))[1]
                             for seed, index in job["examples"][name]]
            continue
        per_seed = {}
        for seed in SEEDS:
            whole, digests, classes = hashlib.sha256(), [], []
            for draw in _draws(name, seed, job["draws"]):
                kind, text = _probe(gha, name, *draw)
                whole.update(text.encode() + b"\n")
                digests.append(_digest(text, OUTCOME_HEX // 2))
                classes.append(_digest(kind, CLASS_HEX // 2))
            per_seed[str(seed)] = [whole.hexdigest(), "".join(digests), "".join(classes)]
        results[name] = per_seed
    return results


def _run_workers(trees, job: dict):
    """Each tree's worker answer to the job, each tree in its own process."""
    # one BLAS thread per worker: the workers run side by side, and OpenBLAS
    # threads spinning against each other made a run several times slower
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    procs = [subprocess.Popen(
        [sys.executable, "-B", str(Path(__file__).resolve()), "--worker", src],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env) for src in trees]
    # the job fits in the pipe, so every worker starts before any is read
    for proc in procs:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
    outs = []
    for src, proc in zip(trees, procs):
        out = proc.stdout.read()
        if proc.wait():
            raise SystemExit(f"worker {src} exited {proc.returncode}")
        outs.append(json.loads(out))
    return outs


def _chunks(text: str, width: int):
    return [text[i:i + width] for i in range(0, len(text), width)]


def _print_examples(trees, count: int, picked) -> None:
    """Print both outcomes of the picked draws, {name: {kind: [(seed,
    index)]}}, for each function and kind of mismatch."""
    names = [name for name in picked if any(picked[name].values())]
    if not names:
        return
    examples = {name: [pick for kind in KINDS for pick in picked[name][kind]]
                for name in names}
    left, right = _run_workers(trees, {"draws": count, "names": names,
                                       "examples": examples})
    for name in names:
        # the outcomes come back in the order of the job's examples
        outcomes = iter(zip(left[name], right[name]))
        for kind in KINDS:
            if picked[name][kind]:
                print(f"examples of {name}, {kind} mismatches:")
            for seed, index in picked[name][kind]:
                parent, change = next(outcomes)
                print(f"  seed {seed} draw {index}: {_draw(name, seed, count, index)}\n"
                      f"    parent: {parent}\n    change: {change}")


def compare(parent: str, change: str, count: int) -> int:
    """Print the comparison table and the example draws; the total number
    of mismatching draws."""
    trees = (parent, change)
    present = [set(found["present"]) for found in _run_workers(trees, {})]
    names = [name for name in PROBES if name in present[0] & present[1]]
    skipped = [name for name in PROBES if name not in names]
    left, right = _run_workers(trees, {"draws": count, "names": names})
    print(f"{'function':32} {'seed':>4} {'draws':>7} {'mismatches':>10} {'class':>6} "
          f"{'message':>7} {'value':>6}  {'parent sha256':16}  {'change sha256':16}")
    total = 0
    picked = {name: {kind: [] for kind in KINDS} for name in names}
    for name in names:
        for seed in SEEDS:
            (hash_a, dig_a, cls_a), (hash_b, dig_b, cls_b) = (left[name][str(seed)],
                                                              right[name][str(seed)])
            n_draws = len(dig_a) // OUTCOME_HEX
            counts = dict.fromkeys(KINDS, 0)
            for index, (out_a, out_b, kind_a, kind_b) in enumerate(zip(
                    _chunks(dig_a, OUTCOME_HEX), _chunks(dig_b, OUTCOME_HEX),
                    _chunks(cls_a, CLASS_HEX), _chunks(cls_b, CLASS_HEX))):
                if out_a != out_b:
                    kind = ("class" if kind_a != kind_b
                            else "value" if kind_a == VALUE_CLASS else "message")
                    counts[kind] += 1
                    if len(picked[name][kind]) < EXAMPLES:
                        picked[name][kind].append((seed, index))
            bad = sum(counts.values())
            total += bad
            print(f"{name:32} {seed:>4} {n_draws:>7} {bad:>10} "
                  f"{counts['class']:>6} {counts['message']:>7} {counts['value']:>6}  "
                  f"{hash_a[:16]}  {hash_b[:16]}")
    for name in skipped:
        where = [tree for tree, p in zip(("parent", "change"), present) if name not in p]
        print(f"skipped {name}: not in the {' and '.join(where)} tree")
    print(f"total mismatches: {total}")
    _print_examples(trees, count, picked)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="SRC",
                        help="PARENT_SRC and CHANGE_SRC, each a directory holding gha")
    parser.add_argument("--draws", type=int, default=40_000,
                        help="whole-range draws per seed (default 40000)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(worker(args.worker, json.load(sys.stdin)), sys.stdout)
        return 0
    if len(args.trees) != 2 or not args.draws > 0:
        parser.error("give PARENT_SRC and CHANGE_SRC, and a positive --draws")
    return 1 if compare(*args.trees, args.draws) else 0


if __name__ == "__main__":
    sys.exit(main())
