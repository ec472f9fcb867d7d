"""Compare the library outcomes of two `gha` source trees, draw by draw.

    python tools/compare_trees.py PARENT_SRC CHANGE_SRC [--draws N]

PARENT_SRC and CHANGE_SRC are directories that hold a `gha` package, for
example the `src` of two checkouts.  Each tree is imported in its own
subprocess, which evaluates the same seeded draws.  For each seed of 16, 99
and 7 there are N whole-range draws (power 4, 6 or 8, g = ±10^U(−320, 300),
λ = 10^U(−323, 300), n ≤ 40) and N // 2 normal-range draws (g = ±10^U(−3, 3),
λ = 10^U(−3, 3), n ≤ 40); N defaults to 40,000.

Each probed function is called on a fresh model for every draw, and its
outcome is the repr of its result, or its error class and message.  The
script prints, per function and seed, the number of draws whose outcomes
differ and a SHA-256 of each tree's outcomes in draw order.  It splits those
mismatches into draws whose outcome changes class (a value against an error,
or one error class against another), draws that change only an error
message, and draws that change only a value.  It names every probed function
that is missing from either tree and skips it, and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def draws(seed: int, count: int):
    """(power, g, λ, n) of the whole-range then the normal-range draws."""
    rng = random.Random(seed)
    for (g_lo, g_hi), (l_lo, l_hi), size in ((*WHOLE_RANGE, count),
                                             (*NORMAL_RANGE, count // 2)):
        for _ in range(size):
            power = rng.choice(POWERS)
            g = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(g_lo, g_hi)
            yield power, g, 10.0 ** rng.uniform(l_lo, l_hi), rng.randint(0, MAX_LEVEL)


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


# qualified name -> outcome of one draw; the tree, a model factory and n
PROBES = {
    "hartree.solve_level": lambda gha, model, n: gha.hartree.solve_level(model(), n),
    "hipt.second_order": lambda gha, model, n: gha.hipt.second_order(model(), n),
    "hartree.critical_coupling":
        lambda gha, model, n: gha.hartree.critical_coupling(n + 0.5, model().g),
}


def _present(gha, name: str) -> bool:
    module, attr = name.split(".")
    return hasattr(getattr(gha, module), attr)


def _import_tree(src: str):
    sys.path.insert(0, src)
    import gha
    import gha.hartree
    import gha.hipt

    home = Path(gha.__file__).resolve().parent
    if home.parent != Path(src).resolve():
        raise SystemExit(f"imported gha from {home}, not from {src}")
    return gha


def worker(src: str, names, count: int) -> dict:
    """{name: {seed: [SHA-256 of the outcomes, per-draw digests of the
    outcomes and of their classes, in hex]}}."""
    gha = _import_tree(src)
    if names is None:
        return {"present": [name for name in PROBES if _present(gha, name)]}
    results = {}
    for name in names:
        probe = PROBES[name]
        per_seed = {}
        for seed in SEEDS:
            whole, digests, classes = hashlib.sha256(), [], []
            for power, g, lam, n in draws(seed, count):
                def model(power=power, g=g, lam=lam):
                    return gha.hartree.OscillatorModel(power, g, lam)
                kind, text = _outcome(probe, gha, model, n)
                whole.update(text.encode() + b"\n")
                digests.append(_digest(text, OUTCOME_HEX // 2))
                classes.append(_digest(kind, CLASS_HEX // 2))
            per_seed[str(seed)] = [whole.hexdigest(), "".join(digests), "".join(classes)]
        results[name] = per_seed
    return results


def _spawn(src: str, args) -> subprocess.Popen:
    command = [sys.executable, "-B", str(Path(__file__).resolve()), "--worker", src, *args]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def _collect(procs):
    outs = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"worker {proc.args[4]} exited {proc.returncode}")
        outs.append(json.loads(out))
    return outs


def _chunks(text: str, width: int):
    return [text[i:i + width] for i in range(0, len(text), width)]


def compare(parent: str, change: str, count: int) -> int:
    """Print the comparison table; the total number of mismatching draws."""
    found = _collect([_spawn(src, ["--list"]) for src in (parent, change)])
    present = [set(f["present"]) for f in found]
    names = [name for name in PROBES if name in present[0] & present[1]]
    skipped = [name for name in PROBES if name not in names]
    args = ["--draws", str(count), "--names", *names]
    left, right = _collect([_spawn(src, args) for src in (parent, change)])
    print(f"{'function':28} {'seed':>4} {'draws':>7} {'mismatches':>10} {'class':>6} "
          f"{'message':>7} {'value':>6}  {'parent sha256':16}  {'change sha256':16}")
    total = 0
    for name in names:
        for seed in SEEDS:
            (hash_a, dig_a, cls_a), (hash_b, dig_b, cls_b) = (left[name][str(seed)],
                                                              right[name][str(seed)])
            n_draws = len(dig_a) // OUTCOME_HEX
            counts = {"class": 0, "message": 0, "value": 0}
            for out_a, out_b, kind_a, kind_b in zip(
                    _chunks(dig_a, OUTCOME_HEX), _chunks(dig_b, OUTCOME_HEX),
                    _chunks(cls_a, CLASS_HEX), _chunks(cls_b, CLASS_HEX)):
                if out_a != out_b:
                    counts["class" if kind_a != kind_b
                           else "value" if kind_a == VALUE_CLASS else "message"] += 1
            bad = sum(counts.values())
            total += bad
            print(f"{name:28} {seed:>4} {n_draws:>7} {bad:>10} "
                  f"{counts['class']:>6} {counts['message']:>7} {counts['value']:>6}  "
                  f"{hash_a[:16]}  {hash_b[:16]}")
    for name in skipped:
        where = [tree for tree, p in zip(("parent", "change"), present) if name not in p]
        print(f"skipped {name}: not in the {' and '.join(where)} tree")
    print(f"total mismatches: {total}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="SRC",
                        help="PARENT_SRC and CHANGE_SRC, each a directory holding gha")
    parser.add_argument("--draws", type=int, default=40_000,
                        help="whole-range draws per seed (default 40000)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--list", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--names", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(worker(args.worker, None if args.list else args.names, args.draws),
                  sys.stdout)
        return 0
    if len(args.trees) != 2 or not args.draws > 0:
        parser.error("give PARENT_SRC and CHANGE_SRC, and a positive --draws")
    return 1 if compare(*args.trees, args.draws) else 0


if __name__ == "__main__":
    sys.exit(main())
