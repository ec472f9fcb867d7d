"""Command-line interface.

Subcommands: spectrum, dwo, hipt, oracle, vacuum, qft (renorm, gap,
potential, static, integrals) and table.  Output is JSON (default), CSV or a
markdown table via --format.  JSON carries a meta block with version and
timestamp unless --no-meta is given; CSV and markdown are always meta-free,
so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__, qft
from .errors import DomainError, GhaError, NonFiniteValue
from .hartree import (OscillatorModel, classical_well_depth,
                      critical_coupling, solve_level)
from .hipt import second_order
from .oracle import converged_levels
from .tables import reference_table, run_table
from .vacuum import loglog_slope, strong_coupling_scaling, vacuum_structure


def _meta():
    return {"version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reals, got {text!r}")


def _csv_text(fields, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    for row in rows:
        out = []
        for f in fields:
            v = row.get(f)
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append(str(v).lower())
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(v)
        writer.writerow(out)
    return buf.getvalue()


def _md_text(fields, rows):
    lines = ["| " + " | ".join(fields) + " |",
             "| " + " | ".join("---" for _ in fields) + " |"]
    for row in rows:
        cells = []
        for f in fields:
            v = row.get(f)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(f"{v:.10g}")
            else:
                cells.append(str(v))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _emit(args, payload, fields, rows):
    """Print the output; raise NonFiniteValue before printing NaN or infinity."""
    name = payload.get("command", args.command)
    if args.format == "json":
        if not args.no_meta:
            payload = {**payload, "meta": _meta()}
        try:
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError:
            raise NonFiniteValue(f"{name} output holds NaN or infinity") from None
        print(text)
        return 0
    for row in rows:
        for f in fields:
            v = row.get(f)
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteValue(f"{name} output has {f} = {v}")
    if args.format == "csv":
        print(_csv_text(fields, rows), end="")
    else:
        print(_md_text(fields, rows), end="")
    return 0


def _model_args(p, g_default=None):
    p.add_argument("--power", type=int, default=4, choices=(4, 6, 8))
    if g_default is None:
        p.add_argument("--g", type=float, required=True)
    else:
        p.add_argument("--g", type=float, default=g_default)
    p.add_argument("--lambda", dest="lam", type=float, required=True)


def _cmd_spectrum(args):
    model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
    rows = []
    for n in args.levels:
        sol = solve_level(model, n)
        row = {"n": n, "phase": sol.phase.value, "omega": sol.omega,
               "sigma": sol.sigma, "e0": sol.energy}
        if args.order == 2:
            rep = second_order(model, n, even_only=args.even_only)
            row["delta_e2"] = rep.delta_e2
            row["e2"] = rep.e2
        rows.append(row)
    fields = ["n", "phase", "omega", "sigma", "e0"]
    if args.order == 2:
        fields += ["delta_e2", "e2"]
    payload = {"command": "spectrum",
               "model": {"power": model.power, "g": model.g,
                         "lambda": model.lam},
               "levels": rows}
    return _emit(args, payload, fields, rows)


def _cmd_dwo(args):
    model = OscillatorModel(power=4, g=args.g, lam=args.lam)
    depth = classical_well_depth(model)
    lam_c = critical_coupling(0.5, model.g) if model.g < 0 else None
    rows = []
    for n in args.levels:
        sol = solve_level(model, n)
        row = {"n": n, "phase": sol.phase.value, "omega": sol.omega,
               "sigma": sol.sigma, "e_raw": sol.energy,
               "e_reported": sol.energy + depth}
        if args.format == "json" and sol.branches:
            row["branches"] = [{"phase": b.phase.value, "omega": b.omega,
                                "sigma": b.sigma, "energy": b.energy}
                               for b in sol.branches]
        rows.append(row)
    fields = ["n", "phase", "omega", "sigma", "e_raw", "e_reported"]
    payload = {"command": "dwo",
               "model": {"power": 4, "g": model.g, "lambda": model.lam},
               "well_depth": depth, "lambda_c": lam_c, "levels": rows}
    return _emit(args, payload, fields, rows)


def _cmd_hipt(args):
    model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
    rep = second_order(model, args.level, even_only=args.even_only)
    rows = [{"m": c.m, "numerator": c.numerator, "denominator": c.denominator}
            for c in rep.contributions]
    payload = {"command": "hipt",
               "model": {"power": model.power, "g": model.g,
                         "lambda": model.lam},
               "n": rep.n, "even_only": args.even_only, "e0": rep.e0,
               "delta_e2": rep.delta_e2, "e2": rep.e2,
               "contributions": rows}
    return _emit(args, payload, ["m", "numerator", "denominator"], rows)


def _cmd_oracle(args):
    model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
    est = converged_levels(model, args.nmax, tol=args.tol)
    rows = [{"n": i, "energy": e, "convergence_error": d}
            for i, (e, d) in enumerate(zip(est.levels, est.convergence_error))]
    payload = {"command": "oracle",
               "model": {"power": model.power, "g": model.g,
                         "lambda": model.lam},
               "n_max": args.nmax, "tol": args.tol,
               "dimension": est.dimension_used, "levels": rows}
    return _emit(args, payload, ["n", "energy", "convergence_error"], rows)


def _cmd_vacuum(args):
    if args.omega is not None:
        omega = args.omega
        payload = {"command": "vacuum", "omega": omega}
    else:
        if args.lam is None or args.g is None:
            raise DomainError("vacuum: provide --omega, or --g and --lambda "
                              "(with optional --power/--level)")
        model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
        omega = solve_level(model, args.level).omega
        payload = {"command": "vacuum",
                   "model": {"power": model.power, "g": model.g,
                             "lambda": model.lam},
                   "n": args.level, "omega": omega}
    vs = vacuum_structure(omega)
    payload.update({"alpha": vs.alpha, "n0": vs.n0, "u": vs.u})
    rows = [{"omega": omega, "alpha": vs.alpha, "n0": vs.n0, "u": vs.u}]
    if args.scan:
        model = OscillatorModel(power=4, g=args.g if args.g is not None else 1.0,
                                lam=min(args.scan))
        samples = strong_coupling_scaling(model, args.scan)
        rows = [{"lambda": lam, "n0": n0} for lam, n0 in samples]
        payload["scan"] = rows
        payload["slope"] = loglog_slope(samples)
        return _emit(args, payload, ["lambda", "n0"], rows)
    return _emit(args, payload, ["omega", "alpha", "n0", "u"], rows)


def _theory(args):
    return qft.FieldTheory(m2=args.mass2, lam=args.lam, cutoff=args.cutoff)


def _cmd_qft_renorm(args):
    theory = _theory(args)
    bar = qft.solve_mass_gap(theory, 0.0)
    ren = qft.renormalized(theory)
    payload = {"command": "qft-renorm",
               "theory": {"mass2": theory.m2, "lambda": theory.lam,
                          "cutoff": theory.cutoff},
               "M2_bar": bar.M2, "mR2": ren.mR2, "lambdaR": ren.lambdaR,
               "ratio": ren.lambdaR / theory.lam}
    rows = [{"M2_bar": bar.M2, "mR2": ren.mR2, "lambdaR": ren.lambdaR,
             "ratio": ren.lambdaR / theory.lam}]
    return _emit(args, payload, ["M2_bar", "mR2", "lambdaR", "ratio"], rows)


def _cmd_qft_gap(args):
    theory = _theory(args)
    state = qft.solve_mass_gap(theory, args.sigma)
    residual = state.M2 - theory.m2 - 12.0 * theory.lam * args.sigma * args.sigma \
        - 12.0 * theory.lam * state.i0
    payload = {"command": "qft-gap",
               "theory": {"mass2": theory.m2, "lambda": theory.lam,
                          "cutoff": theory.cutoff},
               "sigma": state.sigma, "M2": state.M2, "i0": state.i0,
               "i1": state.i1, "i_minus1": state.im1, "residual": residual}
    rows = [{"sigma": state.sigma, "M2": state.M2, "i0": state.i0,
             "i1": state.i1, "i_minus1": state.im1, "residual": residual}]
    return _emit(args, payload,
                 ["sigma", "M2", "i0", "i1", "i_minus1", "residual"], rows)


def _cmd_qft_potential(args):
    theory = _theory(args)
    if args.points < 2:
        raise DomainError("qft potential: --points must be at least 2")
    if not 0.0 < args.sigma_max < math.inf:
        raise DomainError(f"--sigma-max must be positive and finite, got {args.sigma_max}")
    step = args.sigma_max / (args.points - 1)
    rows = []
    for i in range(args.points):
        s = i * step
        rows.append({"sigma": s, "U": qft.effective_potential(theory, s)})
    payload = {"command": "qft-potential",
               "theory": {"mass2": theory.m2, "lambda": theory.lam,
                          "cutoff": theory.cutoff},
               "rows": rows}
    return _emit(args, payload, ["sigma", "U"], rows)


def _cmd_qft_static(args):
    if args.mr is not None:
        mr = args.mr
        payload = {"command": "qft-static", "mR": mr}
    else:
        if args.mass2 is None or args.lam is None or args.cutoff is None:
            raise DomainError("qft static: provide --mr, or the full theory "
                              "(--mass2 --lambda --cutoff)")
        theory = _theory(args)
        mr = math.sqrt(qft.renormalized(theory).mR2)
        payload = {"command": "qft-static",
                   "theory": {"mass2": theory.m2, "lambda": theory.lam,
                              "cutoff": theory.cutoff},
                   "mR": mr}
    rows = [{"r": r, "U": qft.static_potential(r, mr)} for r in args.r]
    payload["rows"] = rows
    return _emit(args, payload, ["r", "U"], rows)


def _cmd_qft_integrals(args):
    rows = [{"n": n, "value": qft.stevenson(n, args.mass2, args.cutoff)}
            for n in args.orders]
    payload = {"command": "qft-integrals", "mass2": args.mass2,
               "cutoff": args.cutoff, "rows": rows}
    return _emit(args, payload, ["n", "value"], rows)


def _cmd_table(args):
    if not args.compare:
        table = reference_table(args.table_id)
        rows = [{"lambda": c.lam, "n": c.n, "provenance": c.provenance.value,
                 "text": c.text, "disputed": c.disputed}
                for c in table.cells]
        payload = {"command": "table", "table": args.table_id,
                   "convention": table.convention, "rows": rows}
        return _emit(args, payload,
                     ["lambda", "n", "provenance", "text", "disputed"], rows)
    report = run_table(args.table_id, tol=args.tol)
    rows = [{"lambda": r.lam, "n": r.n, "provenance": r.provenance,
             "computed": r.computed, "reference": r.reference,
             "rel_error": r.rel_error, "pass": r.passed, "disputed": r.disputed}
            for r in report.rows]
    payload = {"table": report.table_id, "rows": rows,
               "summary": report.summary()}
    fields = ["table", "lambda", "n", "provenance", "computed", "reference",
              "rel_error", "pass", "disputed"]
    _emit(args, payload, fields,
          [{"table": report.table_id, **row} for row in rows])
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gha",
        description="Self-consistent oscillator spectra, their perturbative "
                    "refinement, and the Gaussian vacuum of the quartic "
                    "field theory.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "md"),
                        default="json")
    common.add_argument("--no-meta", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="per-level variational spectrum")
    _model_args(p)
    p.add_argument("--levels", type=_int_list, default=[0])
    p.add_argument("--order", type=int, default=0, choices=(0, 2))
    p.add_argument("--even-only", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dwo", parents=[common],
                       help="double-well levels with the depth convention")
    p.add_argument("--g", type=float, default=-1.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--levels", type=_int_list, default=[0])
    p.set_defaults(func=_cmd_dwo)

    p = sub.add_parser("hipt", parents=[common],
                       help="second-order correction on the Hartree basis")
    _model_args(p)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--even-only", action="store_true")
    p.set_defaults(func=_cmd_hipt)

    p = sub.add_parser("oracle", parents=[common],
                       help="banded-basis diagonalization with convergence "
                            "control")
    _model_args(p)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("vacuum", parents=[common],
                       help="pair-condensate structure of a squeezed vacuum")
    p.add_argument("--omega", type=float)
    p.add_argument("--power", type=int, default=4, choices=(4, 6, 8))
    p.add_argument("--g", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--scan", type=_float_list,
                   help="couplings for the strong-coupling occupation scan")
    p.set_defaults(func=_cmd_vacuum)

    p = sub.add_parser("qft", help="Gaussian vacuum of the quartic field "
                                   "theory")
    qsub = p.add_subparsers(dest="qft_command", required=True)

    q = qsub.add_parser("renorm", parents=[common])
    q.add_argument("--mass2", type=float, required=True)
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--cutoff", type=float, required=True)
    q.set_defaults(func=_cmd_qft_renorm)

    q = qsub.add_parser("gap", parents=[common])
    q.add_argument("--mass2", type=float, required=True)
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--cutoff", type=float, required=True)
    q.add_argument("--sigma", type=float, default=0.0)
    q.set_defaults(func=_cmd_qft_gap)

    q = qsub.add_parser("potential", parents=[common])
    q.add_argument("--mass2", type=float, required=True)
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--cutoff", type=float, required=True)
    q.add_argument("--sigma-max", type=float, default=2.0)
    q.add_argument("--points", type=int, default=21)
    q.set_defaults(func=_cmd_qft_potential)

    q = qsub.add_parser("static", parents=[common])
    q.add_argument("--mr", type=float)
    q.add_argument("--mass2", type=float)
    q.add_argument("--lambda", dest="lam", type=float)
    q.add_argument("--cutoff", type=float)
    q.add_argument("--r", type=_float_list, default=[1.0])
    q.set_defaults(func=_cmd_qft_static)

    q = qsub.add_parser("integrals", parents=[common])
    q.add_argument("--mass2", type=float, required=True)
    q.add_argument("--cutoff", type=float, required=True)
    q.add_argument("--orders", type=_int_list, default=[-1, 0, 1])
    q.set_defaults(func=_cmd_qft_integrals)

    p = sub.add_parser("table", parents=[common],
                       help="reproduce an embedded benchmark table")
    p.add_argument("table_id", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--compare", action="store_true")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GhaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
