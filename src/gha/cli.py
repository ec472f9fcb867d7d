"""Command-line interface.

Subcommands: spectrum, dwo, hipt, oracle, vacuum, qft (renorm, gap,
potential, static, integrals) and table.  Each builds its payload and rows
once, and `_emit` alone decides the output: the payload as JSON (default),
or the rows as CSV or a markdown table via --format, with the scalar fields
of the first row as columns.  JSON carries a meta block with version and
timestamp unless --no-meta is given; CSV and markdown are always meta-free,
so identical invocations produce byte-identical output.  NaN or infinity in
the payload is a numerical failure in every format; an empty list flag such
as `--levels ,` is a usage error.

Each subcommand imports the modules it runs inside its `_cmd_*` function,
so a `gha` process loads only those: `hartree` and `vacuum` at module scope,
`qft` for `qft *`, `hipt` for `hipt` and `spectrum --order 2`, `oracle` for
`oracle`, and `tables` (with `hipt` and `oracle`) for `table`.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import DomainError, GhaError, NonFiniteValue
from .hartree import (OscillatorModel, classical_well_depth,
                      critical_coupling, solve_level)
from .vacuum import loglog_slope, strong_coupling_scaling, vacuum_structure


def _meta():
    from datetime import datetime, timezone

    return {"version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def _list_of(kind, noun):
    def parse(text):
        try:
            values = [kind(tok) for tok in text.split(",") if tok]
        except ValueError:
            values = []
        if values:
            return values
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "reals")


def _cell(fmt, value):
    """CSV keeps repr floats and lowercase booleans; markdown rounds to .10g."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if fmt == "csv" else f"{value:.10g}"
    if isinstance(value, bool) and fmt == "csv":
        return str(value).lower()
    return str(value)


def _emit(args, payload, rows):
    """Print payload as JSON, or rows as CSV or markdown with the scalar fields
    of the first row as columns; refuse NaN or infinity in the payload."""
    name = payload.get("command", args.command)
    if args.format == "json" and not args.no_meta:
        payload = {**payload, "meta": _meta()}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteValue(f"{name} output holds NaN or infinity") from None
    if args.format == "json":
        print(text)
        return 0
    if not rows:  # hipt, when every contribution underflows to zero
        raise GhaError(f"{name} output has no rows to print as {args.format}")
    columns = [k for k, v in rows[0].items() if not isinstance(v, list)]
    table = [columns] + [[_cell(args.format, row.get(k)) for k in columns]
                         for row in rows]
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf).writerows(table)
        text = buf.getvalue()
    else:
        table.insert(1, ["---"] * len(columns))
        text = "".join("| " + " | ".join(line) + " |\n" for line in table)
    print(text, end="")
    return 0


def _model_args(p, required=True):
    p.add_argument("--power", type=int, default=4)
    p.add_argument("--g", type=float, required=required)
    p.add_argument("--lambda", dest="lam", type=float, required=required)


def _model_block(model):
    return {"power": model.power, "g": model.g, "lambda": model.lam}


def _theory_args(p, required=True):
    p.add_argument("--mass2", type=float, required=required)
    p.add_argument("--lambda", dest="lam", type=float, required=required)
    p.add_argument("--cutoff", type=float, required=required)


def _theory(args):
    from . import qft

    return qft.FieldTheory(m2=args.mass2, lam=args.lam, cutoff=args.cutoff)


def _theory_block(theory):
    return {"mass2": theory.m2, "lambda": theory.lam, "cutoff": theory.cutoff}


def _cmd_spectrum(args):
    model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
    if args.order == 2:
        from .hipt import second_order
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
    payload = {"command": "spectrum", "model": _model_block(model),
               "levels": rows}
    return _emit(args, payload, rows)


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
        if sol.branches:
            row["branches"] = [{"phase": b.phase.value, "omega": b.omega,
                                "sigma": b.sigma, "energy": b.energy}
                               for b in sol.branches]
        rows.append(row)
    payload = {"command": "dwo", "model": _model_block(model),
               "well_depth": depth, "lambda_c": lam_c, "levels": rows}
    return _emit(args, payload, rows)


def _cmd_hipt(args):
    from .hipt import second_order

    model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
    rep = second_order(model, args.level, even_only=args.even_only)
    rows = [{"m": c.m, "numerator": c.numerator, "denominator": c.denominator}
            for c in rep.contributions]
    payload = {"command": "hipt", "model": _model_block(model),
               "n": rep.n, "even_only": args.even_only, "e0": rep.e0,
               "delta_e2": rep.delta_e2, "e2": rep.e2,
               "contributions": rows}
    return _emit(args, payload, rows)


def _cmd_oracle(args):
    from .oracle import converged_levels

    model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
    est = converged_levels(model, args.nmax, tol=args.tol)
    rows = [{"n": i, "energy": e, "convergence_error": d}
            for i, (e, d) in enumerate(zip(est.levels, est.convergence_error))]
    payload = {"command": "oracle", "model": _model_block(model),
               "n_max": args.nmax, "tol": args.tol,
               "dimension": est.dimension_used, "levels": rows}
    return _emit(args, payload, rows)


def _cmd_vacuum(args):
    payload = {"command": "vacuum"}
    if args.omega is not None:
        omega = args.omega
    else:
        if args.lam is None or args.g is None:
            raise DomainError("vacuum: provide --omega, or --g and --lambda "
                              "(with optional --power/--level)")
        model = OscillatorModel(power=args.power, g=args.g, lam=args.lam)
        omega = solve_level(model, args.level).omega
        payload.update(model=_model_block(model), n=args.level)
    vs = vacuum_structure(omega)
    rows = [{"omega": omega, "alpha": vs.alpha, "n0": vs.n0, "u": vs.u}]
    payload.update(rows[0])
    if args.scan:
        model = OscillatorModel(power=4, g=args.g if args.g is not None else 1.0,
                                lam=min(args.scan))
        samples = strong_coupling_scaling(model, args.scan)
        if args.power != 4:  # the scan is quartic whatever --power says
            payload["scan_model"] = {"power": model.power, "g": model.g}
        rows = payload["scan"] = [{"lambda": lam, "n0": n0} for lam, n0 in samples]
        payload["slope"] = loglog_slope(samples)
    return _emit(args, payload, rows)


def _cmd_qft_renorm(args):
    from . import qft

    theory = _theory(args)
    # m_R² is the gap solution M̄² at σ = 0
    ren = qft.renormalized(theory)
    row = {"M2_bar": ren.mR2, "mR2": ren.mR2, "lambdaR": ren.lambdaR,
           "ratio": ren.lambdaR / theory.lam}
    payload = {"command": "qft-renorm", "theory": _theory_block(theory), **row}
    return _emit(args, payload, [row])


def _cmd_qft_gap(args):
    from . import qft

    theory = _theory(args)
    state = qft.solve_mass_gap(theory, args.sigma)
    row = {"sigma": state.sigma, "M2": state.M2, "i0": state.i0,
           "i1": state.i1, "i_minus1": state.im1, "residual": state.residual}
    payload = {"command": "qft-gap", "theory": _theory_block(theory), **row}
    return _emit(args, payload, [row])


def _cmd_qft_potential(args):
    from . import qft

    theory = _theory(args)
    if args.points < 2:
        raise DomainError("qft potential: --points must be at least 2")
    if not 0.0 < args.sigma_max < math.inf:
        raise DomainError(f"--sigma-max must be positive and finite, got {args.sigma_max}")
    step = args.sigma_max / (args.points - 1)
    rows = [{"sigma": i * step, "U": qft.effective_potential(theory, i * step)}
            for i in range(args.points)]
    payload = {"command": "qft-potential", "theory": _theory_block(theory),
               "rows": rows}
    return _emit(args, payload, rows)


def _cmd_qft_static(args):
    from . import qft

    payload = {"command": "qft-static"}
    if args.mr is not None:
        mr = args.mr
    else:
        if args.mass2 is None or args.lam is None or args.cutoff is None:
            raise DomainError("qft static: provide --mr, or the full theory "
                              "(--mass2 --lambda --cutoff)")
        theory = _theory(args)
        mr = math.sqrt(qft.renormalized(theory).mR2)
        payload["theory"] = _theory_block(theory)
    payload["mR"] = mr
    rows = payload["rows"] = [{"r": r, "U": qft.static_potential(r, mr)}
                              for r in args.r]
    return _emit(args, payload, rows)


def _cmd_qft_integrals(args):
    from . import qft

    rows = [{"n": n, "value": qft.stevenson(n, args.mass2, args.cutoff)}
            for n in args.orders]
    payload = {"command": "qft-integrals", "mass2": args.mass2,
               "cutoff": args.cutoff, "rows": rows}
    return _emit(args, payload, rows)


def _cmd_table(args):
    from .tables import reference_table, run_table

    if not args.compare:
        table = reference_table(args.table_id)
        rows = [{"lambda": c.lam, "n": c.n, "provenance": c.provenance.value,
                 "text": c.text, "disputed": c.disputed}
                for c in table.cells]
        payload = {"command": "table", "table": args.table_id,
                   "convention": table.convention, "rows": rows}
        return _emit(args, payload, rows)
    report = run_table(args.table_id, tol=args.tol)
    rows = [{"lambda": r.lam, "n": r.n, "provenance": r.provenance,
             "computed": r.computed, "reference": r.reference,
             "rel_error": r.rel_error, "pass": r.passed, "disputed": r.disputed}
            for r in report.rows]
    payload = {"table": report.table_id, "rows": rows,
               "summary": report.summary()}
    _emit(args, payload, [{"table": report.table_id, **row} for row in rows])
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
    _model_args(p, required=False)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--scan", type=_float_list,
                   help="couplings for the strong-coupling occupation scan")
    p.set_defaults(func=_cmd_vacuum)

    p = sub.add_parser("qft", help="Gaussian vacuum of the quartic field "
                                   "theory")
    qsub = p.add_subparsers(dest="qft_command", required=True)

    q = qsub.add_parser("renorm", parents=[common])
    _theory_args(q)
    q.set_defaults(func=_cmd_qft_renorm)

    q = qsub.add_parser("gap", parents=[common])
    _theory_args(q)
    q.add_argument("--sigma", type=float, default=0.0)
    q.set_defaults(func=_cmd_qft_gap)

    q = qsub.add_parser("potential", parents=[common])
    _theory_args(q)
    q.add_argument("--sigma-max", type=float, default=2.0)
    q.add_argument("--points", type=int, default=21)
    q.set_defaults(func=_cmd_qft_potential)

    q = qsub.add_parser("static", parents=[common])
    q.add_argument("--mr", type=float)
    _theory_args(q, required=False)
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
