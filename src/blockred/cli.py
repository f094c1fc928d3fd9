"""Command line front end.

Four subcommands: ``validate`` parses a system document and reports its
shape and poles; ``analyze`` prints the solvent structure and the standard
metrics; ``reduce`` runs one of the two reduction pipelines and writes the
reduced document plus a report; ``bode`` samples frequency responses to CSV.

Exit codes: 0 success, 1 parse problem, 2 invariant violation, 3 an
algorithm could not produce a result, 4 numerical failure.  The mapping
lives on the exception hierarchy in errors.py.  Set BLOCKRED_LOG to error,
info, or debug to control stderr logging.
"""

import argparse
import logging
import os
import sys

import numpy as np

from .dompoles import dominant_poles
from .errors import BlockredError, DimensionMismatch
from .metrics import _response, as_state_space, h2_norm, hankel_singular_values
from .reduce import Tolerances, _as_fraction, _fmt_value, reduce_dominant, reduce_latent
from .solvents import compute_complete_set
from .sysdoc import build_system, load_document, save_document

log = logging.getLogger("blockred")

_EXIT_HELP = (
    "exit codes: 0 success, 1 parse error, 2 invariant violation, "
    "3 no result (e.g. no eliminable solvent, no complete set), "
    "4 numerical failure"
)


def _setup_logging():
    level = os.environ.get("BLOCKRED_LOG", "error").strip().lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(
        stream=sys.stderr,
        level=chosen,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _fmt(v):
    return f"{float(v):.17g}"


def _load(path):
    doc = load_document(path)
    sys_obj = build_system(doc)
    log.info("loaded %s document from %s", doc.kind, path)
    return doc, sys_obj


def _shape_line(sys_obj):
    ss = as_state_space(sys_obj)
    return f"n={ss.n} m={ss.m} p={ss.p}, " + (
        "stable" if ss.is_stable() else "unstable"
    )


# -- validate -----------------------------------------------------------------

def cmd_validate(args):
    doc, sys_obj = _load(args.path)
    print(f"type: {doc.kind}" + (f"  name: {doc.name}" if doc.name else ""))
    print(_shape_line(sys_obj))
    ss = as_state_space(sys_obj)
    print("poles:")
    for z in ss.poles():
        print(f"  {_fmt_value(z)}")
    return 0


# -- analyze ------------------------------------------------------------------

def _print_section(title, body):
    """Run one analysis stage, degrading to a reason line on failure."""
    print(f"{title}:")
    try:
        body()
    except BlockredError as exc:
        print(f"  unavailable: {exc}")


def cmd_analyze(args):
    if args.k is not None and args.k < 1:
        raise DimensionMismatch(f"--k must be at least 1, got {args.k}")
    doc, sys_obj = _load(args.path)
    print(f"type: {doc.kind}" + (f"  name: {doc.name}" if doc.name else ""))
    print(_shape_line(sys_obj))
    ss = as_state_space(sys_obj)
    tol = _tolerances(args)

    def solvent_section():
        # only this section needs a matrix fraction, which a system may lack
        frac = _as_fraction(sys_obj, tol.eps_sing)
        cset = compute_complete_set(
            frac.D, eps_sing=tol.eps_sing, tau_gap=tol.tau_gap,
            tau_null=tol.tau_null, node_budget=tol.node_budget,
        )
        print(f"  block Vandermonde condition: {cset.condition:.6g}")
        for i, sol in enumerate(cset.solvents, start=1):
            rows = " ; ".join(
                " ".join(f"{v:.6g}" for v in row) for row in np.atleast_2d(sol.matrix)
            )
            eigs = ", ".join(_fmt_value(z) for z in sol.eigenvalues)
            print(f"  R{i} = [ {rows} ]")
            print(f"     eigenvalues: {eigs}")

    _print_section("solvents", solvent_section)

    def hankel_section():
        for s in hankel_singular_values(ss).values:
            print(f"  {_fmt(s)}")

    _print_section("hankel singular values", hankel_section)

    def h2_section():
        print(f"  {_fmt(h2_norm(ss))}")

    _print_section("h2 norm", h2_section)

    def dominant_section():
        count = args.k if args.k is not None else min(ss.n, 2 * ss.m)
        found = dominant_poles(ss, count, eps_sing=tol.eps_sing)
        for pole in found:
            print(f"  {_fmt_value(pole.value)}   dominance {pole.dominance:.6g}")

    _print_section("dominant poles", dominant_section)
    return 0


# -- reduce -------------------------------------------------------------------

def _tolerances(args):
    kw = {}
    for field, flag in (
        ("re_threshold", "threshold"),
        ("h2_threshold", "h2_threshold"),
        ("tau_null", "tau_null"),
        ("tau_gap", "tau_gap"),
        ("eps_sing", "eps_sing"),
        ("dominance_cutoff", "dominance_cutoff"),
        ("node_budget", "node_budget"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            kw[field] = value
    # a zero threshold means "reject every elimination": the smallest
    # positive value implements that without breaking the positivity rule
    if kw.get("re_threshold") == 0.0:
        kw["re_threshold"] = 1e-300
    try:
        return Tolerances(**kw)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from exc


def _report_text(report):
    lines = [
        f"method: {report.method}",
        f"original_order: {report.original_order}",
        f"reduced_order: {report.reduced_order}",
        f"threshold: {_fmt(report.threshold)}",
        f"re_value: {_fmt(report.re_value)}",
        f"h2_error: {_fmt(report.h2_error)}",
        f"neglected_numerator_norm: {_fmt(report.neglected_numerator_norm)}",
        f"iterations: {report.iterations}",
        f"eliminated: {len(report.eliminated)}",
    ]
    for item in report.eliminated:
        lines.append(f"  - {item}")
    return "\n".join(lines) + "\n"


def cmd_reduce(args):
    doc, sys_obj = _load(args.path)
    tol = _tolerances(args)
    if args.method == "latent":
        frac = _as_fraction(sys_obj, tol.eps_sing)
        reduced, report = reduce_latent(frac, tol, hankel_power=args.hankel_power)
    else:
        reduced, report = reduce_dominant(
            sys_obj, tol, k=args.k,
            continue_blocks=not args.no_continue_blocks,
            trim_eigen=args.trim_eigen,
            hankel_power=args.hankel_power,
        )
    if not report.eliminated:
        reduced = sys_obj  # nothing happened: echo the input system
    out = args.out
    save_document(
        reduced, out,
        name=(doc.name + " (reduced)" if doc.name else "reduced system"),
        description=f"order {report.original_order} reduced to {report.reduced_order}",
    )
    report_path = out + ".report"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_report_text(report))
    log.info("wrote %s and %s", out, report_path)
    print(
        f"order {report.original_order} -> {report.reduced_order}, "
        f"re_value {_fmt(report.re_value)}, "
        f"{len(report.eliminated)} eliminated"
    )
    return 0


# -- bode ---------------------------------------------------------------------

def cmd_bode(args):
    systems = [_load(path)[1] for path in [args.path] + ([args.path2] if args.path2 else [])]
    dims = {(s.p, s.m) for s in systems}
    if len(dims) != 1:
        raise DimensionMismatch(
            f"systems have different transfer shapes: {sorted(dims)}"
        )
    p, m = dims.pop()
    if args.points < 1:
        raise DimensionMismatch("--points must be at least 1")
    if not (0.0 < args.wmin <= args.wmax < np.inf):
        raise DimensionMismatch("need 0 < wmin <= wmax < inf")
    omega = np.geomspace(args.wmin, args.wmax, args.points)

    tags = [""] if len(systems) == 1 else ["_1", "_2"]  # the system of a column
    header = ["omega_rad_s"]
    for i in range(1, p + 1):
        for j in range(1, m + 1):
            for t in tags:
                header += [f"mag_db_{i}{j}{t}", f"phase_deg_{i}{j}{t}"]

    eps_sing = _tolerances(args).eps_sing
    responses = [_response(s, omega, eps_sing) for s in systems]
    with np.errstate(divide="ignore"):
        mag_db = [20.0 * np.log10(np.abs(G)) for G in responses]
    phase = [np.degrees(np.angle(G)) for G in responses]
    missing = [np.isnan(G).any(axis=(1, 2)) for G in responses]
    rows = []
    for k, w in enumerate(omega):
        cells = [_fmt(w)]
        for i in range(p):
            for j in range(m):
                for db, ph, gone in zip(mag_db, phase, missing):
                    cells += ["", ""] if gone[k] else [_fmt(db[k, i, j]), _fmt(ph[k, i, j])]
        rows.append(",".join(cells))
        if any(gone[k] for gone in missing):
            print(
                f"warning: response undefined at omega={_fmt(w)} "
                "(probe at a pole); row left empty",
                file=sys.stderr,
            )

    text = ",".join(header) + "\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)

    if len(systems) == 2:
        # -6000 dB = 20 log10(1e-300): a smaller magnitude counts as 1e-300,
        # so that two zero entries agree
        da, db = (np.maximum(x, -6000.0) for x in mag_db)
        delta = np.max(np.abs(da - db), axis=(1, 2), initial=0.0)  # NaN where a row is missing
        both = np.flatnonzero(~np.isnan(delta))
        if both.size:
            k = both[np.argmax(delta[both])]
            print(
                f"max |delta mag| = {delta[k]:.6g} dB at omega = {omega[k]:.6g} rad/s",
                file=sys.stderr,
            )
    return 0


# -- argument parsing ---------------------------------------------------------

def _add_tolerance_flags(sub):
    d = Tolerances()
    sub.add_argument("--threshold", type=float, default=None,
                     help=f"relative error threshold (default {d.re_threshold})")
    sub.add_argument("--h2-threshold", dest="h2_threshold", type=float,
                     default=None, help="optional relative H2 error gate")
    sub.add_argument("--tau-null", dest="tau_null", type=float, default=None,
                     help=f"null space detection tolerance (default {d.tau_null})")
    sub.add_argument("--tau-gap", dest="tau_gap", type=float, default=None,
                     help=f"spectrum separation tolerance (default {d.tau_gap})")
    sub.add_argument("--eps-sing", dest="eps_sing", type=float, default=None,
                     help=f"singularity threshold (default {d.eps_sing})")
    sub.add_argument("--dominance-cutoff", dest="dominance_cutoff", type=float,
                     default=None,
                     help=f"relative dominance cutoff (default {d.dominance_cutoff})")
    sub.add_argument("--node-budget", dest="node_budget", type=int, default=None,
                     help=f"solvent search node budget (default {d.node_budget})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockred",
        description="Model order reduction of MIMO systems via matrix "
                    "polynomial solvents.",
        epilog=_EXIT_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse a system document and report "
                                        "dimensions, stability, poles")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("analyze", help="print solvent set, Hankel spectrum, "
                                       "H2 norm, dominant poles")
    a.add_argument("path")
    a.add_argument("--k", type=int, default=None,
                   help="how many dominant poles to compute")
    _add_tolerance_flags(a)
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("reduce", help="run a reduction pipeline",
                       epilog=_EXIT_HELP)
    r.add_argument("path")
    r.add_argument("--method", choices=("latent", "dominant"), default="dominant")
    r.add_argument("--k", type=int, default=None,
                   help="dominant pole count (default: every pole)")
    r.add_argument("--out", required=True,
                   help="output document path; the report goes to OUT.report")
    r.add_argument("--hankel-power", dest="hankel_power", type=int,
                   choices=(2, 4), default=4,
                   help="power used in the relative error metric")
    r.add_argument("--trim-eigen", dest="trim_eigen", action="store_true",
                   help="after block elimination, trim single eigenvalues "
                        "of the least dominant remaining block")
    r.add_argument("--no-continue-blocks", dest="no_continue_blocks",
                   action="store_true",
                   help="stop after eliminating unclaimed blocks")
    _add_tolerance_flags(r)
    r.set_defaults(func=cmd_reduce)

    b = sub.add_parser("bode", help="sample frequency responses to CSV")
    b.add_argument("path")
    b.add_argument("path2", nargs="?", default=None,
                   help="optional second system for comparison")
    b.add_argument("--wmin", type=float, default=1e-2)
    b.add_argument("--wmax", type=float, default=1e2)
    b.add_argument("--points", type=int, default=200)
    b.add_argument("--out", default=None, help="CSV path (default: stdout)")
    b.add_argument("--eps-sing", dest="eps_sing", type=float, default=None)
    b.set_defaults(func=cmd_bode)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
