"""Command line front end.

Four subcommands cover the workflows the library supports:

* ``analyze``: run the full pipeline (Frenet apparatus, frame scalars,
  classification, equation check, weight solve, independence) on a curve
  file and emit a JSON report.
* ``verify-example``: self-check against the built-in reference curve
  (sin 2t, -cos 2t, 0, 0, 1); prints one PASS/FAIL line per check.
* ``scan``: sweep (c, k1, k2, alpha0) grids per case and emit the required
  weight ratio and feasibility verdicts as CSV.
* ``flow``: discretize a curve, run gradient descent on the weighted
  energy, emit the trajectory as CSV.

Every verdict printed here is decided in ``analysis``; this module formats.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input.
Reports go to stdout unless ``--out`` names a file; they contain no
timestamps and all floats are printed with 17 significant digits, so a
rerun with the same arguments is byte-identical.

``main(argv)`` may be called any number of times in one process.  Every
call reuses one argument parser, built on the first call, and its exit code
and output depend only on argv and the files it reads.

Curve files are plain text: a header line ``n=<int>``, then one coordinate
expression of t per line (x_1..x_n, y_1..y_n, z).  Blank lines are skipped
and ``#`` starts a comment.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, discrete, reporting
from .curves import (
    CurveError,
    CurveSpec,
    frame_scalars,
    frenet_apparatus,
    sample_grid,
)
from .expressions import EvaluationError

__all__ = [
    "ConfigError",
    "main",
    "example_spec",
    "load_curve_file",
    "parse_range",
]

EXAMPLE_COORDS = ("sin(2*t)", "-cos(2*t)", "0", "0", "1")


class ConfigError(ValueError):
    """Invalid configuration or input file; maps to exit code 2."""


def example_spec():
    """The reference closed Legendre curve in the 5-dimensional model."""
    return CurveSpec(2, list(EXAMPLE_COORDS))


def load_curve_file(path):
    """Parse a curve file into a CurveSpec.

    Format: optional comments/blank lines, a header ``n=<int>``, then
    exactly 2n+1 expression lines in the order x_1..x_n, y_1..y_n, z.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read curve file {path}: {exc}") from exc
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ConfigError(f"curve file {path} has no content")
    header = re.fullmatch(r"n\s*=\s*(\d+)", lines[0])
    if header is None:
        raise ConfigError(
            f"curve file {path}: first line must be 'n=<int>', got {lines[0]!r}"
        )
    n = int(header.group(1))
    if n < 1:
        raise ConfigError(f"curve file {path}: n must be >= 1, got {n}")
    exprs = lines[1:]
    if len(exprs) != 2 * n + 1:
        raise ConfigError(
            f"curve file {path}: expected {2 * n + 1} coordinate lines "
            f"for n={n}, found {len(exprs)}"
        )
    try:
        return CurveSpec(n, exprs)
    except CurveError as exc:
        raise ConfigError(f"curve file {path}: {exc}") from exc


def parse_range(text, name):
    """Parse 'start:stop:count' into a linspace array."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"{name}: expected start:stop:count, got {text!r}"
        )
    try:
        start = float(parts[0])
        stop = float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    for bound, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{name}: {bound} must be finite, got {value!r}")
    if count < 1:
        raise ConfigError(f"{name}: count must be >= 1, got {count}")
    if count == 1 and stop != start:
        raise ConfigError(
            f"{name}: a single-sample range needs start == stop"
        )
    with np.errstate(all="ignore"):
        values = np.linspace(start, stop, count)
    if not np.all(np.isfinite(values)):
        raise ConfigError(
            f"{name}: the samples of {text!r} overflow to non-finite values"
        )
    return values


def _write_output(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


def _require_finite(args, *names):
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value}")


def _validate_common(args):
    if args.grid < 16:
        raise ConfigError(f"--grid must be >= 16, got {args.grid}")
    if not args.tol > 0.0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    # verify-example registers no c and no weights
    _require_finite(args, *(name for name in ("c", "delta1", "delta2", "tol")
                            if name in vars(args)))


def _load_spec(args):
    if args.curve is None:
        return example_spec(), "<built-in example>"
    return load_curve_file(args.curve), args.curve


# ---------------------------------------------------------------------------
# analyze


def _spread(row):
    return float(np.max(row) - np.min(row))


def _peak(row):
    return float(np.max(np.abs(row)))


def cmd_analyze(args):
    _validate_common(args)
    spec, label = _load_spec(args)
    ts = sample_grid(spec, args.grid)
    delta = (args.delta1, args.delta2)

    frenet = frenet_apparatus(spec, ts, tol=args.tol, unit_tol=args.tol)
    scalars = frame_scalars(frenet)
    res, = analysis._direct_reports(frenet, args.c, [delta])
    thm = analysis.theorem31_check(frenet, scalars, args.c, delta, tol=args.tol)
    sol = analysis.solve_delta(frenet, scalars, args.c, tol=args.tol)
    cls = sol.classification

    if frenet.r in (2, 3):
        ind = analysis.independence_check(spec, frenet, tol=args.tol)
        independence = {
            "applicable": True,
            "independent": ind.independent,
            "min_gram_eigenvalue": ind.min_gram_eigenvalue,
            "set_size": ind.set_size,
            "implied_n_bound": ind.implied_n_bound,
            "note": ind.note,
        }
    else:
        independence = {
            "applicable": False,
            "note": f"defined for osculating order 2 or 3, curve has r={frenet.r}",
        }

    payload = {
        "command": "analyze",
        "curve": label,
        "config": {
            "c": float(args.c),
            "delta1": float(args.delta1),
            "delta2": float(args.delta2),
            "grid": int(args.grid),
            "tol": float(args.tol),
        },
        "class": cls.klass,
        "case": cls.case,
        "rho": sol.rho,
        "max_residual": res.max_norm,
        "equations": res.equations,
        "frenet": {
            "n": frenet.n,
            "r": frenet.r,
            "m": frenet.m,
            "curvature_mean": [float(np.mean(k)) for k in frenet.curvatures],
            "curvature_spread": [_spread(k) for k in frenet.curvatures],
            "unit_speed_deviation": frenet.arclength.max_deviation,
            "max_legendre_defect": frenet.arclength.max_defect,
        },
        "scalars": {
            "f_mean": float(np.mean(scalars.f)),
            "f_spread": _spread(scalars.f),
            "g_phiT_E3_max": _peak(scalars.g_phiT[2]),
            "g_phiT_E4_max": _peak(scalars.g_phiT[3]),
            "eta_E2_max": _peak(scalars.eta[1]),
            "eta_E3_max": _peak(scalars.eta[2]),
            "eta_E4_max": _peak(scalars.eta[3]),
            "offspan_max": float(np.max(scalars.offspan)),
        },
        "classification": {
            "class": cls.klass,
            "case": cls.case,
            "alpha0": cls.alpha0,
            "w0": cls.w0,
            "w0_variance": cls.w0_variance,
            "f_mean": cls.f_mean,
            "diagnostics": list(cls.diagnostics),
        },
        "theorem": {
            "passed": thm.passed,
            "condition1_mode": thm.condition1_mode,
            "condition1_leakage": thm.condition1_leakage,
            "equations": [
                {
                    "index": eq.index,
                    "max_residual": eq.max_residual,
                    "passed": eq.passed,
                }
                for eq in thm.equations
            ],
        },
        "solve": {
            "case": cls.case,
            "class": cls.klass,
            "rho": sol.rho,
            "rho_spread": sol.rho_spread,
            "parallel_defect": sol.parallel_defect,
            "feasible": sol.feasible,
            "any_delta": sol.any_delta,
            "k2_deviation": sol.k2_deviation,
            "alpha0": cls.alpha0,
            "delta": list(sol.delta) if sol.delta is not None else None,
            "verdict": sol.verdict,
            "notes": list(sol.notes),
        },
        "independence": independence,
    }
    _write_output(reporting.to_json(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify-example


def cmd_verify_example(args):
    _validate_common(args)
    spec = example_spec()
    ts = sample_grid(spec, args.grid)
    c = -3.0    # the model space's own c: the expected values hold only there

    frenet = frenet_apparatus(spec, ts, tol=args.tol)
    scalars = frame_scalars(frenet)
    sol = analysis.solve_delta(frenet, scalars, c, tol=args.tol)
    cls = sol.classification
    thm = analysis.theorem31_check(frenet, scalars, c, (-8.0, 2.0),
                                   tol=args.tol)
    res_crit, res_biha = analysis._direct_reports(
        frenet, c, [(-8.0, 2.0), (0.0, 1.0)])
    route_gap = _peak(thm.report.vector - res_crit.vector)

    k1_err = _peak(frenet.curvatures[0] - 2.0)
    f_max = _peak(scalars.f)
    checks = [
        ("osculating order r == 2",
         frenet.r == 2, f"r = {frenet.r}"),
        ("k1 == 2 within 1e-9",
         k1_err < 1e-9, f"max deviation {reporting.format_float(k1_err)}"),
        ("phi T orthogonal to E2 within 1e-9",
         f_max < 1e-9, f"max |f| = {reporting.format_float(f_max)}"),
        ("classified as circle, case II",
         cls.klass == "circle" and cls.case == "II",
         f"class={cls.klass} case={cls.case}"),
        ("residual vanishes at delta=(-8, 2) within 1e-8",
         res_crit.max_norm < 1e-8,
         f"max norm {reporting.format_float(res_crit.max_norm)}"),
        ("equation check passes at delta=(-8, 2)",
         thm.passed, f"mode {thm.condition1_mode}"),
        ("not biharmonic: residual norm at delta=(0, 1) is 8 within 1e-6",
         abs(res_biha.max_norm - 8.0) < 1e-6,
         f"norm {reporting.format_float(res_biha.max_norm)}"),
        ("weight solve recovers the critical ratio",
         sol.rho is not None and abs(sol.rho + 4.0) < 1e-6 and sol.feasible,
         f"rho = {'none' if sol.rho is None else reporting.format_float(sol.rho)}"),
        ("closed form matches the direct route within 1e-6",
         route_gap < 1e-6, f"max gap {reporting.format_float(route_gap)}"),
    ]

    lines = []
    failed = 0
    for name, ok, detail in checks:
        if not ok:
            failed += 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        lines.append(f"verify-example: FAIL ({failed} of {len(checks)} checks failed)")
    else:
        lines.append(f"verify-example: PASS ({len(checks)} checks)")
    _write_output("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args):
    cs = parse_range(args.c_range, "--c-range")
    k1s = parse_range(args.k1_range, "--k1-range")
    k2s = parse_range(args.k2_range, "--k2-range")
    alphas = parse_range(args.alpha0_range, "--alpha0-range")
    if np.any(k1s < 0.0) or np.any(k2s < 0.0):
        raise ConfigError("curvature ranges must be nonnegative")

    case = args.case
    if case == "I":
        cs = np.array([1.0])      # this case is the c=1 space form
    if case == "III":
        k2s = np.array([1.0])     # forced by the case equations
    if case != "IV":
        alphas = np.array([0.0])

    # one row per (c, k1, k2, alpha0) cell in row-major order; i_* index the axes
    shape = (cs.size, k1s.size, k2s.size, alphas.size)
    i_c, i_k1, i_k2, i_a = np.indices(shape).reshape(4, -1)
    n_rows = i_c.size
    with np.errstate(all="ignore"):       # overflow is caught by to_csv
        rho, constraint, feasible, verdict = analysis.case_formula(
            case, *np.ix_(cs, k1s, k2s, alphas))
    rho, feasible, verdict = (np.broadcast_to(a, shape).ravel()
                              for a in (rho, feasible, verdict))
    if case == "IV":
        # the constraint depends on (c, alpha0) only: one per pair
        constraint = constraint.ravel()
        i_ca = i_c * alphas.size + i_a

    def shown(index):
        """index, with -1 (an empty cell) on the geodesic rows (code 3)."""
        return np.where(verdict == 3, -1, index)

    empty = reporting.Indexed([], np.full(n_rows, -1))
    rho_col = reporting.Indexed(rho, shown(np.arange(n_rows)))
    if case == "IV":
        alpha_col = reporting.Indexed(alphas, shown(i_a))
        constraint_col = reporting.Indexed(constraint, shown(i_ca))
    else:
        alpha_col = empty
        constraint_col = rho_col if case == "I" else empty

    header = ["case", "c", "k1", "k2", "alpha0", "rho",
              "constraint", "feasible", "verdict"]
    columns = [
        reporting.Indexed([case], np.zeros(n_rows, dtype=np.intp)),
        reporting.Indexed(cs, i_c),
        reporting.Indexed(k1s, i_k1),
        reporting.Indexed(k2s, i_k2),
        alpha_col,
        rho_col,
        constraint_col,
        reporting.Indexed((False, True), feasible.astype(np.intp)),
        reporting.Indexed(analysis.VERDICTS, verdict),
    ]
    _write_output(reporting.to_csv(header, columns), args.out)
    return 0


# ---------------------------------------------------------------------------
# flow


def cmd_flow(args):
    _validate_common(args)
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    if not args.rate > 0.0:
        raise ConfigError(f"--rate must be positive, got {args.rate}")
    _require_finite(args, "rate")
    spec, _ = _load_spec(args)
    curve = discrete.DiscreteCurve.from_spec(spec, args.grid)
    curve.validate(tol=max(args.tol, 1e-3))
    result = discrete.descend(
        curve, (args.delta1, args.delta2),
        steps=args.steps, rate=args.rate, c=args.c,
    )
    header = ["step", "energy", "max_defect", "analyzer_residual"]
    columns = [np.array([getattr(r, name) for r in result.rows]) for name in header]
    text = reporting.to_csv(header, columns)
    if result.stopped:
        text += f"# stopped: {result.diagnostic}\n"
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# dispatch


def _add_common(sub, curve=True):
    """The shared flags; verify-example (curve=False) fixes curve, c and weights."""
    if curve:
        sub.add_argument("--curve", default=None,
                         help="curve file (default: built-in example)")
        sub.add_argument("--c", type=float, default=-3.0,
                         help="curvature c put into the paper's formulas; the "
                              "model space itself has c = -3, and flow's energy "
                              "does not read c (default -3)")
        sub.add_argument("--delta1", type=float, default=0.0,
                         help="weight on the length term (default 0)")
        sub.add_argument("--delta2", type=float, default=1.0,
                         help="weight on the bending term (default 1)")
    sub.add_argument("--grid", type=int, default=256,
                     help="number of parameter samples (default 256, min 16)")
    sub.add_argument("--tol", type=float, default=1e-6,
                     help="tolerance for rank/constancy decisions (default "
                          "1e-6); flow reads it only as its chord-defect "
                          "admission bound, and never below 1e-3")
    sub.add_argument("--out", default=None,
                     help="output file (default: stdout)")


def _add_analyze(subs):
    p = subs.add_parser("analyze", help="full pipeline on a curve, JSON report")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)


def _add_verify_example(subs):
    p = subs.add_parser("verify-example",
                        help="self-check on the built-in reference curve")
    _add_common(p, curve=False)
    p.set_defaults(func=cmd_verify_example)


def _add_scan(subs):
    p = subs.add_parser("scan", help="feasibility sweep over case parameters")
    p.add_argument("--case", choices=("I", "II", "III", "IV"), required=True)
    p.add_argument("--c-range", default="-3:-3:1", metavar="START:STOP:COUNT")
    p.add_argument("--k1-range", default="1:1:1", metavar="START:STOP:COUNT")
    p.add_argument("--k2-range", default="0:0:1", metavar="START:STOP:COUNT")
    p.add_argument("--alpha0-range", default="0:0:1",
                   metavar="START:STOP:COUNT")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)


def _add_flow(subs):
    p = subs.add_parser("flow", help="gradient descent on the weighted energy")
    _add_common(p)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--rate", type=float, default=0.05)
    p.set_defaults(func=cmd_flow)


@functools.cache
def build_parser():
    """The argument parser with all four subparsers, built on first use.

    argparse asks for the terminal size and looks up message translations
    for each add_argument call, so the build takes most of a millisecond;
    every later main call reuses it.  parse_args writes only the namespace
    it returns, never the parser, so sharing it carries no state from one
    command line to the next.
    """
    parser = argparse.ArgumentParser(
        prog="contactcurves",
        description="Legendre curve analysis in Sasakian space forms",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for add in (_add_analyze, _add_verify_example, _add_scan, _add_flow):
        add(subs)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CurveError, EvaluationError, discrete.DiscreteCurveError,
            analysis.AnalysisError, reporting.ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
