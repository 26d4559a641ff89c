"""The vectorised scan against the per-cell loop it replaced.

The oracle below is the scan as it stood before ``cmd_scan`` evaluated
``case_formula`` once over the whole grid: scalar case formulas squared with
Python's ``**``, one ``_scan_cell`` call per grid cell, and a row-wise CSV
writer that formats every cell on its own.  Random ranges in all four cases
must give the same stdout, stderr and exit code through ``cli.main``.  Range
bounds stay finite and no curvature exceeds 1e154, whose square the oracle
computes without overflow; non-finite cells come from sums and products
instead.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from contactcurves import analysis, cli

HEADER = ["case", "c", "k1", "k2", "alpha0", "rho",
          "constraint", "feasible", "verdict"]


# ---------------------------------------------------------------------------
# the oracle: the per-cell loop and the row-wise writer


class _OracleError(ValueError):
    pass


def _old_case_formula(case, c, k1, k2, alpha0=0.0):
    if case == "I":
        rho = 1.0 - (k1 ** 2 + k2 ** 2)
        return rho, rho, False
    if case == "II":
        return (c + 3.0) / 4.0 - (k1 ** 2 + k2 ** 2), None, c <= -3.0
    if case == "III":
        return c - 1.0 - k1 ** 2, None, c < 1.0
    constraint = 3.0 * (c - 1.0) * np.sin(2.0 * alpha0)
    rho = ((c + 3.0) / 4.0 + 3.0 * (c - 1.0) / 4.0 * np.cos(alpha0) ** 2
           - (k1 ** 2 + k2 ** 2))
    return float(rho), float(constraint), c <= -3.0


def _old_scan_cell(case, c, k1, k2, alpha0):
    if k1 == 0.0:
        return (case, c, k1, k2, None, None, None, True, analysis.GEODESIC_VERDICT)
    rho, constraint, threshold = _old_case_formula(case, c, k1, k2, alpha0)
    verdict = analysis.THRESHOLD_VERDICT if threshold else ""
    feasible = True
    if case == "I":
        feasible = abs(rho) > 1e-12
        if not feasible:
            verdict = analysis.EXCLUDED_VERDICT
    elif case == "III":
        k2 = 1.0
    elif case == "IV":
        feasible = constraint < 0.0
    return (case, c, k1, k2, alpha0 if case == "IV" else None, rho,
            constraint, feasible, verdict)


def _old_cell(value):
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    x = float(value)
    if not math.isfinite(x):
        raise _OracleError(f"non-finite value {x!r} in report payload")
    return format(x, ".17g")


def _old_to_csv(rows):
    lines = [",".join(HEADER)]
    for row in rows:
        lines.append(",".join(_old_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _old_parse_range(text, name):
    start, stop, count = text.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count == 1 and stop != start:
        raise _OracleError(f"{name}: a single-sample range needs start == stop")
    return np.linspace(start, stop, count)


def oracle_scan(case, c_range, k1_range, k2_range, alpha0_range):
    """(exit code, stdout, stderr) of the scan as the per-cell loop ran it."""
    try:
        cs = _old_parse_range(c_range, "--c-range")
        k1s = _old_parse_range(k1_range, "--k1-range")
        k2s = _old_parse_range(k2_range, "--k2-range")
        alphas = _old_parse_range(alpha0_range, "--alpha0-range")
        if np.any(k1s < 0.0) or np.any(k2s < 0.0):
            raise _OracleError("curvature ranges must be nonnegative")
        if case == "I":
            cs = np.array([1.0])
        if case == "III":
            k2s = np.array([1.0])
        if case != "IV":
            alphas = np.array([0.0])
        with np.errstate(all="ignore"):
            rows = [
                _old_scan_cell(case, float(c), float(k1), float(k2), float(a))
                for c in cs for k1 in k1s for k2 in k2s for a in alphas
            ]
        return 0, _old_to_csv(rows), ""
    except _OracleError as exc:
        return 2, "", f"error: {exc}\n"


def new_scan(case, c_range, k1_range, k2_range, alpha0_range):
    """(exit code, stdout, stderr) of cli.main, with warnings as errors."""
    argv = ["scan", "--case", case, f"--c-range={c_range}",
            f"--k1-range={k1_range}", f"--k2-range={k2_range}",
            f"--alpha0-range={alpha0_range}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# random ranges

ORDINARY = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)


def ranges(special):
    """start:stop:count text; bounds are ordinary floats or special values."""
    bound = st.one_of(ORDINARY, st.sampled_from(special))

    @st.composite
    def draw_range(draw):
        start = draw(bound)
        count = draw(st.integers(1, 5))
        stop = start if count == 1 else draw(bound)
        return f"{start!r}:{stop!r}:{count}"

    return draw_range()


C_RANGES = ranges([-5.0, -3.0, -0.0, 0.0, 1.0, 1e308])
K_RANGES = ranges([0.0, -0.0, 0.6, 0.8, 1.0, 1.885376393636725, 1e154])
ALPHA_RANGES = ranges([-0.0, 0.0, -math.pi / 4, math.pi / 2, 1e308])


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(["I", "II", "III", "IV"]), c_range=C_RANGES,
       k1_range=K_RANGES, k2_range=K_RANGES, alpha0_range=ALPHA_RANGES)
# case I: rho = 0 excluded rows (k1 = 1, k2 = 0) and k1 = 0 rows
@example(case="I", c_range="-3:-3:1", k1_range="0:1:6",
         k2_range="0:0.8:5", alpha0_range="0:0:1")
@example(case="I", c_range="-3:-3:1", k1_range="0.6:0.6:1",
         k2_range="0.8:0.8:1", alpha0_range="0:0:1")
# case IV: c <= -3 thresholds, negative alpha0, k1 = 0 rows, -0 constraints
@example(case="IV", c_range="-5:1:4", k1_range="0:2:3",
         k2_range="0:1:2", alpha0_range="-1:1:3")
# signed zeros on every axis
@example(case="IV", c_range="-0.0:2:3", k1_range="-0.0:-0.0:1",
         k2_range="-0.0:1:2", alpha0_range="-0.0:-0.0:1")
@example(case="II", c_range="-3:-0.0:2", k1_range="-0.0:1:2",
         k2_range="-0.0:-0.0:1", alpha0_range="0:0:1")
@example(case="III", c_range="-0.0:-0.0:1", k1_range="-0.0:2:3",
         k2_range="0:0:1", alpha0_range="0:0:1")
# non-finite cells after finite rows: rho overflows to -inf, then to inf
@example(case="I", c_range="1:1:1", k1_range="1e154:1e154:1",
         k2_range="0:1e154:2", alpha0_range="0:0:1")
@example(case="IV", c_range="0:1e308:2", k1_range="1:1:1",
         k2_range="0:0:1", alpha0_range="0:0.5:2")
# a non-finite rho and a nan constraint on geodesic rows stay empty cells
@example(case="IV", c_range="1e308:1e308:1", k1_range="0:0:1",
         k2_range="0:1e154:2", alpha0_range="0:0:1")
# alpha0 = 1e308: sin(2 alpha0) is nan, so the constraint is nan while
# rho stays finite
@example(case="IV", c_range="2:2:1", k1_range="0.5:0.5:1",
         k2_range="0:0:1", alpha0_range="1e308:1e308:1")
# a negative curvature range is refused before any cell
@example(case="II", c_range="0:1:2", k1_range="-1:1:3",
         k2_range="0:0:1", alpha0_range="0:0:1")
def test_scan_matches_the_per_cell_loop(case, c_range, k1_range, k2_range,
                                        alpha0_range):
    bounds = (c_range, k1_range, k2_range, alpha0_range)
    assert new_scan(case, *bounds) == oracle_scan(case, *bounds)


def test_oracle_reaches_every_branch():
    rc, out, _ = oracle_scan("I", "-3:-3:1", "0:1:6", "0:0.8:5", "0:0:1")
    assert rc == 0 and analysis.EXCLUDED_VERDICT in out
    assert analysis.GEODESIC_VERDICT in out
    rc, out, _ = oracle_scan("IV", "-5:1:4", "0:2:3", "0:1:2", "-1:1:3")
    assert rc == 0 and analysis.THRESHOLD_VERDICT in out and ",-0," in out
    rc, _, err = oracle_scan("I", "1:1:1", "1e154:1e154:1", "0:1e154:2",
                             "0:0:1")
    assert rc == 2 and err == "error: non-finite value -inf in report payload\n"
    rc, out, _ = oracle_scan("IV", "1e308:1e308:1", "0:0:1", "0:1e154:2",
                             "0:0:1")
    assert rc == 0 and out.count(analysis.GEODESIC_VERDICT) == 2
