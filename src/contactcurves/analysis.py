"""Variational residuals of Legendre curves and their frame expansion.

For a unit-speed curve with velocity T the two base fields are

    tau  = nabla_T T                      (first variation of energy)
    tau2 = nabla_T^3 T - R(T, nabla_T T)T (first variation of bending)

and the object of interest is the weighted residual

    residual(d1, d2) = d2 * tau2 - d1 * tau.

A curve is critical for the mixed functional with weights (d1, d2) exactly
when this vanishes.  The residual is computed along two fully independent
routes: :func:`residual_direct` runs covariant calculus on jets, while
:func:`residual_closed_form` assembles the known frame expansion

    (-3 d2 k1 k1') E1
  + [d2 (k1'' - k1^3 - k1 k2^2 + ((c+3)/4) k1) - d1 k1] E2
  + d2 (2 k1' k2 + k1 k2') E3
  + d2 (k1 k2 k3) E4
  + 3 ((c-1)/4) d2 k1 f phiT
  - ((c-1)/4) d2 k1 eta(E2) xi

from curvatures and the frame scalars f = g(phi T, E2) etc.  The tests pin
the two routes against each other; neither is ever derived from the other.
Both can share one FrenetData: the direct route reads only its velocity jet
and frames, never the curvatures.

Scalar projections of the residual onto E_1..E_m (m = min(r, 4)) give the
per-equation checks: the residual vanishes iff those m scalars vanish and
the phiT / xi correction terms stay inside span{E_1..E_m}.

Every verdict is decided here: :func:`case_formula` is the one case table,
read by the scan over a whole grid and by :func:`solve_delta` for one curve.

The ambient connection is that of the concrete model; the parameter c only
enters through the space-form curvature formula, so values other than -3
describe the frame algebra of the general space form over the concrete
contact structure (which is all the classification needs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _curve_frames, _nabla_along, frenet_apparatus
from .model import (eta_frame, metric_frame, phi_frame,
                    space_form_curvature_frame)

__all__ = [
    "AnalysisError",
    "ResidualReport",
    "TheoremCheck",
    "EquationCheck",
    "CurveClass",
    "DeltaSolution",
    "IndependenceReport",
    "tension",
    "bitension",
    "residual_direct",
    "residual_closed_form",
    "theorem31_check",
    "classify",
    "case_formula",
    "solve_delta",
    "VERDICTS",
    "GEODESIC_VERDICT",
    "THRESHOLD_VERDICT",
    "EXCLUDED_VERDICT",
    "independence_check",
]

CONSTANCY_TOL = 1e-6


class AnalysisError(ValueError):
    """Raised when residual analysis is asked for structurally missing data."""


# ---------------------------------------------------------------------------
# direct route


def _bitension_parts(n, T, c):
    """Values of tau = nabla_T T and tau2 = nabla_T^3 T - R(T, tau)T.

    Each covariant derivative costs one order and only values are read,
    so T is cut to order 3 first; truncation leaves every value unchanged.
    """
    T = T.truncate(3)
    tau = _nabla_along(n, T, T)
    tau_3 = _nabla_along(n, T, _nabla_along(n, T, tau))
    curv = space_form_curvature_frame(c, T.value, tau.value, T.value, n)
    return tau.value, tau_3.value - curv


def tension(spec, ts):
    """nabla_T T along the curve, in frame components, shape (2n+1, N)."""
    return _bitension_parts(spec.n, _curve_frames(spec, ts, 4)[2], -3.0)[0]


def bitension(spec, ts, c=-3.0):
    """nabla_T^3 T - R(T, nabla_T T)T in frame components, shape (2n+1, N)."""
    return _bitension_parts(spec.n, _curve_frames(spec, ts, 4)[2], c)[1]


def _span_leakage(vec, frames_m):
    """Norm of the part of vec outside the span of the given frame vectors.

    vec has shape (dim, N); frames_m has shape (m, dim, N).  The frames are
    orthonormal, so projection is a plain sum of inner products.
    """
    rem = vec.copy()
    for e in frames_m:
        rem -= metric_frame(vec, e)[np.newaxis] * e
    return np.sqrt(metric_frame(rem, rem))


@dataclass
class ResidualReport:
    """The weighted residual on a grid, with its m scalar equations.

    equation_residuals holds the m scalar equations: on the direct route
    the inner products of the residual with E1..E_m, on the closed-form
    route their assembly from the expansion coefficients.  structural
    carries those coefficients, {"E": (4, N) rows for E1..E4, "phiT": (N,),
    "xi": (N,)}, and is None on the direct route.
    """

    vector: np.ndarray                 # (2n+1, N) frame components
    equation_residuals: np.ndarray     # (m, N)
    structural: dict | None = None

    @property
    def max_norm(self):
        if not self.vector.size:
            return 0.0
        return float(np.max(np.sqrt(metric_frame(self.vector, self.vector))))

    @property
    def equations(self):
        """Max absolute residual of each of the m scalar equations."""
        return [float(np.max(np.abs(row))) for row in self.equation_residuals]


def _direct_reports(frenet, c, deltas):
    """The direct route on Frenet data the caller already built.

    One report per weight pair in deltas, all weighting one tau and tau2.
    Only the velocity jet frenet.frame_jets[0] and the frames enter the
    residual vector: the curvatures and their jets belong to the
    closed-form route and are never read here, which keeps the two routes
    independent.
    """
    tau, tau2 = _bitension_parts(frenet.n, frenet.frame_jets[0], c)
    reports = []
    for d1, d2 in deltas:
        vector = float(d2) * tau2 - float(d1) * tau
        eqs = np.stack([
            metric_frame(vector, frenet.frames[i])
            for i in range(frenet.m)
        ])
        reports.append(ResidualReport(vector, eqs))
    return reports


def residual_direct(spec, ts, c=-3.0, delta=(0.0, 1.0)):
    """d2 * bitension - d1 * tension by covariant calculus, decomposed."""
    return _direct_reports(frenet_apparatus(spec, ts), c, [delta])[0]


# ---------------------------------------------------------------------------
# closed-form route


def _structural_coefficients(frenet, scalars, c, delta):
    """Expansion coefficients: "E" rows for E1..E4, then "phiT" and "xi"."""
    d1, d2 = float(delta[0]), float(delta[1])
    N = frenet.ts.size
    if frenet.r < 2:
        return {"E": np.zeros((4, N)), "phiT": np.zeros(N), "xi": np.zeros(N)}
    k1, k1p, k1pp = frenet.curvature_derivs(0, upto=2)
    if frenet.r >= 3:
        k2, k2p = frenet.curvature_derivs(1, upto=1)
    else:
        k2 = np.zeros(N)
        k2p = np.zeros(N)
    k3 = frenet.curvatures[2] if frenet.r >= 4 else np.zeros(N)
    q = (c - 1.0) / 4.0
    return {
        "E": np.stack([
            -3.0 * d2 * k1 * k1p,
            d2 * (k1pp - k1 ** 3 - k1 * k2 ** 2 + (c + 3.0) / 4.0 * k1)
            - d1 * k1,
            d2 * (2.0 * k1p * k2 + k1 * k2p),
            d2 * k1 * k2 * k3,
        ]),
        "phiT": 3.0 * q * d2 * k1 * scalars.f,
        "xi": -q * d2 * k1 * scalars.eta[1],
    }


def residual_closed_form(frenet, scalars, c=-3.0, delta=(0.0, 1.0)):
    """The frame expansion of the residual, reassembled into a vector."""
    n = frenet.n
    m = frenet.m
    co = _structural_coefficients(frenet, scalars, c, delta)
    vector = np.zeros((2 * n + 1, frenet.ts.size))
    for i in range(m):
        vector += co["E"][i] * frenet.frames[i]
    vector += co["phiT"] * scalars.phiT
    vector[2 * n] += co["xi"]

    # scalar equations: projections of the expansion onto E1..E_m
    eqs = co["E"][:m] + (co["phiT"] * scalars.g_phiT[:m]
                         + co["xi"] * scalars.eta[:m])
    return ResidualReport(vector, eqs, co)


# ---------------------------------------------------------------------------
# theorem check


@dataclass
class EquationCheck:
    index: int
    max_residual: float
    passed: bool


@dataclass
class TheoremCheck:
    """Scalar criticality equations plus the span condition on phi T terms.

    report is the closed-form residual the equations were read from.
    """

    equations: list
    condition1_mode: str       # "c=1" | "orthogonal" | "span" | "violated"
    condition1_leakage: float
    condition1_passed: bool
    report: ResidualReport

    @property
    def passed(self):
        return self.condition1_passed and all(e.passed for e in self.equations)


def theorem31_check(frenet, scalars, c=-3.0, delta=(0.0, 1.0), tol=1e-6):
    """Evaluate the m scalar equations and the phiT/xi span condition.

    The criticality system holds iff the first m = min(r, 4) scalar
    equations vanish and the phi T and xi correction terms carry nothing
    outside span{E_1..E_m}.
    """
    report = residual_closed_form(frenet, scalars, c, delta)
    checks = [EquationCheck(i + 1, peak, peak <= tol)
              for i, peak in enumerate(report.equations)]

    n = frenet.n
    N = frenet.ts.size
    co = report.structural
    if abs(c - 1.0) < 1e-12:
        mode, leak = "c=1", 0.0
    else:
        extra = co["phiT"][np.newaxis] * scalars.phiT
        extra[2 * n] += co["xi"]
        leak_arr = _span_leakage(extra, frenet.frames[:frenet.m])
        leak = float(np.max(leak_arr)) if N else 0.0
        if np.max(np.abs(scalars.f)) <= tol:
            mode = "orthogonal"
        elif leak <= tol:
            mode = "span"
        else:
            mode = "violated"
    passed = mode != "violated" and leak <= tol
    return TheoremCheck(
        equations=checks,
        condition1_mode=mode,
        condition1_leakage=leak,
        condition1_passed=passed,
        report=report,
    )


# ---------------------------------------------------------------------------
# classification


@dataclass
class CurveClass:
    """Coarse curve type plus the analysis case the curve falls into."""

    klass: str                 # geodesic | circle | helix | general
    case: str                  # "I" | "II" | "III" | "IV"
    alpha0: float | None = None
    w0: float | None = None
    w0_variance: float | None = None
    f_mean: float | None = None
    diagnostics: list = field(default_factory=list)


def _is_const(arr, tol):
    return float(np.ptp(arr)) <= tol if arr.size else True


def _slant_constants(frenet, scalars, c):
    """Case-IV (alpha0, w0, w0 variance) of a curve whose f is constant.

    alpha0 is the angle of (<f>, <g(phi T, E4)>); w0 and its variance are
    the mean and variance of k2^2 + 3((c-1)/4) f^2.  classify tests the
    constancy of f before it calls this.
    """
    f = scalars.f
    alpha0 = math.atan2(float(np.mean(scalars.g_phiT[3])), float(np.mean(f)))
    w_samples = f ** 2 * (3.0 * (c - 1.0) / 4.0)
    if frenet.r >= 3:
        w_samples = frenet.curvatures[1] ** 2 + w_samples
    return alpha0, float(np.mean(w_samples)), float(np.var(w_samples))


def classify(frenet, scalars, c=-3.0, tol=CONSTANCY_TOL):
    """Assign geodesic/circle/helix/general and the case tag I..IV."""
    diagnostics = []
    if frenet.r == 1:
        klass = "geodesic"
    elif frenet.r == 2 and _is_const(frenet.curvatures[0], tol):
        klass = "circle"
    elif (frenet.r == 3 and _is_const(frenet.curvatures[0], tol)
          and _is_const(frenet.curvatures[1], tol)):
        klass = "helix"
    else:
        klass = "general"
        if frenet.r <= 3:
            diagnostics.append("curvatures not constant within tol")

    f = scalars.f
    alpha0 = None
    w0 = None
    w0_var = None
    f_mean = float(np.mean(f)) if f.size else 0.0
    if abs(c - 1.0) < 1e-12:
        case = "I"
    elif np.max(np.abs(f)) <= tol:
        case = "II"
    elif np.max(np.abs(np.abs(f) - 1.0)) <= tol:
        case = "III"
    else:
        case = "IV"
        if _is_const(f, tol):
            alpha0, w0, w0_var = _slant_constants(frenet, scalars, c)
            g4 = float(np.mean(scalars.g_phiT[3]))
            sin_check = abs(math.sin(alpha0) - g4)
            if sin_check > 10 * tol:
                diagnostics.append(
                    f"g(phi T, E4) deviates from sin(alpha0) by {sin_check:.2e}"
                )
        else:
            klass = "general"
            diagnostics.append(
                "f = g(phi T, E2) is not constant; case-IV constants "
                "(alpha0, w0) are undefined and the ODE system applies"
            )
    return CurveClass(
        klass=klass,
        case=case,
        alpha0=alpha0,
        w0=w0,
        w0_variance=w0_var,
        f_mean=f_mean,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# case table and delta solver


GEODESIC_VERDICT = "geodesic: any delta admissible"
THRESHOLD_VERDICT = "geodesic only for delta1/delta2 >= 0"
EXCLUDED_VERDICT = "excluded: requires delta1/delta2 != 0"
# case_formula's verdict by code: 0 none, 1 threshold, 2 excluded, 3 geodesic
VERDICTS = ("", THRESHOLD_VERDICT, EXCLUDED_VERDICT, GEODESIC_VERDICT)


def case_formula(case, c, k1, k2, alpha0=0.0):
    """(rho, constraint, feasible, verdict) of a constant-curvature curve.

    rho = d1/d2; constraint is rho in case I, 3(c-1) sin(2 alpha0) in case
    IV, else None.  feasible is the one feasibility rule: rho != 0
    (|rho| > 1e-12) in case I, constraint < 0 in case IV, always in cases
    II and III and wherever k1 = 0.  verdict indexes VERDICTS: 3 where
    k1 = 0 (no frame past T: a geodesic), else 2 where case I is
    infeasible, else 1 where a nonnegative rho admits only geodesics
    (c <= -3 in cases II and IV, c < 1 in III, which reads k1 only), else
    0.  The scan and solve_delta both read this table.

    Scalar arguments give Python floats, bools and ints.  Broadcastable
    arrays give arrays, elementwise bitwise equal to the scalar calls:
    squares go through np.float_power, which rounds as Python's pow does,
    where numpy's ``x ** 2`` on an array computes x*x and can differ by an
    ulp.
    """
    sq = np.float_power
    if case == "I":
        rho = 1.0 - (sq(k1, 2.0) + sq(k2, 2.0))
        constraint = rho
        feasible = np.abs(rho) > 1e-12
        verdict = np.where(feasible, 0, 2)
    elif case == "II":
        rho = (c + 3.0) / 4.0 - (sq(k1, 2.0) + sq(k2, 2.0))
        constraint, feasible = None, True
        verdict = np.where(c <= -3.0, 1, 0)
    elif case == "III":
        rho = c - 1.0 - sq(k1, 2.0)
        constraint, feasible = None, True
        verdict = np.where(c < 1.0, 1, 0)
    elif case == "IV":
        constraint = 3.0 * (c - 1.0) * np.sin(2.0 * alpha0)
        rho = ((c + 3.0) / 4.0 + 3.0 * (c - 1.0) / 4.0 * sq(np.cos(alpha0), 2.0)
               - (sq(k1, 2.0) + sq(k2, 2.0)))
        feasible = constraint < 0.0
        verdict = np.where(c <= -3.0, 1, 0)
    else:
        raise AnalysisError(f"case must be I, II, III or IV, got {case!r}")
    geodesic = np.equal(k1, 0.0)
    feasible = np.logical_or(feasible, geodesic)
    verdict = np.where(geodesic, 3, verdict)
    if np.ndim(rho) == 0:
        return (float(rho), None if constraint is None else float(constraint),
                bool(feasible), int(verdict))
    return rho, constraint, feasible, verdict


@dataclass
class DeltaSolution:
    """Weight ratios rho = d1/d2 (with d2 = 1) that can kill the residual."""

    classification: CurveClass
    rho: float | None
    rho_pointwise: np.ndarray | None
    rho_spread: float
    parallel_defect: float
    feasible: bool
    verdict: str                # the table's own verdict, else how a pair fits
    any_delta: bool = False
    k2_deviation: float | None = None
    notes: list = field(default_factory=list)

    @property
    def delta(self):
        if self.rho is None:
            return None
        return (self.rho, 1.0)


def solve_delta(frenet, scalars, c=-3.0, tol=CONSTANCY_TOL):
    """Solve d2 tau2 = d1 tau for the ratio rho = d1/d2, case by case.

    Normalization fixes d2 = 1.  Alongside the case formula the solver
    always evaluates the pointwise ratio rho(t) = <tau2, tau>/<tau, tau>
    and the parallelism defect |tau2 - rho(t) tau|; a spread in rho(t) or a
    nonzero defect means no constant pair works.  Where a case formula
    applies, feasibility and the verdict also take the table's rule from
    case_formula.
    """
    cls = classify(frenet, scalars, c, tol)
    if frenet.r == 1:
        return DeltaSolution(
            classification=cls, rho=None, rho_pointwise=None,
            rho_spread=0.0, parallel_defect=0.0, feasible=True,
            verdict=GEODESIC_VERDICT, any_delta=True,
            notes=["geodesic: residual vanishes for every (d1, d2)"],
        )

    k1 = frenet.curvatures[0]
    K1 = float(np.mean(k1))
    K2 = float(np.mean(frenet.curvatures[1])) if frenet.r >= 3 else 0.0

    # pointwise ratio from the pure-bending residual (d = (0, 1))
    pure = residual_closed_form(frenet, scalars, c, (0.0, 1.0))
    rho_t = pure.equation_residuals[1] / k1
    tau_vec = k1[np.newaxis] * frenet.frames[1]
    defect_vec = pure.vector - rho_t[np.newaxis] * tau_vec
    parallel_defect = float(np.max(np.sqrt(
        metric_frame(defect_vec, defect_vec))))
    rho_spread = float(np.ptp(rho_t))

    notes = []
    k2_dev = None
    feasible = parallel_defect <= max(tol, 1e-6 * float(np.max(np.abs(k1))))
    if rho_spread > tol:
        notes.append(
            f"pointwise ratio varies by {rho_spread:.3e}: no constant "
            f"(d1, d2) kills the residual"
        )
        feasible = False

    if cls.case == "IV":
        applies = cls.alpha0 is not None and all(
            _is_const(frenet.curvatures[i], tol)
            for i in range(min(frenet.r - 1, 3)))
    else:
        applies = cls.klass in ("circle", "helix")
    if not applies:
        rho, code, feasible = None, 0, False
        notes.append("no case formula applies; see the pointwise ratio")
    else:
        rho, _, table_feasible, code = case_formula(
            cls.case, c, K1, K2, cls.alpha0)
        feasible &= table_feasible
        if cls.case == "I":
            notes.append("1 - rho = k1^2 + k2^2 >= 0 holds by construction")
            if not table_feasible:
                notes.append("rho = 0: the curve is critical for bending alone")
        elif cls.case == "II" and code == 1:
            notes.append("c <= -3 forces rho < 0 for non-geodesics")
        elif cls.case == "III":
            k2_dev = (
                float(np.max(np.abs(frenet.curvatures[1] - 1.0)))
                if frenet.r >= 3 else 1.0
            )
            if k2_dev > tol:
                notes.append(
                    f"second curvature deviates from 1 by {k2_dev:.3e}, in "
                    f"tension with this case's constraint"
                )
        elif cls.case == "IV" and not table_feasible:
            notes.append(
                "sign constraint 3(c-1) sin(2 alpha0) < 0 fails: no "
                "admissible pair"
            )

    if rho is not None and rho_spread <= tol:
        gap = abs(rho - float(np.mean(rho_t)))
        if gap > 1e-5 * max(1.0, abs(rho)):
            notes.append(
                f"case formula and pointwise ratio disagree by {gap:.3e}"
            )
    if code >= 2:       # the table names the verdict: excluded or geodesic
        verdict = VERDICTS[code]
    elif rho is None:
        verdict = "no constant weight ratio fits this curve"
    elif feasible:
        verdict = "critical for delta proportional to (rho, 1)"
    else:
        verdict = "required ratio violates the case constraints"
    return DeltaSolution(
        classification=cls,
        rho=rho,
        rho_pointwise=rho_t,
        rho_spread=rho_spread,
        parallel_defect=parallel_defect,
        feasible=feasible,
        verdict=verdict,
        k2_deviation=k2_dev,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# independence of the case-II frame set


@dataclass
class IndependenceReport:
    """Verdict of :func:`independence_check`.

    min_gram_eigenvalue is the smallest eigenvalue, over the grid, of the
    3x3 Gram matrix of phi T, nabla_T phi T and xi after projection off
    span{T, E2(, E3)}; 0.0 when the ambient dimension is too small.  It is
    computed from the Frenet data alone: the curve spec the check takes is
    not read.
    """

    independent: bool
    min_gram_eigenvalue: float
    set_size: int
    implied_n_bound: int
    note: str = ""


def _sym3_min_eigenvalue(s00, s11, s22, s01, s02, s12):
    """Smallest eigenvalue of symmetric 3x3 matrices, every sample at once.

    The arguments are the six distinct entries, arrays of one shape.  The
    trigonometric solution of the characteristic cubic (Smith, CACM 1961)
    gives every eigenvalue, but one that nearly coincides with another
    loses half its digits there.  With the spread p and the angle parameter
    r of that solution, r <= 0 puts the smallest eigenvalue at least 3p/2
    below the other two, and the cubic gives it to working accuracy.
    Otherwise the largest is isolated: its eigenvector, read off the
    adjugate of S - lambda_1 I, is deflated, and the smaller eigenvalue of
    the 2x2 matrix left on the orthogonal plane is taken in closed form.
    """
    q = (s00 + s11 + s22) / 3.0
    a, b, c = s00 - q, s11 - q, s22 - q
    p2 = (a * a + b * b + c * c
          + 2.0 * (s01 * s01 + s02 * s02 + s12 * s12)) / 6.0
    p = np.sqrt(p2)
    det = (a * (b * c - s12 * s12) + s01 * (s12 * s02 - s01 * c)
           + s02 * (s01 * s12 - b * s02))
    r = np.divide(det, 2.0 * p2 * p, out=np.zeros_like(p), where=p2 > 0.0)
    theta = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    cubic = q + 2.0 * p * np.cos(theta + 2.0 * np.pi / 3.0)

    lam1 = q + 2.0 * p * np.cos(theta)
    # the eigenvector of lambda_1: the longest column of adj(S - lambda_1 I),
    # each column being the cross product of two rows; for a rank-one
    # adjugate the longest column holds the largest diagonal entry
    a, b, c = s00 - lam1, s11 - lam1, s22 - lam1
    A00, A11, A22 = b * c - s12 * s12, a * c - s02 * s02, a * b - s01 * s01
    A01, A02 = s02 * s12 - s01 * c, s01 * s12 - s02 * b
    A12 = s01 * s02 - a * s12
    d0, d1, d2 = np.abs(A00), np.abs(A11), np.abs(A22)
    col0, col1 = (d0 >= d1) & (d0 >= d2), d1 >= d2
    x, y, z = (np.where(col0, c0, np.where(col1, c1, c2)) for c0, c1, c2 in
               ((A00, A01, A02), (A01, A11, A12), (A02, A12, A22)))
    vv = x * x + y * y + z * z
    inv = np.divide(1.0, np.sqrt(vv), out=np.zeros_like(vv), where=vv > 0.0)
    x, y, z = x * inv, y * inv, z * inv
    # orthonormal basis u, w of the plane orthogonal to the unit (x, y, z)
    # (Duff et al., JCGT 2017): |sign + z| >= 1, so nothing divides by zero,
    # and a zero column still gives the orthonormal pair e0, e1
    sign = np.copysign(1.0, z)
    h = -1.0 / (sign + z)
    k = x * y * h
    u = (1.0 + sign * x * x * h, sign * k, -sign * x)
    w = (k, sign + y * y * h, -y)
    Sw = (s00 * w[0] + s01 * w[1] + s02 * w[2],
          s01 * w[0] + s11 * w[1] + s12 * w[2],
          s02 * w[0] + s12 * w[1] + s22 * w[2])
    Su = (s00 * u[0] + s01 * u[1] + s02 * u[2],
          s01 * u[0] + s11 * u[1] + s12 * u[2],
          s02 * u[0] + s12 * u[1] + s22 * u[2])
    g_uu = u[0] * Su[0] + u[1] * Su[1] + u[2] * Su[2]
    g_ww = w[0] * Sw[0] + w[1] * Sw[1] + w[2] * Sw[2]
    g_uw = u[0] * Sw[0] + u[1] * Sw[1] + u[2] * Sw[2]
    mean = 0.5 * (g_uu + g_ww)
    half = 0.5 * (g_uu - g_ww)
    radius = np.sqrt(half * half + g_uw * g_uw)
    # the smaller root without cancellation: det / larger when mean > 0
    plane = mean - radius
    np.divide(g_uu * g_ww - g_uw * g_uw, mean + radius, out=plane,
              where=mean > 0.0)
    return np.where(r > 0.0, plane, cubic)


def independence_check(spec, frenet, tol=1e-8):
    """Pointwise independence of {T, E2, (E3), phi T, nabla_T phi T, xi}.

    Defined for osculating order 2 or 3.  The Frenet frames are
    orthonormal, so the set is independent exactly where phi T,
    nabla_T phi T and xi stay independent after projection off
    span{T, E2(, E3)}.  The reported value is the smallest eigenvalue of
    their 3x3 Gram matrix over the grid; a value above tol certifies
    independence and hence the dimension bound n >= 2 (order 2) or n >= 3
    (order 3).  It is the Schur complement of the frame block in the full
    Gram matrix of the set, so it is never below that matrix's smallest
    eigenvalue, and both vanish on the same curves.  Where
    f = g(phi T, E2) vanishes identically, the frames are orthogonal to
    all three vectors and the two values are equal.

    spec is not read: everything comes from the jets in frenet.  It stays
    the first positional parameter because callers, the CLI and the
    perfbench families jobs among them, pass it there.
    """
    if frenet.r not in (2, 3):
        raise AnalysisError(
            f"independence set is defined for osculating order 2 or 3, "
            f"got r={frenet.r}"
        )
    n = frenet.n
    dim = 2 * n + 1
    size = frenet.r + 3
    bound = size // 2  # smallest n with 2n+1 >= size
    if dim < size:
        return IndependenceReport(
            independent=False,
            min_gram_eigenvalue=0.0,
            set_size=size,
            implied_n_bound=bound,
            note=(f"ambient dimension {dim} cannot hold {size} independent "
                  f"vectors; the bound n >= {bound} is confirmed"),
        )
    if not frenet.frame_jets:
        raise AnalysisError(
            "independence_check needs jet-backed FrenetData from "
            "frenet_apparatus"
        )
    Tj = frenet.frame_jets[0].truncate(1)   # only values are read
    phiT_jet = phi_frame(Tj, n)
    phiT, dphiT = phiT_jet.value, _nabla_along(n, Tj, phiT_jet).value
    xi_xi = 1.0
    for e in frenet.frames:
        phiT = phiT - metric_frame(phiT, e) * e
        dphiT = dphiT - metric_frame(dphiT, e) * e
        xi_xi = xi_xi - eta_frame(e) ** 2
    # phi T and nabla_T phi T are now orthogonal to the frames, so their
    # pairing with the projected xi is their eta
    gram = (metric_frame(phiT, phiT), metric_frame(dphiT, dphiT), xi_xi,
            metric_frame(phiT, dphiT), eta_frame(phiT), eta_frame(dphiT))
    min_eig = float(np.min(_sym3_min_eigenvalue(*gram)))
    return IndependenceReport(
        independent=min_eig > tol,
        min_gram_eigenvalue=min_eig,
        set_size=size,
        implied_n_bound=bound,
    )
