"""Curves in the model space: evaluation, Legendre construction, Frenet frames.

A curve is a tuple of coordinate sources, one per ambient coordinate
(x_1..x_n, y_1..y_n, z).  A source is either a parsed expression of t or, for
the z slot of curves built by :func:`make_legendre`, an integral whose value
is obtained by adaptive quadrature and whose derivatives come straight from
the integrand.  Everything is a truncated Taylor jet pass: positions and
the z integrand are value slots, and velocity, covariant derivatives,
Frenet frames and curvature functions read higher slots, so derivatives
are exact up to the jet order; no finite differencing happens here.

The model's frame depends on the y coordinates only, so the analysis path
(speed and Legendre defect, covariant derivatives, Frenet frames) reads the
velocity jet and the y jet and never a z value.  The z integral is
therefore evaluated only where positions are read: :func:`coordinate_jets`
and so :meth:`CurveSpec.point`.

One jet pass over a curve evaluates each distinct function call once: all
coordinates are evaluated in one sharing scope (see
:meth:`contactcurves.expressions.Expr.evaluate`) that lives for that pass
only, and the Taylor tail of a :func:`make_legendre` z reads the x and y
profile jets the pass has already built.

Tangent vectors along a curve are handled in frame coefficients, i.e. the
components against (X_1..X_n, X_{n+1}..X_{2n}, xi), with the frame algebra
of :mod:`contactcurves.model` applied to jets.  The covariant derivative of
a coefficient jet V along the curve is the coefficient derivative plus the
bilinear connection term :func:`contactcurves.model.gamma_frame`.  The
Frenet jets have order 5, which decides every osculating order up to 4 and
gives the curvature derivatives the analysis reads; a curve in n >= 3 that
turns out to have r >= 5 is rebuilt once at order 2n+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .expressions import EvaluationError, Expr, parse
from .model import eta_frame, gamma_frame, metric_frame, phi_frame, to_frame

__all__ = [
    "CurveError",
    "QuadratureError",
    "CurveSpec",
    "FrenetData",
    "FrameScalars",
    "ArclengthReport",
    "make_legendre",
    "coordinate_jets",
    "velocity",
    "legendre_defect",
    "arclength_check",
    "frenet_apparatus",
    "frame_scalars",
    "sample_grid",
]


class CurveError(ValueError):
    """Raised when a curve fails a structural requirement."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to converge."""


# ---------------------------------------------------------------------------
# quadrature (used only for the z value of constructed Legendre curves)

_GL_NODES_LO, _GL_WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_GL_NODES_HI, _GL_WEIGHTS_HI = np.polynomial.legendre.leggauss(20)


def _gl_rules(f, a, b):
    """The 10- and 20-point Gauss rules on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return (half * float(np.dot(_GL_WEIGHTS_LO, f(mid + half * _GL_NODES_LO))),
            half * float(np.dot(_GL_WEIGHTS_HI, f(mid + half * _GL_NODES_HI))))


# Bisection halves the per-panel tolerance so that the panel errors sum to
# at most tol, but never below this floor: past it the two rules differ by
# roundoff alone.
_TOL_FLOOR = 64.0 * np.finfo(float).eps


def _adaptive_quad(f, a, b, tol=1e-12, _depth=0, _rules=None):
    """Integrate f over [a, b], bisecting until two Gauss rules agree.

    Of the two halves, the one whose rules disagree more is bisected first,
    so a panel that cannot converge (a non-integrable singularity) exhausts
    the depth, and is named, before its neighbours are refined.
    """
    coarse, fine = _gl_rules(f, a, b) if _rules is None else _rules
    err = abs(fine - coarse)
    if err <= tol * max(1.0, abs(fine)):
        return fine
    if _depth >= 40:
        raise QuadratureError(
            f"quadrature did not converge on [{a:.6g}, {b:.6g}]: "
            f"estimated error {err:.3e} after {_depth} bisections"
        )
    mid = 0.5 * (a + b)
    tol = max(0.5 * tol, _TOL_FLOOR)
    halves = [(a, mid, _gl_rules(f, a, mid)), (mid, b, _gl_rules(f, mid, b))]
    halves.sort(key=lambda h: abs(h[2][1] - h[2][0]), reverse=True)
    return sum(_adaptive_quad(f, lo, hi, tol, _depth + 1, rules)
               for lo, hi, rules in halves)


_GL_NODES_PAIR = np.concatenate((_GL_NODES_LO, _GL_NODES_HI))
_GL_WEIGHTS_PAIR = np.zeros((_GL_NODES_PAIR.size, 2))
_GL_WEIGHTS_PAIR[:_GL_NODES_LO.size, 0] = _GL_WEIGHTS_LO
_GL_WEIGHTS_PAIR[_GL_NODES_LO.size:, 1] = _GL_WEIGHTS_HI


def _composite_quad(f, a, b, tol=1e-12):
    """Integrate f over every panel [a[k], b[k]] at once.

    Both Gauss rules of all panels come from a single call of f on a
    (panels, 30) node array.  A panel whose rules disagree by more than
    _adaptive_quad accepts is handed to _adaptive_quad, which bisects it
    depth first.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, np.newaxis] + half[:, np.newaxis] * _GL_NODES_PAIR
    sums = half[:, np.newaxis] * (f(nodes) @ _GL_WEIGHTS_PAIR)
    coarse, fine = sums[:, 0], sums[:, 1]
    accepted = np.abs(fine - coarse) <= tol * np.maximum(1.0, np.abs(fine))
    for k in np.flatnonzero(~accepted):
        fine[k] = _adaptive_quad(f, a[k], b[k], tol)
    return fine


# ---------------------------------------------------------------------------
# coordinate sources


class IntegralCoordinate:
    """Coordinate of the form z0 + integral_0^t of a derived integrand.

    The integrand here is always sum_i y_i(s) x_i'(s), assembled from the
    profile expressions of :func:`make_legendre`.  Jets of this coordinate are
    exact in every derivative slot; only the order-zero value goes through
    quadrature, and :meth:`_taylor_tail` gives the other slots without it,
    from the profile jets of the pass's sharing scope.
    """

    def __init__(self, z0, x_exprs, y_exprs):
        self.z0 = float(z0)
        self.x_exprs = tuple(x_exprs)
        self.y_exprs = tuple(y_exprs)

    def values(self, ts):
        """Cumulative integral at each of ts (not assumed sorted).

        Integrates over the consecutive gaps of the distinct parameters with
        0 spliced in as the reference point, then shifts the running sum so
        that the entry at 0 equals z0.  One batched pass evaluates the 10-
        and 20-point Gauss rules of every gap in a single integrand jet;
        only the gaps where the two rules disagree are bisected, one by one.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        anchors, at = np.unique(np.append(0.0, ts), return_inverse=True)
        running = np.cumsum(np.append(0.0, _composite_quad(
            lambda s: self._integrand_jet(jets.variable(s, 1), {}).value,
            anchors[:-1], anchors[1:],
        )))
        return self.z0 + running[at[1:]] - running[at[0]]

    def evaluate(self, t, shared):
        """Jet of the coordinate over the variable jet t, whose values are 1-D.

        shared is the sharing scope of the pass, as for Expr.evaluate.
        """
        tail = self._taylor_tail(t, shared)
        return jets.Jet(np.concatenate((self.values(t.value)[np.newaxis], tail)))

    def _taylor_tail(self, t, shared):
        """Taylor coefficients 1..K at t's values: integrand coefficient k-1 over k."""
        K = t.order
        if K < 1:
            return np.zeros((0,) + t.shape)
        k = np.arange(1, K + 1, dtype=float)[:, np.newaxis]
        return self._integrand_jet(t, shared).coeffs / k

    def _integrand_jet(self, t, shared):
        """Jet of sum_i y_i x_i' at one order below t.

        Each y_i is evaluated at t's order, where the pass has already built
        it, and truncated: truncated Taylor arithmetic is causal, so this is
        the jet that evaluating y_i on a truncated variable gives.
        """
        K = t.order - 1
        total = None
        for xe, ye in zip(self.x_exprs, self.y_exprs):
            y = ye.evaluate(t, shared).truncate(K)
            term = y * xe.evaluate(t, shared).derivative()
            total = term if total is None else total + term
        return total

    @property
    def text(self):
        xs = ", ".join(e.text for e in self.x_exprs)
        ys = ", ".join(e.text for e in self.y_exprs)
        return f"{self.z0!r} + integral of sum(y*x') for x=({xs}), y=({ys})"


class CurveSpec:
    """A parametric curve in the (2n+1)-dimensional model space.

    coords holds one source per coordinate in the order
    x_1..x_n, y_1..y_n, z.  Plain strings are parsed as expressions of t.
    """

    def __init__(self, n, coords, period=2.0 * np.pi, closed=True):
        n = int(n)
        if n < 1:
            raise CurveError(f"dimension parameter n must be >= 1, got {n}")
        coords = list(coords)
        if len(coords) != 2 * n + 1:
            raise CurveError(
                f"expected {2 * n + 1} coordinate sources for n={n}, "
                f"got {len(coords)}"
            )
        sources = []
        for k, c in enumerate(coords):
            if isinstance(c, str):
                try:
                    sources.append(parse(c))
                except ValueError as exc:
                    raise CurveError(
                        f"coordinate {k + 1} does not parse: {exc}"
                    ) from exc
            elif isinstance(c, (Expr, IntegralCoordinate)):
                sources.append(c)
            else:
                raise CurveError(
                    f"coordinate {k + 1}: unsupported source type "
                    f"{type(c).__name__}"
                )
        self.n = n
        self.coords = tuple(sources)
        self.period = float(period)
        self.closed = bool(closed)

    @property
    def dim(self):
        return 2 * self.n + 1

    @property
    def coord_texts(self):
        return tuple(c.text for c in self.coords)

    def point(self, t):
        """Coordinates at t, shape (2n+1,) or (2n+1, N): an order-0 jet pass."""
        t = np.asarray(t, dtype=float)
        pts = coordinate_jets(self, t, order=0).value
        return pts[:, 0] if t.ndim == 0 else pts

    def __repr__(self):
        return f"CurveSpec(n={self.n}, coords={self.coord_texts!r})"


def sample_grid(spec, m):
    """Uniform parameter grid with m samples over one period.

    For closed curves the endpoint is omitted (it repeats the start); open
    curves include both ends.
    """
    m = int(m)
    if m < 16:
        raise CurveError(f"grid must have at least 16 samples, got {m}")
    return np.linspace(0.0, spec.period, m, endpoint=not spec.closed)


# ---------------------------------------------------------------------------
# jet evaluation


def _reject_non_finite(spec, ts, *blocks):
    """Raise EvaluationError unless every coefficient in blocks is finite.

    Each block pairs the index of its first coordinate with coefficients of
    shape (K, rows, N), so one np.isfinite covers a whole pass.  The error
    names the first coordinate, in spec order, with a non-finite
    coefficient, and the first t where it has one.
    """
    if all(np.isfinite(coeffs).all() for _, coeffs in blocks):
        return
    bad = np.zeros((spec.dim, ts.size), dtype=bool)
    for first, coeffs in blocks:
        rows = coeffs.shape[1]
        bad[first:first + rows] |= ~np.isfinite(coeffs).all(axis=0).reshape(rows, -1)
    i, j = np.argwhere(bad)[0]
    raise EvaluationError(
        f"non-finite value at t={float(ts.flat[j])} while evaluating "
        f"{spec.coords[i].text!r}"
    )


def coordinate_jets(spec, ts, order=6):
    """Jet of all coordinates along the curve; value shape (2n+1, N).

    A coefficient that overflows, or turns into nan, raises EvaluationError
    naming its coordinate instead of reaching the caller.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    t = jets.variable(ts, order)
    shared = {}
    with np.errstate(over="ignore", invalid="ignore"):
        out = jets.stack([c.evaluate(t, shared) for c in spec.coords], axis=0)
    _reject_non_finite(spec, ts, (0, out.coeffs))
    return out


def _velocity_jets(spec, ts, order):
    """Velocity jet (order - 1, shape (2n+1, N)) and y jet (order, shape (n, N)).

    The velocity equals coordinate_jets(spec, ts, order).derivative() to the
    bit, but a derivative reads only the coefficients above order zero, so
    an integral coordinate outside the y slots gives them from its
    integrand and is never integrated.  All coordinates share one scope
    that lives for this call, so each distinct function call is computed
    once and the z tail reads the x and y jets already built.  A non-finite
    velocity or y value raises EvaluationError, as in coordinate_jets.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = spec.n
    t = jets.variable(ts, order)
    shared = {}
    tails, ys = [], []
    k = np.arange(1, order + 1, dtype=float)[:, np.newaxis, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, c in enumerate(spec.coords):
            if isinstance(c, IntegralCoordinate) and not n <= i < 2 * n:
                tails.append(c._taylor_tail(t, shared))
                continue
            j = c.evaluate(t, shared)
            tails.append(j.coeffs[1:])
            if n <= i < 2 * n:
                ys.append(j)
        v = np.stack(tails, axis=1) * k
    y = jets.stack(ys, axis=0)
    _reject_non_finite(spec, ts, (0, v), (n, y.coeffs[:1]))
    return jets.Jet(v), y


def velocity(spec, t):
    """Coordinate components of the velocity, shape like spec.point(t)."""
    t = np.asarray(t, dtype=float)
    v = _velocity_jets(spec, t, 1)[0].value
    return v[:, 0] if t.ndim == 0 else v


def _nabla_along(n, t_frame, v_frame):
    """Covariant derivative of coefficient jet v_frame along the curve.

    t_frame is the frame-coefficient jet of the curve's velocity.  The
    result has one order less than v_frame.
    """
    dv = v_frame.derivative()
    K = dv.order
    return dv + gamma_frame(n, t_frame.truncate(K), v_frame.truncate(K))


def _curve_frames(spec, ts, order):
    """Shared setup: velocity jet, y jet, and the velocity's frame coefficients."""
    v, y = _velocity_jets(spec, ts, order)
    return v, y, to_frame(v, y, spec.n)


# ---------------------------------------------------------------------------
# Legendre construction and checks


def make_legendre(x_exprs, y_exprs, z0=0.0, period=2.0 * np.pi, closed=True):
    """Build a Legendre curve from horizontal profile expressions.

    The z coordinate is synthesized so that the contact form vanishes on the
    velocity: z' = sum_i y_i x_i'.  One jet of that integrand gives both the
    quadrature's values (its value slot) and the derivative slots of the z
    jet, so the Legendre defect of the result is limited only by roundoff.
    Values of z are obtained by Gauss-Legendre quadrature from z(0) = z0:
    one batched 10/20-point pass over all grid gaps, then adaptive bisection
    of only the gaps where the two rules disagree.  The quadrature runs only
    where positions are read (coordinate_jets, and so CurveSpec.point and
    DiscreteCurve.from_spec); the Frenet and residual analysis needs no z
    value.
    """
    xs = [parse(e) if isinstance(e, str) else e for e in x_exprs]
    ys = [parse(e) if isinstance(e, str) else e for e in y_exprs]
    if len(xs) != len(ys):
        raise CurveError(
            f"profile mismatch: {len(xs)} x expressions vs {len(ys)} y"
        )
    n = len(xs)
    z = IntegralCoordinate(z0, xs, ys)
    return CurveSpec(n, list(xs) + list(ys) + [z], period=period, closed=closed)


def legendre_defect(spec, t):
    """Value of the contact form on the velocity, eta(gamma'(t))."""
    t = np.asarray(t, dtype=float)
    defect = arclength_check(spec, t).defects
    return float(defect[0]) if t.ndim == 0 else defect


@dataclass
class ArclengthReport:
    ts: np.ndarray
    speeds: np.ndarray              # contact-metric speed |gamma'|_g
    max_deviation: float            # max |speed - 1|
    max_defect: float               # max |eta(gamma')|
    defects: np.ndarray             # eta(gamma') along the grid


def _arclength_report(ts, v, y, n):
    """Speed and Legendre defect from velocity components v and y rows y.

    The contact-metric speed is sqrt(eta(gamma')^2 + horizontal part), so a
    Legendre curve's speed is its scaled horizontal speed.
    """
    defect = eta_frame(to_frame(v, y, n))
    horiz = 0.25 * np.sum(v[:2 * n] ** 2, axis=0)
    speed = np.sqrt(defect ** 2 + horiz)
    return ArclengthReport(
        ts=ts,
        speeds=speed,
        max_deviation=float(np.max(np.abs(speed - 1.0), initial=0.0)),
        max_defect=float(np.max(np.abs(defect), initial=0.0)),
        defects=defect,
    )


def arclength_check(spec, ts):
    """Speed and Legendre defect along a grid, from order-1 jets."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    v, y = _velocity_jets(spec, ts, 1)
    return _arclength_report(ts, v.value, y.value, spec.n)


# ---------------------------------------------------------------------------
# Frenet apparatus


@dataclass
class FrenetData:
    """Frenet frames and curvatures of a unit-speed curve on a grid.

    frames[i] holds the frame coefficients of E_{i+1}, shape (2n+1, N).
    curvatures[i] holds k_{i+1} >= 0 on the grid.  r is the osculating
    order: the number of frames, constant along the curve by construction
    (a crossing raises instead).  Jets of the same data are kept for the
    analysis layer, which needs derivatives of the curvatures.  arclength
    holds the speed and Legendre defect read from the same jets.
    """

    ts: np.ndarray
    n: int
    r: int
    frames: np.ndarray        # (r, 2n+1, N)
    curvatures: np.ndarray    # (r-1, N)
    y: np.ndarray             # (n, N) the y coordinates, for conversions
    arclength: ArclengthReport | None = None   # None unless built by frenet_apparatus
    frame_jets: list = field(default_factory=list, repr=False)
    curvature_jets: list = field(default_factory=list, repr=False)

    @property
    def m(self):
        """Number of frames the analysis layer works with (at most 4)."""
        return min(self.r, 4)

    @property
    def dim(self):
        return 2 * self.n + 1

    def curvature_derivs(self, i, upto=2):
        """k_{i+1} and its first derivatives on the grid, shape (upto+1, N).

        Read exactly from the stored jets; a jet of order below upto raises
        CurveError.
        """
        j = self.curvature_jets[i]
        if j.order < upto:
            raise CurveError(
                f"curvature k_{i + 1} (i={i}) has a jet of order "
                f"{j.order}, too short for derivatives up to {upto}"
            )
        return np.stack([j.deriv(k) for k in range(upto + 1)])


# Order of the first Frenet build: the lowest that decides r <= 4 and keeps
# k_1'', k_2' and k_3 (see frenet_apparatus).
_FRENET_ORDER = 5


def _gram_schmidt(n, ts, T, tol):
    """Frame jets E_1.., curvature jets k_1.. and r from the velocity jet T.

    Each covariant derivative costs one order.  r is None when a frame E_i
    with i < 2n+1 comes out at order 0 before the curvatures vanish: the
    jets are too short to tell whether the osculating order exceeds i.
    """
    dim = 2 * n + 1
    frame_list = [T]
    curv_jets = []
    while len(frame_list) < dim:
        i = len(frame_list)          # currently have E_1..E_i
        if frame_list[-1].order == 0:
            return frame_list, curv_jets, None
        w = _nabla_along(n, T, frame_list[-1])
        for e in frame_list:
            w = w - metric_frame(w, e) * e.truncate(w.order)
        norm2 = metric_frame(w, w)
        kvals = np.sqrt(norm2.value)
        if np.max(kvals) < tol:
            return frame_list, curv_jets, i
        if np.min(kvals) < tol:
            bad = ts[int(np.argmin(kvals))]
            raise CurveError(
                f"osculating order is not constant: curvature {i} falls "
                f"below tol={tol:.1e} near t={bad:.6g} but not everywhere"
            )
        k_jet = jets.sqrt(norm2)
        frame_list.append(w / k_jet)
        curv_jets.append(k_jet)
    return frame_list, curv_jets, dim


def frenet_apparatus(spec, ts, tol=1e-7, unit_tol=1e-6):
    """Frenet frames and curvatures along a unit-speed curve.

    Runs Gram-Schmidt on successive covariant derivatives of the velocity,
    entirely in jets, so curvature derivatives come out exact.  The
    osculating order r is detected by the first curvature that stays below
    tol across the whole grid; a curvature that dips below tol somewhere but
    not everywhere means the osculating order is not constant and raises
    CurveError naming the offending parameter.

    Before that, the first derivative slot of the same coordinate jets
    gives the speed and the Legendre defect eta(T); unit_tol bounds both
    |eta(T)| and |speed - 1|, and their report is kept as
    FrenetData.arclength.

    The coordinate jets have order 5.  Each covariant derivative costs one
    order, so E_i has order 5 - i and k_i order 4 - i: k_1 keeps three
    exact derivatives, k_2 two and k_3 one, and r <= 4 is decided without
    further differentiation; for n <= 2 every osculating order is.  Only a
    curve in n >= 3 with r >= 5 runs out of order at E_5; its jets are
    rebuilt once at order 2n+1, where E_1..E_{2n} can all be differentiated.
    Truncated Taylor arithmetic is causal, so every coefficient the first
    build keeps is the one the longer build gives.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = spec.n
    arclength = None
    for order in (_FRENET_ORDER, spec.dim):
        v, y, T = _curve_frames(spec, ts, order)
        if arclength is None:
            arclength = _arclength_report(ts, v.value, y.value, n)
            if not arclength.max_defect <= unit_tol:
                raise CurveError(
                    f"curve is not Legendre: max |eta(T)| = "
                    f"{arclength.max_defect:.6e} exceeds tolerance {unit_tol:g}"
                )
            if not arclength.max_deviation <= unit_tol:
                raise CurveError(
                    f"curve is not unit speed: max speed deviation = "
                    f"{arclength.max_deviation:.6e} exceeds tolerance "
                    f"{unit_tol:g}"
                )
        frame_list, curv_jets, r = _gram_schmidt(n, ts, T, tol)
        if r is not None:
            break

    frames = np.stack([e.value for e in frame_list])
    if curv_jets:
        curvatures = np.stack([k.value for k in curv_jets])
    else:
        curvatures = np.zeros((0, ts.size))
    return FrenetData(
        ts=ts,
        n=n,
        r=r,
        frames=frames,
        curvatures=curvatures,
        y=y.value,
        arclength=arclength,
        frame_jets=frame_list,
        curvature_jets=curv_jets,
    )


@dataclass
class FrameScalars:
    """Pointwise scalars tying phi T and the contact direction to the frame.

    g_phiT and eta are (4, N) tables indexed by frame number, as
    FrenetData.frames is: g_phiT[i] = g(phi T, E_{i+1}) and eta[i] =
    eta(E_{i+1}).  Row 0 (E_1 = T) and every row at or past the osculating
    order are identically zero.  All arrays live on the grid of the
    FrenetData they came from.
    """

    g_phiT: np.ndarray         # (4, N)
    eta: np.ndarray            # (4, N)
    phiT: np.ndarray           # frame coefficients, (2n+1, N)
    offspan: np.ndarray        # |phi T - projection onto E_2..E_m|

    @property
    def f(self):
        """f = g(phi T, E_2), the scalar the case analysis turns on."""
        return self.g_phiT[1]


def frame_scalars(frenet):
    """Scalars g(phi T, E_i) and eta(E_i) for i = 2..m along the curve."""
    phiT = phi_frame(frenet.frames[0], frenet.n)
    g_phiT = np.zeros((4, frenet.ts.size))
    eta = np.zeros_like(g_phiT)
    proj = np.zeros_like(phiT)
    for i in range(1, frenet.m):
        e = frenet.frames[i]
        g_phiT[i] = metric_frame(phiT, e)
        eta[i] = eta_frame(e)
        proj += g_phiT[i] * e
    rest = phiT - proj
    return FrameScalars(g_phiT, eta, phiT, np.sqrt(metric_frame(rest, rest)))
