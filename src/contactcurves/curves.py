"""Curves in the model space: evaluation, Legendre construction, Frenet frames.

A curve is a tuple of coordinate sources, one per ambient coordinate
(x_1..x_n, y_1..y_n, z).  A source is either a parsed expression of t or, for
the z slot of curves built by :func:`make_legendre`, an integral whose value
is obtained by adaptive quadrature and whose derivatives come straight from
the integrand.  Everything downstream (velocity, covariant derivatives,
Frenet frames, curvature functions) is computed on truncated Taylor jets, so
derivatives are exact up to the jet order; no finite differencing happens
inside this module.

Tangent vectors along a curve are handled in frame coefficients, i.e. the
components against (X_1..X_n, X_{n+1}..X_{2n}, xi).  The covariant derivative
of a coefficient jet V along the curve is the coefficient derivative plus the
bilinear connection term from :func:`contactcurves.model.gamma_frame`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .expressions import Expr, parse
from .model import gamma_frame

__all__ = [
    "CurveError",
    "QuadratureError",
    "CurveSpec",
    "CoordinateJet",
    "FrenetData",
    "FrameScalars",
    "ArclengthReport",
    "make_legendre",
    "parse_and_jet",
    "coordinate_jets",
    "velocity",
    "legendre_defect",
    "arclength_check",
    "reparametrize_arclength",
    "covariant_derivative_along",
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


def _gl_panel(f, a, b, nodes, weights):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def _adaptive_quad(f, a, b, tol=1e-12, _depth=0):
    """Integrate f over [a, b], bisecting until two Gauss rules agree."""
    coarse = _gl_panel(f, a, b, _GL_NODES_LO, _GL_WEIGHTS_LO)
    fine = _gl_panel(f, a, b, _GL_NODES_HI, _GL_WEIGHTS_HI)
    err = abs(fine - coarse)
    if err <= tol * max(1.0, abs(fine)):
        return fine
    if _depth >= 40:
        raise QuadratureError(
            f"quadrature did not converge on [{a:.6g}, {b:.6g}]: "
            f"estimated error {err:.3e} after {_depth} bisections"
        )
    mid = 0.5 * (a + b)
    left = _adaptive_quad(f, a, mid, 0.5 * tol, _depth + 1)
    right = _adaptive_quad(f, mid, b, 0.5 * tol, _depth + 1)
    return left + right


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
    quadrature.
    """

    def __init__(self, z0, x_exprs, y_exprs):
        self.z0 = float(z0)
        self.x_exprs = tuple(x_exprs)
        self.y_exprs = tuple(y_exprs)

    def _integrand_values(self, s):
        s = np.asarray(s, dtype=float)
        total = np.zeros_like(s)
        for xe, ye in zip(self.x_exprs, self.y_exprs):
            xj = xe(jets.variable(s, 1))
            total += ye(s) * xj.deriv(1)
        return total

    def values(self, ts):
        """Cumulative integral at each of ts (not assumed sorted).

        Integrates over the consecutive gaps of the sorted parameters with
        0 spliced in as the reference point, then shifts the running sum so
        that the entry at 0 equals z0.  One batched pass evaluates the 10-
        and 20-point Gauss rules of every gap in a single integrand call;
        only the gaps where the two rules disagree are bisected, one by one.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        order = np.argsort(ts, kind="stable")
        anchors = np.concatenate(([0.0], ts[order]))
        anchors.sort(kind="stable")
        increments = np.zeros(anchors.size)
        gaps = np.flatnonzero(anchors[1:] != anchors[:-1]) + 1
        increments[gaps] = _composite_quad(
            self._integrand_values, anchors[gaps - 1], anchors[gaps]
        )
        cumulative = np.cumsum(increments)
        base = cumulative[np.searchsorted(anchors, 0.0)]
        at = np.searchsorted(anchors, ts[order])
        out = np.empty(ts.size)
        out[order] = self.z0 + cumulative[at] - base
        return out

    def jet(self, ts, order):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        integrand = self._integrand_jet(ts, order - 1) if order >= 1 else None
        coeffs = np.zeros((order + 1, ts.size))
        coeffs[0] = self.values(ts)
        if integrand is not None:
            for k in range(1, order + 1):
                coeffs[k] = integrand.coeffs[k - 1] / k
        return jets.Jet(coeffs)

    def _integrand_jet(self, ts, order):
        tj = jets.variable(ts, order + 1)
        total = None
        for xe, ye in zip(self.x_exprs, self.y_exprs):
            term = ye(tj.truncate(order)) * xe(tj).derivative()
            total = term if total is None else total + term
        return total

    def describe(self):
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
        out = []
        for c in self.coords:
            if isinstance(c, Expr):
                out.append(c.text)
            else:
                out.append(c.describe())
        return tuple(out)

    def point(self, t):
        """Coordinates at parameter t, shape (2n+1,) or (2n+1, N)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        ts = np.atleast_1d(t)
        rows = []
        for c in self.coords:
            if isinstance(c, IntegralCoordinate):
                rows.append(c.values(ts))
            else:
                rows.append(np.broadcast_to(np.asarray(c(ts), dtype=float), ts.shape))
        pts = np.stack(rows)
        return pts[:, 0] if scalar else pts

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


def coordinate_jets(spec, ts, order=6):
    """Jet of all coordinates along the curve; value shape (2n+1, N)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    parts = []
    for c in spec.coords:
        if isinstance(c, IntegralCoordinate):
            parts.append(c.jet(ts, order))
        else:
            j = c(jets.variable(ts, order))
            parts.append(j)
    return jets.stack(parts, axis=0)


@dataclass
class CoordinateJet:
    """Position and the first four derivatives of a curve at one parameter."""

    t: float
    values: np.ndarray        # (2n+1,)
    derivatives: np.ndarray   # (4, 2n+1); row k-1 is the k-th derivative


def parse_and_jet(spec, t):
    """Coordinates and derivative stack of orders 1..4 at a single t."""
    j = coordinate_jets(spec, float(t), order=4)
    values = j.value[:, 0]
    derivs = np.stack([j.deriv(k)[:, 0] for k in range(1, 5)])
    return CoordinateJet(t=float(t), values=values, derivatives=derivs)


def velocity(spec, t, order=1):
    """Coordinate components of the velocity, shape like spec.point(t)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    j = coordinate_jets(spec, t, order=max(1, order))
    v = j.deriv(1)
    return v[:, 0] if scalar else v


# frame-coefficient plumbing ------------------------------------------------


def _to_frame_jet(u, y, n):
    """Frame coefficients of a coordinate-component jet u along the curve.

    u has value shape (2n+1, N); y is the jet of the y coordinates of the
    base curve, value shape (n, N).
    """
    ux = u[slice(0, n)]
    uy = u[slice(n, 2 * n)]
    uz = u[2 * n]
    alpha = uy * 0.5
    beta = ux * 0.5
    w = (uz - (y.truncate(min(u.order, y.order)) * ux).sum(0)) * 0.5
    K = min(alpha.order, w.order)
    wj = w.truncate(K)
    return jets.concat(
        [alpha.truncate(K), beta.truncate(K),
         jets.Jet(wj.coeffs[:, np.newaxis, :])],
        axis=0,
    )


def _to_frame_array(u, y, n):
    """Pointwise frame coefficients for sampled components u (2n+1, N)."""
    alpha = 0.5 * u[n:2 * n]
    beta = 0.5 * u[:n]
    w = 0.5 * (u[2 * n] - np.sum(y * u[:n], axis=0))
    return np.concatenate([alpha, beta, w[np.newaxis]], axis=0)


def _from_frame_array(c, y, n):
    ux = 2.0 * c[n:2 * n]
    uy = 2.0 * c[:n]
    uz = 2.0 * c[2 * n] + 2.0 * np.sum(y * c[n:2 * n], axis=0)
    return np.concatenate([ux, uy, uz[np.newaxis]], axis=0)


def _metric_jet(a, b):
    """Plain dot product of two frame-coefficient jets, value shape (N,)."""
    K = min(a.order, b.order)
    return (a.truncate(K) * b.truncate(K)).sum(0)


def _phi_jet(u, n):
    """phi applied to a frame-coefficient jet: (a, b, w) -> (-b, a, 0)."""
    alpha = u[slice(0, n)]
    beta = u[slice(n, 2 * n)]
    zero = jets.Jet(np.zeros((u.order + 1, 1) + u.coeffs.shape[2:]))
    return jets.concat([beta * (-1.0), alpha, zero], axis=0)


def _nabla_along(n, t_frame, v_frame):
    """Covariant derivative of coefficient jet v_frame along the curve.

    t_frame is the frame-coefficient jet of the curve's velocity.  The
    result has one order less than v_frame.
    """
    dv = v_frame.derivative()
    K = dv.order
    return dv + gamma_frame(n, t_frame.truncate(K), v_frame.truncate(K))


def _curve_frames(spec, ts, order):
    """Shared setup: coordinate jets, y jet, and the velocity coefficients."""
    cj = coordinate_jets(spec, ts, order=order)
    n = spec.n
    y = cj[slice(n, 2 * n)]
    T = _to_frame_jet(cj.derivative(), y.truncate(order - 1), n)
    return cj, y, T


# ---------------------------------------------------------------------------
# Legendre construction and checks


def make_legendre(x_exprs, y_exprs, z0=0.0, period=2.0 * np.pi, closed=True):
    """Build a Legendre curve from horizontal profile expressions.

    The z coordinate is synthesized so that the contact form vanishes on the
    velocity: z' = sum_i y_i x_i'.  Values of z are obtained by Gauss-Legendre
    quadrature from z(0) = z0: one batched 10/20-point pass over all grid
    gaps, then adaptive bisection of only the gaps where the two rules
    disagree.  All derivative slots of the z jet come from the integrand
    itself, so the Legendre defect of the result is limited only by
    roundoff.
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
    horizontal_speed_sq: np.ndarray  # (1/4) sum over x,y slots of squares
    defects: np.ndarray             # eta(gamma') along the grid

    @property
    def unit_speed(self):
        return self.max_deviation < 1e-6


def arclength_check(spec, ts):
    """Speed and Legendre defect along a grid.

    For a Legendre curve the contact-metric speed reduces to the scaled
    horizontal speed, which is why both are reported: their difference is
    another view of the defect.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    cj = coordinate_jets(spec, ts, order=1)
    n = spec.n
    v = cj.deriv(1)
    y = cj.value[n:2 * n]
    defect = 0.5 * (v[2 * n] - np.sum(y * v[:n], axis=0))
    horiz = 0.25 * np.sum(v[:2 * n] ** 2, axis=0)
    speed = np.sqrt(defect ** 2 + horiz)
    return ArclengthReport(
        ts=ts,
        speeds=speed,
        max_deviation=float(np.max(np.abs(speed - 1.0), initial=0.0)),
        horizontal_speed_sq=horiz,
        defects=defect,
    )


def reparametrize_arclength(spec, ts, refine=8):
    """Parameter values at equal arclength steps, plus the total length.

    Builds a dense cumulative-length table over the span of ts with composite
    Simpson panels, then inverts it monotonically.  Returns (new_ts, length)
    where new_ts has the same length as ts and new_ts[0] == ts[0].
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size < 2:
        raise CurveError("need at least two parameter values")
    a, b = float(ts[0]), float(ts[-1])
    M = 2 * refine * (ts.size - 1)
    dense = np.linspace(a, b, M + 1)
    speed = arclength_check(spec, dense).speeds
    if np.min(speed) < 1e-12:
        bad = dense[int(np.argmin(speed))]
        raise CurveError(f"curve is irregular near t={bad:.6g}: speed ~ 0")
    h = (b - a) / M
    # composite Simpson over consecutive pairs of panels
    cum = np.zeros(M + 1)
    pair = (h / 3.0) * (speed[0:-2:2] + 4.0 * speed[1:-1:2] + speed[2::2])
    cum[2::2] = np.cumsum(pair)
    # odd nodes by a trapezoid correction on the half panel
    cum[1::2] = cum[0:-1:2] + (h / 2.0) * (speed[0:-1:2] + speed[1::2])
    total = cum[-1]
    targets = np.linspace(0.0, total, ts.size)
    new_ts = np.interp(targets, cum, dense)
    return new_ts, float(total)


# ---------------------------------------------------------------------------
# covariant derivative of a vector field along the curve


def covariant_derivative_along(spec, field, ts):
    """Covariant derivative of a tangent field along the curve.

    field may be a callable t -> coordinate components (2n+1,), evaluated
    through jets so the derivative is exact; or an ndarray of sampled
    components with shape (2n+1, len(ts)), differentiated with five-point
    stencils (one-sided at the ends).  Returns coordinate components with
    shape (2n+1, len(ts)).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = spec.n
    cj, y, T = _curve_frames(spec, ts, order=2)
    yv = y.value
    if callable(field):
        try:
            vals = field(jets.variable(ts, 1))
        except Exception:
            vals = None
        if isinstance(vals, jets.Jet):
            vf = _to_frame_jet(vals, y.truncate(vals.order), n)
            dT = _nabla_along(n, T.truncate(vf.order), vf)
            return _from_frame_array(dT.value, yv, n)
        # not jet-aware; fall back to pointwise samples and stencils
        field = np.stack(
            [np.asarray(field(t), dtype=float) for t in ts], axis=1
        )
    field = np.asarray(field, dtype=float)
    if field.shape != (spec.dim, ts.size):
        raise CurveError(
            f"sampled field must have shape {(spec.dim, ts.size)}, "
            f"got {field.shape}"
        )
    if ts.size < 5:
        raise CurveError(
            f"sampled-field differentiation needs at least 5 samples, "
            f"got {ts.size}"
        )
    steps = np.diff(ts)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise CurveError("sampled-field differentiation needs a uniform grid")
    coeffs = _to_frame_array(field, yv, n)
    dcoeffs = _stencil_derivative(coeffs, steps[0])
    out = dcoeffs + gamma_frame(n, T.value, coeffs)
    return _from_frame_array(out, yv, n)


def _stencil_derivative(rows, h):
    """Five-point first derivative along the last axis, one-sided at ends."""
    out = np.empty_like(rows)
    f = rows
    out[..., 2:-2] = (
        f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1] - f[..., 4:]
    ) / (12.0 * h)
    # forward stencils for the first two samples
    out[..., 0] = (
        -25.0 * f[..., 0] + 48.0 * f[..., 1] - 36.0 * f[..., 2]
        + 16.0 * f[..., 3] - 3.0 * f[..., 4]
    ) / (12.0 * h)
    out[..., 1] = (
        -3.0 * f[..., 0] - 10.0 * f[..., 1] + 18.0 * f[..., 2]
        - 6.0 * f[..., 3] + f[..., 4]
    ) / (12.0 * h)
    out[..., -1] = (
        25.0 * f[..., -1] - 48.0 * f[..., -2] + 36.0 * f[..., -3]
        - 16.0 * f[..., -4] + 3.0 * f[..., -5]
    ) / (12.0 * h)
    out[..., -2] = (
        3.0 * f[..., -1] + 10.0 * f[..., -2] - 18.0 * f[..., -3]
        + 6.0 * f[..., -4] - f[..., -5]
    ) / (12.0 * h)
    return out


# ---------------------------------------------------------------------------
# Frenet apparatus


@dataclass
class FrenetData:
    """Frenet frames and curvatures of a unit-speed curve on a grid.

    frames[i] holds the frame coefficients of E_{i+1}, shape (2n+1, N).
    curvatures[i] holds k_{i+1} >= 0 on the grid.  r is the osculating
    order: the number of frames, constant along the curve by construction
    (a crossing raises instead).  Jets of the same data are kept for the
    analysis layer, which needs derivatives of the curvatures.
    """

    ts: np.ndarray
    n: int
    r: int
    frames: np.ndarray        # (r, 2n+1, N)
    curvatures: np.ndarray    # (r-1, N)
    points: np.ndarray        # (2n+1, N) curve coordinates
    y: np.ndarray             # (n, N) the y coordinates, for conversions
    tol: float
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

        Uses the stored jets when available (exact), otherwise falls back to
        differencing the grid values.
        """
        if i < len(self.curvature_jets) and self.curvature_jets[i] is not None:
            j = self.curvature_jets[i]
            if j.order >= upto:
                return np.stack([j.deriv(k) for k in range(upto + 1)])
        k = self.curvatures[i]
        rows = [k]
        for _ in range(upto):
            rows.append(np.gradient(rows[-1], self.ts, edge_order=2))
        return np.stack(rows)


def frenet_apparatus(spec, ts, tol=1e-7, jet_order=6, unit_tol=1e-6):
    """Frenet frames and curvatures along a unit-speed curve.

    Runs Gram-Schmidt on successive covariant derivatives of the velocity,
    entirely in jets, so curvature derivatives come out exact.  The
    osculating order r is detected by the first curvature that stays below
    tol across the whole grid; a curvature that dips below tol somewhere but
    not everywhere means the osculating order is not constant and raises
    CurveError naming the offending parameter.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = spec.n
    dim = spec.dim
    if jet_order < 2:
        raise CurveError("jet_order must be at least 2")
    cj, y, T = _curve_frames(spec, ts, order=jet_order)

    speed = np.sqrt(np.maximum(_metric_jet(T, T).value, 0.0))
    dev = np.max(np.abs(speed - 1.0))
    if dev > unit_tol:
        bad = ts[int(np.argmax(np.abs(speed - 1.0)))]
        raise CurveError(
            f"curve is not unit speed: |T| deviates by {dev:.3e} near "
            f"t={bad:.6g}; reparametrize by arclength first"
        )

    frame_list = [T]
    curv_jets = []
    r = None
    while True:
        i = len(frame_list)          # currently have E_1..E_i
        if i == dim:
            r = dim
            break
        prev = frame_list[-1]
        if prev.order < 1:
            raise CurveError(
                f"jet order {jet_order} exhausted before the osculating "
                f"order was determined; retry with a larger jet_order"
            )
        w = _nabla_along(n, T, prev)
        for e in frame_list:
            w = w - _metric_jet(w, e) * e.truncate(w.order)
        norm2 = _metric_jet(w, w)
        kvals = np.sqrt(np.maximum(norm2.value, 0.0))
        if np.max(kvals) < tol:
            r = i
            break
        if np.min(kvals) < tol:
            bad = ts[int(np.argmin(kvals))]
            raise CurveError(
                f"osculating order is not constant: curvature {i} falls "
                f"below tol={tol:.1e} near t={bad:.6g} but not everywhere"
            )
        k_jet = jets.sqrt(norm2)
        frame_list.append(w / k_jet)
        curv_jets.append(k_jet)

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
        points=cj.value,
        y=y.value,
        tol=tol,
        frame_jets=frame_list,
        curvature_jets=curv_jets,
    )


@dataclass
class FrameScalars:
    """Pointwise scalars tying phi T and the contact direction to the frame.

    All arrays live on the grid of the FrenetData they came from.  Slots for
    frames beyond the osculating order are identically zero.
    """

    f: np.ndarray              # g(phi T, E_2)
    g_phiT_E3: np.ndarray
    g_phiT_E4: np.ndarray
    eta_E2: np.ndarray
    eta_E3: np.ndarray
    eta_E4: np.ndarray
    phiT: np.ndarray           # frame coefficients, (2n+1, N)
    offspan: np.ndarray        # |phi T - projection onto E_2..E_m|
    f_jet: object = None       # jet of f when the frame data carries jets


def frame_scalars(frenet):
    """Scalars g(phi T, E_i) and eta(E_i) for i = 2..4 along the curve."""
    n = frenet.n
    N = frenet.ts.size
    T = frenet.frames[0]
    phiT = np.concatenate(
        [-T[n:2 * n], T[:n], np.zeros((1, N))], axis=0
    )

    def pair(i):
        if frenet.r >= i:
            return np.einsum("kN,kN->N", phiT, frenet.frames[i - 1])
        return np.zeros(N)

    def eta_of(i):
        if frenet.r >= i:
            return frenet.frames[i - 1][2 * n].copy()
        return np.zeros(N)

    f = pair(2)
    proj = np.zeros_like(phiT)
    for i in range(2, frenet.m + 1):
        proj += pair(i)[np.newaxis] * frenet.frames[i - 1]
    offspan = np.sqrt(np.maximum(
        np.einsum("kN,kN->N", phiT - proj, phiT - proj), 0.0
    ))

    f_jet = None
    if frenet.frame_jets and frenet.r >= 2:
        Tj = frenet.frame_jets[0]
        f_jet = _metric_jet(_phi_jet(Tj, n), frenet.frame_jets[1])

    return FrameScalars(
        f=f,
        g_phiT_E3=pair(3),
        g_phiT_E4=pair(4),
        eta_E2=eta_of(2),
        eta_E3=eta_of(3),
        eta_E4=eta_of(4),
        phiT=phiT,
        offspan=offspan,
        f_jet=f_jet,
    )
