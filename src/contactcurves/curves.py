"""Curves in the model space: evaluation, Legendre construction, Frenet frames.

A curve is a tuple of coordinate sources, one per ambient coordinate
(x_1..x_n, y_1..y_n, z).  A source is a parsed expression of t or, in the z
slot only, the integral that :func:`make_legendre` builds.  A curve is read
in two ways.  Positions come from :func:`coordinate_jets` (and so
:meth:`CurveSpec.point`): each expression's value, and the integral's value
by quadrature, level by level with one integrand call per level.  Every
analysis path (speed and Legendre defect, covariant derivatives, Frenet
frames, curvature functions) reads the velocity and y jets of
:func:`_velocity_jets` instead: truncated Taylor jets, so derivatives are
exact up to the jet order and no finite differencing happens here.  The
model's frame depends on y only, and an integral's velocity comes from its
integrand, so this path never integrates.

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
_GL_NODES_PAIR = np.concatenate((_GL_NODES_LO, _GL_NODES_HI))
_GL_WEIGHTS_PAIR = np.zeros((_GL_NODES_PAIR.size, 2))
_GL_WEIGHTS_PAIR[:_GL_NODES_LO.size, 0] = _GL_WEIGHTS_LO
_GL_WEIGHTS_PAIR[_GL_NODES_LO.size:, 1] = _GL_WEIGHTS_HI

# Each bisection halves the tolerance, so that a gap's panel errors sum to
# at most _TOL, down to a floor past which the rules differ by roundoff.
# More open panels than max(_MAX_OPEN, gaps) also fail, which bounds the
# node array like QUADPACK's subinterval limit: near a pole of 1/(1 - t),
# roundoff keeps the neighbours' panels open too, level after level.
_TOL = 1e-12
_TOL_FLOOR = 64.0 * np.finfo(float).eps
_MAX_DEPTH = 40
_MAX_OPEN = 4096


def _composite_quad(f, a, b):
    """Integrate f over every gap [a[k], b[k]], level by level.

    Each level calls f once on a (panels, 30) node array for the 10- and
    20-point rules of every open panel.  A panel whose rules agree (to tol
    relative, absolute below 1) adds its 20-point value to its gap's total;
    the rest are bisected.  A failure names the worst open panel.
    """
    totals = np.zeros(a.shape)
    gap = np.arange(a.size)
    limit = max(_MAX_OPEN, a.size)
    tol = _TOL
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, np.newaxis] + half[:, np.newaxis] * _GL_NODES_PAIR
        sums = half[:, np.newaxis] * (f(nodes) @ _GL_WEIGHTS_PAIR)
        coarse, fine = sums[:, 0], sums[:, 1]
        err = np.abs(fine - coarse)
        accepted = err <= tol * np.maximum(1.0, np.abs(fine))
        np.add.at(totals, gap[accepted], fine[accepted])
        keep = ~accepted
        opened = np.count_nonzero(keep)
        if not opened:
            return totals
        if depth == _MAX_DEPTH or opened > limit:
            k = np.argmax(np.where(keep, err, -1.0))
            raise QuadratureError(
                f"quadrature did not converge on [{a[k]:.6g}, {b[k]:.6g}]: "
                f"estimated error {err[k]:.3e} after {depth} bisections"
                + (f" with {opened} panels open" if opened > limit else ""))
        a, b = np.concatenate((a[keep], mid[keep])), np.concatenate((mid[keep], b[keep]))
        gap = np.tile(gap[keep], 2)
        tol = max(0.5 * tol, _TOL_FLOOR)


# ---------------------------------------------------------------------------
# coordinate sources


class IntegralCoordinate:
    """The z coordinate z0 + integral_0^t sum_i y_i(s) x_i'(s) ds.

    :func:`make_legendre` builds it from its profile expressions, and
    :class:`CurveSpec` accepts it in the z slot only.  Its value, read only
    for positions, comes from :meth:`values` by quadrature; the velocity
    pass reads :meth:`_taylor_tail`, the exact derivative slots, from the
    profile jets of the pass's sharing scope.
    """

    def __init__(self, z0, x_exprs, y_exprs):
        self.z0 = float(z0)
        self.x_exprs = tuple(x_exprs)
        self.y_exprs = tuple(y_exprs)

    def values(self, ts):
        """Cumulative integral at each of ts (not assumed sorted).

        Integrates over the consecutive gaps of the distinct parameters with
        0 spliced in as the reference point, then shifts the running sum so
        that the entry at 0 equals z0.  The quadrature runs level by level,
        one integrand call per level: 10- and 20-point Gauss rules on every
        gap, then on the halves of each panel whose two rules disagreed.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        anchors, at = np.unique(np.append(0.0, ts), return_inverse=True)
        running = np.cumsum(np.append(0.0, _composite_quad(
            lambda s: self._integrand_jet(jets.variable(s, 1), {}).value,
            anchors[:-1], anchors[1:],
        )))
        return self.z0 + running[at[1:]] - running[at[0]]

    def _taylor_tail(self, t, shared):
        """Taylor coefficients 1..K at t's values: integrand coefficient k-1 over k.

        t has order K >= 1; shared is the sharing scope of the pass, as for
        Expr.evaluate.
        """
        k = np.arange(1, t.order + 1, dtype=float)[:, np.newaxis]
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
    x_1..x_n, y_1..y_n, z.  Plain strings are parsed as expressions of t;
    an IntegralCoordinate is accepted as z only.
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
            elif isinstance(c, IntegralCoordinate) and k != 2 * n:
                raise CurveError(
                    f"coordinate {k + 1}: an integral source can only be z, "
                    f"coordinate {2 * n + 1}"
                )
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
        pts = coordinate_jets(self, t)
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


def coordinate_jets(spec, ts):
    """Values of all coordinates along the curve, shape (2n+1, N).

    An expression gives its value slot and an integral z its quadrature
    values.  A value that overflows, or turns into nan, raises
    EvaluationError naming its coordinate instead of reaching the caller.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    t = jets.variable(ts, 0)
    shared = {}
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.stack([c.values(ts) if isinstance(c, IntegralCoordinate)
                           else c.evaluate(t, shared).value for c in spec.coords])
    _reject_non_finite(spec, ts, (0, values[np.newaxis]))
    return values


def _velocity_jets(spec, ts, order):
    """Velocity jet (order - 1, shape (2n+1, N)) and y jet (order, shape (n, N)).

    order >= 1.  The velocity is each coordinate's jet at that order,
    differentiated; an integral z gives its slots from its integrand, so
    this pass never integrates.  All coordinates share one scope that lives
    for this call, so each distinct function call is computed once and the
    z tail reads the x and y jets already built.  A non-finite velocity or
    y value raises EvaluationError, as in coordinate_jets.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = spec.n
    t = jets.variable(ts, order)
    shared = {}
    k = np.arange(1, order + 1, dtype=float)[:, np.newaxis, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):
        xy = [c.evaluate(t, shared) for c in spec.coords[:2 * n]]
        z = spec.coords[-1]
        z_tail = (z._taylor_tail(t, shared) if isinstance(z, IntegralCoordinate)
                  else z.evaluate(t, shared).coeffs[1:])
        v = np.stack([j.coeffs[1:] for j in xy] + [z_tail], axis=1) * k
    y = jets.stack(xy[n:], axis=0)
    _reject_non_finite(spec, ts, (0, v), (n, y.coeffs[:1]))
    return jets.Jet(v), y


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
    Values of z are obtained by Gauss-Legendre quadrature from z(0) = z0,
    level by level, one integrand call per level.  It runs only where
    positions are read (coordinate_jets, and so CurveSpec.point and
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
    with np.errstate(over="ignore"):    # an inf speed fails admission by name
        speed = np.sqrt(defect ** 2 + 0.25 * np.sum(v[:2 * n] ** 2, axis=0))
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
    (a crossing raises instead), and frenet_apparatus stacks exactly r
    frames.  Jets of the same data are kept for the analysis layer, which
    needs derivatives of the curvatures.  arclength holds the speed and
    Legendre defect read from the same jets.
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
