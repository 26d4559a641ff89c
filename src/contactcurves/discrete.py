"""Polyline energies for Legendre curves and a projected descent loop.

The smooth functional is a weighted sum of stretching and bending,

    E(curve) = d1 * integral ||T||^2 + d2 * integral ||nabla_T T||^2,

and its critical points are exactly the zeros of the residual computed in
the analysis module.  Here both integrands are discretized on a polyline:
chord differences give velocities at segment midpoints, a central
difference of those plus the frame-expansion connection gives the bending
vector at vertices, and composite midpoint quadrature sums everything up.
Both constructions are second order in the spacing, which the tests
measure by Richardson ratios.

The gradient of the discrete energy is exact: one forward pass through the
chord frames and vertex tensions, then the adjoint of the same local
stencils in reverse order, so a gradient costs O(N) like the energy itself.
A DiscreteCurve is an immutable value that carries its own stencils: its
constructor builds the chord velocities, their frame coefficients and the
vertex tensions once, and the energy, residual, gradient and defect
functions only read them.  A closed polyline is padded with its wraparound
column by one concatenation and then runs the open-curve slice stencils,
so both kinds share one set of differences.  Descent steps are projected
onto the kernel of the contact form at each vertex, so the polyline stays
(approximately) Legendre without Lagrange multipliers; the defect is
monitored and reported rather than assumed away.  Each line-search trial
is one new polyline, so an accepted iterate's row and next gradient read
the stencils its trial already built.

The energy slope along a variation V equals sigma * 2 * the pairing with
the analyzer residual, with one global sign sigma = +1 for every curve,
weight pair and variation; the tests re-derive it on a circle with a known
nonzero bending residual and check it on random curves and variations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .curves import CurveSpec, sample_grid
from .model import gamma_frame, space_form_curvature_frame, to_frame

__all__ = [
    "DiscreteCurve",
    "DiscreteCurveError",
    "VariationError",
    "EnergyBreakdown",
    "VariationReport",
    "DescentRow",
    "DescentResult",
    "discrete_energy",
    "discrete_residual",
    "max_residual_norm",
    "energy_gradient",
    "first_variation_check",
    "descend",
]


class DiscreteCurveError(ValueError):
    """The polyline is unusable: too short, degenerate, or far from Legendre."""


class VariationError(ValueError):
    """A variation field violates its preconditions."""


@dataclass(frozen=True, eq=False)
class DiscreteCurve:
    """Polyline in R^{2n+1} with uniform parameter spacing h.

    points holds coordinates, shape (2n+1, N).  Closed curves wrap around
    (N segments); open curves have N-1 segments and their endpoints are
    treated as fixed by the gradient and descent operations.

    The value is immutable: points is a read-only copy of the array passed
    in, and the stencils every function reads are built once here.  dp and
    ybar are the chord velocities and midpoint y rows and u their frame
    coefficients, with M columns: N for closed curves (wraparound chord
    included), N-1 for open ones.  tau is the discrete nabla_T T and T the
    tangent at the vertices with a centered stencil: all N for closed
    curves, the N-2 interior ones for open curves.  A degenerate segment
    raises, since the polyline then has no usable direction there.
    """

    points: np.ndarray
    n: int
    h: float
    closed: bool = True
    dp: np.ndarray = field(init=False, repr=False)
    ybar: np.ndarray = field(init=False, repr=False)
    u: np.ndarray = field(init=False, repr=False)
    tau: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if points.ndim != 2 or points.shape[0] != 2 * self.n + 1:
            raise DiscreteCurveError(
                f"points must have shape (2n+1, N) with n={self.n}, "
                f"got {points.shape}"
            )
        if points.shape[1] < 5:
            raise DiscreteCurveError(
                f"need at least 5 samples, got {points.shape[1]}"
            )
        if not self.h > 0:
            raise DiscreteCurveError(f"spacing must be positive, got {self.h}")
        n, h = self.n, self.h
        p = _wrap(points, after=1) if self.closed else points
        y = p[n:2 * n]
        dp = (p[:, 1:] - p[:, :-1]) / h
        ybar = 0.5 * (y[:, :-1] + y[:, 1:])
        lengths = np.linalg.norm(dp, axis=0) * h
        bad = np.nonzero(lengths < 1e-13 * max(1.0, float(np.abs(p).max())))[0]
        if bad.size:
            raise DiscreteCurveError(f"degenerate segment at index {int(bad[0])}")
        u = to_frame(dp, ybar, n)
        w = _wrap(u, before=1) if self.closed else u
        T = 0.5 * (w[:, 1:] + w[:, :-1])
        tau = (w[:, 1:] - w[:, :-1]) / h + gamma_frame(n, T, T)
        for name, value in zip(("dp", "ybar", "u", "tau", "T"), (dp, ybar, u, tau, T)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def N(self):
        return self.points.shape[1]

    @property
    def dim(self):
        return 2 * self.n + 1

    @classmethod
    def from_spec(cls, spec: CurveSpec, N: int, span=None):
        """Sample a smooth curve onto N vertices.

        Closed specs are sampled over one period without the duplicate
        endpoint; open specs (or an explicit span) use an inclusive grid.
        """
        if span is None and spec.closed:
            ts = sample_grid(spec, N)
            h = spec.period / N
            closed = True
        else:
            a, b = span if span is not None else (0.0, spec.period)
            ts = np.linspace(a, b, N)
            h = (b - a) / (N - 1)
            closed = False
        return cls(points=spec.point(ts), n=spec.n, h=h, closed=closed)

    def max_defect(self):
        """Largest |eta| of any chord velocity (0 for exactly Legendre data)."""
        return float(np.abs(self.u[2 * self.n]).max())

    def validate(self, tol=1e-3):
        """Check the polyline invariants; returns the max chord defect."""
        defect = self.max_defect()
        if not defect < tol:
            raise DiscreteCurveError(
                f"chord Legendre defect {defect:.3e} exceeds tolerance {tol:.3e}"
            )
        return defect


@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet: float
    bending: float

    @property
    def total(self):
        return self.dirichlet + self.bending


def _wrap(a, before=0, after=0):
    """Columns of a with its last `before` columns in front and first `after` behind.

    Pads a closed polyline's per-chord or per-vertex rows so the open-curve
    slice stencils cover the wraparound too.
    """
    return np.concatenate([a[:, a.shape[1] - before:], a, a[:, :after]], axis=1)


def discrete_energy(curve: DiscreteCurve, delta) -> EnergyBreakdown:
    """Composite-midpoint discretization of the two energy terms."""
    d1, d2 = float(delta[0]), float(delta[1])
    dirichlet = d1 * curve.h * float(np.sum(curve.u * curve.u))
    bending = d2 * curve.h * float(np.sum(curve.tau * curve.tau))
    return EnergyBreakdown(dirichlet=dirichlet, bending=bending)


def _covariant_difference(n, h, values, chords, tangents):
    """One centered covariant differencing pass, vertices -> vertices.

    Differences a vertex field's `values` to the midpoints of the chords
    between its columns, whose frame velocities are `chords`, then back to
    its inner columns, whose vertex tangents are `tangents`; each pass
    costs one column on both sides.
    """
    mid = (values[:, 1:] - values[:, :-1]) / h + gamma_frame(
        n, chords, 0.5 * (values[:, 1:] + values[:, :-1])
    )
    return (mid[:, 1:] - mid[:, :-1]) / h + gamma_frame(
        n, tangents, 0.5 * (mid[:, 1:] + mid[:, :-1])
    )


def discrete_residual(curve: DiscreteCurve, delta, c=-3.0):
    """Finite-difference residual d2*(nabla^2 tau - R(T,tau)T) - d1*tau.

    Returns frame components per vertex: all N vertices for closed
    curves, the N-4 innermost for open ones (two stencil layers).  This
    is the discrete counterpart of the analyzer's direct route and is
    what descent trajectories report.
    """
    d1, d2 = float(delta[0]), float(delta[1])
    tau, T = curve.tau, curve.T
    if curve.closed:
        tau2 = _covariant_difference(curve.n, curve.h, _wrap(tau, 1, 1),
                                     _wrap(curve.u, before=1), T)
    else:
        # tau sits on vertices 1..N-2 with chords 1..N-3 between them; two
        # stencil layers leave vertices 2..N-3
        tau2 = _covariant_difference(curve.n, curve.h, tau, curve.u[:, 1:-1], T[:, 1:-1])
        tau, T = tau[:, 1:-1], T[:, 1:-1]
    curv = space_form_curvature_frame(c, T, tau, T, curve.n)
    return d2 * (tau2 - curv) - d1 * tau


def max_residual_norm(curve: DiscreteCurve, delta, c=-3.0):
    """Largest frame norm of discrete_residual over its vertices.

    This is the analyzer_residual column of a descent row.
    """
    return float(np.linalg.norm(discrete_residual(curve, delta, c), axis=0).max())


def energy_gradient(curve: DiscreteCurve, delta):
    """Exact gradient of discrete_energy(curve, delta).total, shape (dim, N).

    Reverse-mode sweep through the stencils of discrete_energy: from the
    vertex tensions through the connection term Gamma(T, T), the centered
    difference and the average to the chord frames, then through the frame
    change to the chord differences and midpoints, and onto the vertices.
    Endpoint columns of an open curve are fixed and come back zero.
    """
    d1, d2 = float(delta[0]), float(delta[1])
    n, h = curve.n, curve.h
    dp, ybar, u, tau, T = curve.dp, curve.ybar, curve.u, curve.tau, curve.T

    # tau = du + Gamma(T, T), where Gamma(T, T) = (2e b, -2e a, 0) for T = (a, b, e)
    g_tau = 2.0 * d2 * h * tau
    a, b, e = T[:n], T[n:2 * n], T[2 * n]
    g_top, g_mid = g_tau[:n], g_tau[n:2 * n]
    g_T = np.concatenate([
        -2.0 * e * g_mid,
        2.0 * e * g_top,
        2.0 * np.sum(g_top * b - g_mid * a, axis=0)[np.newaxis],
    ])
    # du = (u_next - u_prev) / h and T = (u_next + u_prev) / 2 around each vertex
    g_next = g_tau / h + 0.5 * g_T
    g_prev = 0.5 * g_T - g_tau / h
    g_u = 2.0 * d1 * h * u
    if curve.closed:
        g_u += g_next + _wrap(g_prev, after=1)[:, 1:]
    else:
        g_u[:, 1:] += g_next
        g_u[:, :-1] += g_prev

    # u = (dp_y / 2, dp_x / 2, (dp_z - ybar . dp_x) / 2)
    g_w = g_u[2 * n]
    g_dp = np.empty_like(dp)
    g_dp[:n] = 0.5 * (g_u[n:2 * n] - g_w * ybar)
    g_dp[n:2 * n] = 0.5 * g_u[:n]
    g_dp[2 * n] = 0.5 * g_w
    g_ybar = -0.5 * g_w * dp[:n]

    # dp = (p_head - p_tail) / h and ybar = (y_tail + y_head) / 2 on each chord
    g_head = g_dp / h
    g_tail = -g_head
    g_head[n:2 * n] += 0.5 * g_ybar
    g_tail[n:2 * n] += 0.5 * g_ybar
    if curve.closed:
        return g_tail + _wrap(g_head, before=1)[:, :-1]
    grad = np.zeros_like(curve.points)
    grad[:, 1:-1] = g_tail[:, 1:] + g_head[:, :-1]
    return grad


def _project_contact(curve: DiscreteCurve, disp):
    """Project vertex displacements onto the contact planes.

    eta = (dz - sum y_i dx_i) / 2 vanishes after replacing the z row by
    sum y_i dx_i at each vertex, which keeps first-order moves Legendre.
    """
    n = curve.n
    out = disp.copy()
    y = curve.points[n:2 * n]
    out[2 * n] = np.sum(y * disp[:n], axis=0)
    return out


# -- first variation ---------------------------------------------------------


@dataclass(frozen=True)
class VariationReport:
    slope: float          # d/d eps of the discrete energy at eps = 0
    pairing: float        # integral <residual, V> with the g metric
    sigma: int
    difference: float     # |slope - sigma * 2 * pairing|
    h: float
    eps: float


def first_variation_check(spec, delta, V, N=256, eps=1e-4, c=-3.0):
    """Compare the discrete energy slope along V with the analyzer pairing.

    V holds the variation's samples on the grid, shape (dim, N).  It is
    projected onto the contact planes first; on open curves it must vanish
    near the endpoints.  The two numbers agree up to O(h^2 + eps^2) when
    the implementation is consistent, with the global sign sigma = +1.
    """
    ts = sample_grid(spec, N)
    base = DiscreteCurve.from_spec(spec, N)
    cols = np.asarray(V, dtype=float)
    if cols.shape != (base.dim, N):
        raise VariationError(
            f"variation samples must have shape ({base.dim}, {N}), got {cols.shape}"
        )
    cols = _project_contact(base, cols)
    if not spec.closed:
        edge = np.abs(cols[:, [0, 1, -2, -1]]).max()
        if edge > 1e-10:
            raise VariationError(
                "variation must vanish near the fixed endpoints "
                f"(boundary magnitude {edge:.3e})"
            )
    plus = DiscreteCurve(base.points + eps * cols, base.n, base.h, base.closed)
    minus = DiscreteCurve(base.points - eps * cols, base.n, base.h, base.closed)
    slope = (discrete_energy(plus, delta).total - discrete_energy(minus, delta).total) / (2 * eps)

    rep = analysis.residual_direct(spec, ts, c=c, delta=delta)
    v_frame = to_frame(cols, base.points[base.n:2 * base.n], base.n)
    weights = np.full(N, base.h)
    if not spec.closed:
        weights[0] = weights[-1] = 0.5 * base.h
    pairing = float(np.sum(weights * np.sum(rep.vector * v_frame, axis=0)))
    return VariationReport(
        slope=slope,
        pairing=pairing,
        sigma=1,
        difference=abs(slope - 2.0 * pairing),
        h=base.h,
        eps=eps,
    )


# -- descent -----------------------------------------------------------------


@dataclass(frozen=True)
class DescentRow:
    step: int
    energy: float
    max_defect: float
    analyzer_residual: float


@dataclass
class DescentResult:
    curve: DiscreteCurve
    rows: list
    diagnostic: str | None = None     # why the loop stopped early, if it did

    @property
    def stopped(self):
        return self.diagnostic is not None

    @property
    def energies(self):
        return [row.energy for row in self.rows]


def descend(curve: DiscreteCurve, delta, steps=50, rate=0.05, c=-3.0) -> DescentResult:
    """Projected gradient descent with a backtracking line search.

    Acceptance uses the Armijo test against the slope <-g, d> of the
    energy along the projected direction d, so accepted iterates strictly
    lower the energy; a plain <= would happily take no-op steps near a
    minimum.  The contact projection is not orthogonal, so d can point
    uphill: where <-g, d> is not positive the loop stops and says so.
    Each rejected trial halves the step; when it falls below rate * 1e-12
    the loop stops and says so in the diagnostic instead of looping
    forever, which is why rate must be finite and positive.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {rate}")
    cur = curve
    energy = discrete_energy(cur, delta).total
    rows = [DescentRow(0, energy, cur.max_defect(), max_residual_norm(cur, delta, c))]
    for step in range(1, steps + 1):
        grad = energy_gradient(cur, delta)
        direction = _project_contact(cur, -grad)
        if not cur.closed:
            direction[:, 0] = 0.0
            direction[:, -1] = 0.0
        if np.abs(direction).max() == 0.0:
            return DescentResult(cur, rows, f"zero gradient at step {step}")
        slope = -float(np.sum(grad * direction))
        if not slope > 0.0:
            return DescentResult(
                cur, rows,
                f"projected direction is not a descent direction at step {step}",
            )
        alpha = rate
        while True:
            trial = DiscreteCurve(cur.points + alpha * direction, cur.n, cur.h, cur.closed)
            trial_energy = discrete_energy(trial, delta).total
            if trial_energy <= energy - 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < rate * 1e-12:
                return DescentResult(
                    cur, rows, f"line search step underflow at step {step}")
        cur, energy = trial, trial_energy
        rows.append(DescentRow(step, energy, cur.max_defect(),
                               max_residual_norm(cur, delta, c)))
    return DescentResult(cur, rows)
