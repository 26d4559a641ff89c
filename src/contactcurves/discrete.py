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
Descent steps are projected onto the kernel of the contact form at each
vertex, so the polyline stays (approximately) Legendre without Lagrange
multipliers; the defect is monitored and reported rather than assumed away.

The energy slope along a variation V equals sigma * 2 * the pairing with
the analyzer residual, with one global sign sigma = +1 for every curve,
weight pair and variation; the tests re-derive it on a circle with a known
nonzero bending residual and check it on random curves and variations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .curves import CurveSpec, sample_grid, coordinate_jets
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
    "energy_gradient",
    "first_variation_check",
    "descend",
]


class DiscreteCurveError(ValueError):
    """The polyline is unusable: too short, degenerate, or far from Legendre."""


class VariationError(ValueError):
    """A variation field violates its preconditions."""


@dataclass
class DiscreteCurve:
    """Polyline in R^{2n+1} with uniform parameter spacing h.

    points holds coordinates, shape (2n+1, N).  Closed curves wrap around
    (N segments); open curves have N-1 segments and their endpoints are
    treated as fixed by the gradient and descent operations.
    """

    points: np.ndarray
    n: int
    h: float
    closed: bool = True

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] != 2 * self.n + 1:
            raise DiscreteCurveError(
                f"points must have shape (2n+1, N) with n={self.n}, "
                f"got {self.points.shape}"
            )
        if self.points.shape[1] < 5:
            raise DiscreteCurveError(
                f"need at least 5 samples, got {self.points.shape[1]}"
            )
        if not self.h > 0:
            raise DiscreteCurveError(f"spacing must be positive, got {self.h}")

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
        pts = coordinate_jets(spec, ts, order=1).coeffs[0]
        return cls(points=pts.copy(), n=spec.n, h=h, closed=closed)

    def copy(self):
        return DiscreteCurve(self.points.copy(), self.n, self.h, self.closed)

    def _chords(self):
        """Chord velocities dp (2n+1, M) and midpoint y rows ybar (n, M).

        M = N for closed curves (wraparound chord included) and M = N-1
        for open ones.  Raises on a degenerate segment, since the polyline
        then has no usable direction there.
        """
        p = self.points
        y = p[self.n:2 * self.n]
        if self.closed:
            dp = (np.roll(p, -1, axis=1) - p) / self.h
            ybar = 0.5 * (y + np.roll(y, -1, axis=1))
        else:
            dp = np.diff(p, axis=1) / self.h
            ybar = 0.5 * (y[:, :-1] + y[:, 1:])
        lengths = np.linalg.norm(dp, axis=0) * self.h
        scale = max(1.0, float(np.abs(p).max()))
        bad = np.nonzero(lengths < 1e-13 * scale)[0]
        if bad.size:
            raise DiscreteCurveError(f"degenerate segment at index {int(bad[0])}")
        return dp, ybar

    def chord_frames(self):
        """Frame coefficients of chord velocities at segment midpoints.

        Shape (2n+1, M) with M = N for closed curves (wraparound chord
        included) and M = N-1 for open ones.  Raises on a degenerate
        segment, since the polyline then has no usable direction there.
        """
        dp, ybar = self._chords()
        return to_frame(dp, ybar, self.n)

    def max_defect(self):
        """Largest |eta| of any chord velocity (0 for exactly Legendre data)."""
        return float(np.abs(self.chord_frames()[2 * self.n]).max())

    def validate(self, tol=1e-3):
        """Check the polyline invariants; returns the max chord defect."""
        defect = self.max_defect()
        if defect >= tol:
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


def _vertex_tension(curve: DiscreteCurve, u):
    """Discrete nabla_T T at vertices, shape (dim, K).

    K = N for closed curves; for open curves only the N-2 interior
    vertices have a centered stencil.  u is curve.chord_frames().  Also
    returns the vertex tangents used for curvature terms downstream.
    """
    if curve.closed:
        u_prev = np.roll(u, 1, axis=1)
        du = (u - u_prev) / curve.h
        T = 0.5 * (u + u_prev)
    else:
        du = (u[:, 1:] - u[:, :-1]) / curve.h
        T = 0.5 * (u[:, 1:] + u[:, :-1])
    tau = du + gamma_frame(curve.n, T, T)
    return tau, T


def discrete_energy(curve: DiscreteCurve, delta) -> EnergyBreakdown:
    """Composite-midpoint discretization of the two energy terms."""
    d1, d2 = float(delta[0]), float(delta[1])
    u = curve.chord_frames()
    dirichlet = d1 * curve.h * float(np.sum(u * u))
    tau, _T = _vertex_tension(curve, u)
    bending = d2 * curve.h * float(np.sum(tau * tau))
    return EnergyBreakdown(dirichlet=dirichlet, bending=bending)


def _covariant_difference(curve, vertex_field, u):
    """One centered covariant differencing pass, vertices -> vertices.

    Differences a vertex field to segment midpoints (using the chord
    velocity there), then back; each pass costs one vertex on both sides
    of an open curve.
    """
    n, h = curve.n, curve.h
    if curve.closed:
        v_next = np.roll(vertex_field, -1, axis=1)
        mid = (v_next - vertex_field) / h + gamma_frame(
            n, u, 0.5 * (vertex_field + v_next)
        )
        mid_prev = np.roll(mid, 1, axis=1)
        u_vertex = 0.5 * (u + np.roll(u, 1, axis=1))
        return (mid - mid_prev) / h + gamma_frame(
            n, u_vertex, 0.5 * (mid + mid_prev)
        )
    # open: vertex_field sits on vertices 1..N-2, chords u on segments 0..N-2
    inner_u = u[:, 1:-1]
    mid = (vertex_field[:, 1:] - vertex_field[:, :-1]) / h + gamma_frame(
        n, inner_u, 0.5 * (vertex_field[:, 1:] + vertex_field[:, :-1])
    )
    u_vertex = 0.5 * (inner_u[:, 1:] + inner_u[:, :-1])
    return (mid[:, 1:] - mid[:, :-1]) / h + gamma_frame(
        n, u_vertex, 0.5 * (mid[:, 1:] + mid[:, :-1])
    )


def discrete_residual(curve: DiscreteCurve, delta, c=-3.0):
    """Finite-difference residual d2*(nabla^2 tau - R(T,tau)T) - d1*tau.

    Returns frame components per vertex: all N vertices for closed
    curves, the N-4 innermost for open ones (two stencil layers).  This
    is the discrete counterpart of the analyzer's direct route and is
    what descent trajectories report.
    """
    d1, d2 = float(delta[0]), float(delta[1])
    u = curve.chord_frames()
    tau, T = _vertex_tension(curve, u)
    tau2 = _covariant_difference(curve, tau, u)
    if not curve.closed:
        tau, T = tau[:, 1:-1], T[:, 1:-1]
    curv = space_form_curvature_frame(c, T, tau, T, curve.n)
    return d2 * (tau2 - curv) - d1 * tau


def max_residual_norm(curve: DiscreteCurve, delta, c=-3.0):
    res = discrete_residual(curve, delta, c=c)
    return float(np.linalg.norm(res, axis=0).max())


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
    dp, ybar = curve._chords()
    u = to_frame(dp, ybar, n)
    tau, T = _vertex_tension(curve, u)

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
        g_u += g_next + np.roll(g_prev, -1, axis=1)
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
        return g_tail + np.roll(g_head, 1, axis=1)
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


def _variation_data(spec, delta, V, N, eps, c):
    if spec.closed:
        ts = sample_grid(spec, N)
        h = spec.period / N
    else:
        ts = np.linspace(0.0, spec.period, N)
        h = spec.period / (N - 1)
    base = DiscreteCurve.from_spec(spec, N)
    if callable(V):
        cols = np.stack([np.asarray(V(t), dtype=float) for t in ts], axis=1)
    else:
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
    plus = DiscreteCurve(base.points + eps * cols, base.n, h, base.closed)
    minus = DiscreteCurve(base.points - eps * cols, base.n, h, base.closed)
    slope = (discrete_energy(plus, delta).total - discrete_energy(minus, delta).total) / (2 * eps)

    rep = analysis.residual_direct(spec, ts, c=c, delta=delta)
    v_frame = to_frame(cols, base.points[base.n:2 * base.n], base.n)
    weights = np.full(N, h)
    if not spec.closed:
        weights[0] = weights[-1] = 0.5 * h
    pairing = float(np.sum(weights * np.sum(rep.vector * v_frame, axis=0)))
    return slope, pairing


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

    V is either a callable t -> coordinate components or an array of
    samples (dim, N).  It is projected onto the contact planes first; on
    open curves it must vanish near the endpoints.  The two numbers agree
    up to O(h^2 + eps^2) when the implementation is consistent, with the
    global sign sigma = +1.
    """
    slope, pairing = _variation_data(spec, delta, V, N, eps, c)
    return VariationReport(
        slope=slope,
        pairing=pairing,
        sigma=1,
        difference=abs(slope - 2.0 * pairing),
        h=(spec.period / N) if spec.closed else spec.period / (N - 1),
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
    stopped: bool = False
    diagnostic: str | None = None

    @property
    def energies(self):
        return [row.energy for row in self.rows]


def descend(curve: DiscreteCurve, delta, steps=50, rate=0.05, c=-3.0,
            shrink=0.5) -> DescentResult:
    """Projected gradient descent with a backtracking line search.

    Acceptance uses a small sufficient-decrease margin, so accepted
    iterates strictly lower the energy; a plain <= would happily take
    no-op steps near a minimum.  When backtracking shrinks the step
    below rate * 1e-12 the loop stops and says so in the diagnostic
    instead of looping forever.
    """
    cur = curve.copy()
    energy = discrete_energy(cur, delta).total
    rows = [DescentRow(0, energy, cur.max_defect(), max_residual_norm(cur, delta, c))]
    for step in range(1, steps + 1):
        grad = energy_gradient(cur, delta)
        direction = _project_contact(cur, -grad)
        if not cur.closed:
            direction[:, 0] = 0.0
            direction[:, -1] = 0.0
        if np.abs(direction).max() == 0.0:
            return DescentResult(cur, rows, stopped=True,
                                 diagnostic=f"zero gradient at step {step}")
        slope = float(np.sum(direction * direction))
        alpha = rate
        while True:
            trial = DiscreteCurve(cur.points + alpha * direction, cur.n, cur.h, cur.closed)
            trial_energy = discrete_energy(trial, delta).total
            if trial_energy <= energy - 1e-4 * alpha * slope:
                break
            alpha *= shrink
            if alpha < rate * 1e-12:
                return DescentResult(
                    cur, rows, stopped=True,
                    diagnostic=f"line search step underflow at step {step}",
                )
        cur, energy = trial, trial_energy
        rows.append(DescentRow(step, energy, cur.max_defect(),
                               max_residual_norm(cur, delta, c)))
    return DescentResult(cur, rows)
