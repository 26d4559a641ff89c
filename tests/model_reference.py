"""Per-point reference implementations that the suites hold the library against.

The library works in frame coefficients along whole grids
(:mod:`contactcurves.model`'s ``to_frame``, ``gamma_frame``, ...).  The
functions here restate the same structure one point and one vector at a
time, in coordinate components, straight from the definitions:

    eta = (dz - sum_i y_i dx_i)/2,      xi = 2 d/dz,
    g   = eta (x) eta + (1/4) sum_i (dx_i^2 + dy_i^2),
    X_i = 2 d/dy_i,   X_{n+i} = phi X_i = 2(d/dx_i + y_i d/dz),

plus the connection table as one entry per frame pair, and a covariant
derivative along a curve that also accepts sampled fields, differentiated
with five-point stencils.  Nothing in the program calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contactcurves import jets
from contactcurves.curves import CurveError, _curve_frames, _nabla_along
from contactcurves.model import from_frame, gamma_frame, to_frame


@dataclass(frozen=True)
class ModelPoint:
    """A point of R^(2n+1), coords ordered (x_1..x_n, y_1..y_n, z)."""

    n: int
    coords: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        coords = np.zeros(2 * self.n + 1) if self.coords is None else np.asarray(
            self.coords, dtype=float
        )
        if coords.shape != (2 * self.n + 1,):
            raise ValueError(
                f"expected {2 * self.n + 1} coordinates for n={self.n}, got {coords.shape}"
            )
        object.__setattr__(self, "coords", coords)

    @property
    def x(self):
        return self.coords[: self.n]

    @property
    def y(self):
        return self.coords[self.n : 2 * self.n]

    @property
    def z(self):
        return float(self.coords[-1])


def _check_vec(p: ModelPoint, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (2 * p.n + 1,):
        raise ValueError(f"tangent vector has shape {u.shape}, expected {(2 * p.n + 1,)}")
    return u


def eta(p: ModelPoint, u) -> float:
    """Contact form: eta(u) = (u_z - sum_i y_i u_{x_i})/2."""
    u = _check_vec(p, u)
    return 0.5 * (u[-1] - float(p.y @ u[: p.n]))


def metric(p: ModelPoint, u, v) -> float:
    u = _check_vec(p, u)
    v = _check_vec(p, v)
    n = p.n
    return eta(p, u) * eta(p, v) + 0.25 * float(u[: 2 * n] @ v[: 2 * n])


def xi(n: int) -> np.ndarray:
    out = np.zeros(2 * n + 1)
    out[-1] = 2.0
    return out


def phi(p: ModelPoint, u) -> np.ndarray:
    """Apply the structure tensor: x-comps <- y-comps, y-comps <- -x-comps."""
    u = _check_vec(p, u)
    n = p.n
    out = np.empty_like(u)
    out[:n] = u[n : 2 * n]
    out[n : 2 * n] = -u[:n]
    out[-1] = float(p.y @ u[n : 2 * n])
    return out


def frame_field(p: ModelPoint, idx: int) -> np.ndarray:
    """Frame vector by 1-based index: 1..n -> X_i, n+1..2n -> X_{n+i}, 2n+1 -> xi."""
    n = p.n
    if not 1 <= idx <= 2 * n + 1:
        raise IndexError(f"frame index {idx} out of range for n={n}")
    out = np.zeros(2 * n + 1)
    if idx <= n:
        out[n + idx - 1] = 2.0
    elif idx <= 2 * n:
        i = idx - n
        out[i - 1] = 2.0
        out[-1] = 2.0 * p.y[i - 1]
    else:
        out[-1] = 2.0
    return out


def frame_matrix(p: ModelPoint) -> np.ndarray:
    """Columns are the frame vectors at p."""
    return np.stack([frame_field(p, i) for i in range(1, 2 * p.n + 2)], axis=1)


def to_frame_coeffs(p: ModelPoint, u) -> np.ndarray:
    """Coefficients (alpha, beta, w) of u in the orthonormal frame at p."""
    u = _check_vec(p, u)
    n = p.n
    out = np.empty_like(u)
    out[:n] = 0.5 * u[n : 2 * n]
    out[n : 2 * n] = 0.5 * u[:n]
    out[-1] = eta(p, u)
    return out


def from_frame_coeffs(p: ModelPoint, coeffs) -> np.ndarray:
    coeffs = _check_vec(p, coeffs)
    n = p.n
    out = np.empty_like(coeffs)
    out[:n] = 2.0 * coeffs[n : 2 * n]
    out[n : 2 * n] = 2.0 * coeffs[:n]
    out[-1] = 2.0 * coeffs[-1] + 2.0 * float(p.y @ coeffs[n : 2 * n])
    return out


def connection_frame_coeffs(n: int, i: int, j: int) -> np.ndarray:
    """nabla_{F_i} F_j as frame coefficients, from the constant table.

    Table (1-based indices, xi = index 2n+1):
    nabla_{X_i}X_j = nabla_{X_{n+i}}X_{n+j} = 0,  nabla_{X_i}X_{n+j} = delta_ij xi,
    nabla_{X_{n+i}}X_j = -delta_ij xi,  nabla_{X_i}xi = nabla_xi X_i = -X_{n+i},
    nabla_{X_{n+i}}xi = nabla_xi X_{n+i} = X_i,  nabla_xi xi = 0.
    """
    dim = 2 * n + 1
    for idx in (i, j):
        if not 1 <= idx <= dim:
            raise IndexError(f"frame index {idx} out of range for n={n}")
    out = np.zeros(dim)
    xi_idx = dim - 1
    if i <= n and j <= n:
        return out
    if i > n and i <= 2 * n and j > n and j <= 2 * n:
        return out
    if i <= n and n < j <= 2 * n:
        if j - n == i:
            out[xi_idx] = 1.0
        return out
    if n < i <= 2 * n and j <= n:
        if i - n == j:
            out[xi_idx] = -1.0
        return out
    if j == dim:  # nabla_{F_i} xi
        if i == dim:
            return out
        if i <= n:
            out[n + i - 1] = -1.0
        else:
            out[i - n - 1] = 1.0
        return out
    # i == dim: nabla_xi F_j, same values as nabla_{F_j} xi by the table
    if j <= n:
        out[n + j - 1] = -1.0
    else:
        out[j - n - 1] = 1.0
    return out


def covariant_derivative_along(spec, field, ts):
    """Covariant derivative of a tangent field along the curve.

    field may be a jet-aware callable t -> coordinate components (2n+1,),
    called once on the parameter jet so the derivative is exact (a callable
    that returns no Jet raises CurveError); or an ndarray of sampled
    components with shape (2n+1, len(ts)), differentiated with five-point
    stencils (one-sided at the ends, accurate to about 1e-7).  Returns
    coordinate components with shape (2n+1, len(ts)).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = spec.n
    _, y, T = _curve_frames(spec, ts, order=2)
    yv = y.value
    if callable(field):
        vals = field(jets.variable(ts, 1))
        if not isinstance(vals, jets.Jet):
            raise CurveError(
                f"field callable returned {type(vals).__name__}, not a Jet; "
                f"pass its sampled components, shape (2n+1, len(ts)), instead"
            )
        vf = to_frame(vals, y, n)
        dT = _nabla_along(n, T.truncate(vf.order), vf)
        return from_frame(dT.value, yv, n)
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
    coeffs = to_frame(field, yv, n)
    dcoeffs = _stencil_derivative(coeffs, steps[0])
    out = dcoeffs + gamma_frame(n, T.value, coeffs)
    return from_frame(out, yv, n)


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
