"""The standard Sasakian structure on R^(2n+1) with phi-sectional curvature -3.

Coordinates are ordered (x_1..x_n, y_1..y_n, z).  The structure tensors are

    eta = (dz - sum_i y_i dx_i)/2,      xi = 2 d/dz,
    g   = eta (x) eta + (1/4) sum_i (dx_i^2 + dy_i^2),

with phi acting as  phi(dx-comp) -> -dy-comp, phi(dy-comp) -> dx-comp (plus the
y-weighted dz row), so that the orthonormal frame

    X_i = 2 d/dy_i,   X_{n+i} = phi X_i = 2(d/dx_i + y_i d/dz),   xi

diagonalizes g.  The Levi-Civita connection on this frame reduces to a small
constant table, which is what every covariant derivative in this package uses;
no Christoffel symbols appear outside the test oracles.

Frame coefficients of a tangent vector u are ordered the same way as frame
indices: (alpha_1..alpha_n, beta_1..beta_n, w) with u = sum alpha_i X_i +
sum beta_i X_{n+i} + w xi and w = eta(u).

The curves, analysis and discrete modules work in frame coefficients along
whole grids, through these operations:

    to_frame, from_frame        coordinate components <-> frame coefficients
    phi_frame, eta_frame        the structure tensors
    metric_frame                g, a plain dot product (the frame is orthonormal)
    gamma_frame                 the connection table as a bilinear form
    space_form_curvature_frame  R(X,Y)Z of the space form

Each takes plain arrays of shape (2n+1, ...) or Jets with that value shape
and runs the same body on both.  The per-point functions on a ModelPoint
(to_frame_coeffs, connection_frame_coeffs, ...) are the reference the tests
hold these against.

Curvature sign convention: the space-form formula implemented below equals
R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z, verified
against a finite-difference Riemann oracle of the coordinate metric in the
test suite (no sign flip needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets

__all__ = [
    "ModelPoint",
    "SpaceFormParams",
    "metric",
    "eta",
    "phi",
    "xi",
    "frame_field",
    "frame_matrix",
    "to_frame_coeffs",
    "from_frame_coeffs",
    "connection_frame_coeffs",
    "to_frame",
    "from_frame",
    "gamma_frame",
    "phi_frame",
    "eta_frame",
    "metric_frame",
    "space_form_curvature",
    "space_form_curvature_frame",
    "space_form_curvature_abstract",
]


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


@dataclass(frozen=True)
class SpaceFormParams:
    """Constant phi-sectional curvature c.  The concrete model here has c=-3."""

    c: float


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


# -- the connection table ----------------------------------------------------


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


# -- frame-coefficient algebra ------------------------------------------------
#
# Arrays and Jets both support slicing, + - * and .sum(0), so only joining
# the component blocks needs to tell them apart; _join does that for all.


def _join(top, mid, last=None):
    """Stack an X_i block (n, ...), an X_{n+i} block and the xi coefficient.

    last=None stands for a zero xi coefficient.  Jet blocks carry a leading
    order axis, so they are joined along the next axis at their lowest
    common order.
    """
    if isinstance(top, jets.Jet):
        K = min(b.order for b in (top, mid, last) if b is not None)
        top, mid = top.coeffs[: K + 1], mid.coeffs[: K + 1]
        xi = np.zeros_like(top[:, :1]) if last is None else last.coeffs[: K + 1, None]
        return jets.Jet(np.concatenate([top, mid, xi], axis=1))
    xi = np.zeros_like(top[:1]) if last is None else last[np.newaxis]
    return np.concatenate([top, mid, xi])


def to_frame(u, y, n: int):
    """Frame coefficients of coordinate components u along points with y rows y.

    u has shape (2n+1, ...) and y shape (n, ...): the vectorized
    to_frame_coeffs, (u_y / 2, u_x / 2, eta(u)) at every sample.
    """
    ux = u[:n]
    return _join(u[n : 2 * n] * 0.5, ux * 0.5, (u[2 * n] - (y * ux).sum(0)) * 0.5)


def from_frame(c, y, n: int):
    """Coordinate components of frame coefficients c: the inverse of to_frame."""
    beta = c[n : 2 * n]
    return _join(beta * 2.0, c[:n] * 2.0, c[2 * n] * 2.0 + (y * beta).sum(0) * 2.0)


def gamma_frame(n: int, t_coeffs, v_coeffs):
    """Bilinear connection term sum_{jk} T_j V_k nabla_{F_j}F_k in frame coefficients.

    Closed form of the table contraction: with T = (a, b, e), V = (alpha, beta, w),

        X_i-part      =  b_i w + e beta_i
        X_{n+i}-part  = -(a_i w + e alpha_i)
        xi-part       =  sum_i (a_i beta_i - b_i alpha_i)

    The six products are formed as three over the whole horizontal block,
    (a, b) w, e (alpha, beta) and (a, b) (beta, alpha), each with its T
    factor first, so every entry is the product the closed form names.
    """
    h, e, w = t_coeffs[: 2 * n], t_coeffs[2 * n], v_coeffs[2 * n]
    s = h * w + e * v_coeffs[: 2 * n]                   # (a w + e alpha, b w + e beta)
    hv = h * v_coeffs[[*range(n, 2 * n), *range(n)]]   # (a beta, b alpha)
    return _join(s[n:], -s[:n], (hv[:n] - hv[n:]).sum(0))


def phi_frame(u, n: int):
    """phi in frame coefficients: (alpha, beta, w) -> (-beta, alpha, 0)."""
    return _join(-u[n : 2 * n], u[:n])


def eta_frame(u):
    """eta of a frame-coefficient vector is its xi-coefficient."""
    return u[-1]


def metric_frame(u, v):
    """g of frame-coefficient vectors: the plain dot product over components."""
    return (u * v).sum(0)


# -- curvature of the space form --------------------------------------------

_ABSTRACT_PAIRINGS = (
    "g_YZ",
    "g_XZ",
    "g_X_phiZ",
    "g_Y_phiZ",
    "g_X_phiY",
    "eta_X",
    "eta_Y",
    "eta_Z",
)


def _curvature_combination(c, pairings):
    """Weights of R(X,Y)Z over the symbols X, Y, Z, phiX, phiY, phiZ, xi."""
    a = (c + 3.0) / 4.0
    b = (c - 1.0) / 4.0
    return {
        "X": a * pairings["g_YZ"] - b * pairings["eta_Y"] * pairings["eta_Z"],
        "Y": -a * pairings["g_XZ"] + b * pairings["eta_X"] * pairings["eta_Z"],
        "Z": 0.0,
        "phiX": -b * pairings["g_Y_phiZ"],
        "phiY": b * pairings["g_X_phiZ"],
        "phiZ": 2.0 * b * pairings["g_X_phiY"],
        "xi": b
        * (
            pairings["g_XZ"] * pairings["eta_Y"]
            - pairings["g_YZ"] * pairings["eta_X"]
        ),
    }


def space_form_curvature_abstract(c: float, pairings: dict) -> dict:
    """R(X,Y)Z as a symbolic combination, from caller-supplied pairings.

    Required keys: g_YZ, g_XZ, g_X_phiZ, g_Y_phiZ, g_X_phiY, eta_X, eta_Y,
    eta_Z.  Missing entries raise ValueError rather than silently defaulting.
    """
    missing = [k for k in _ABSTRACT_PAIRINGS if k not in pairings]
    if missing:
        raise ValueError(f"abstract curvature call missing pairings: {missing}")
    return _curvature_combination(c, pairings)


def space_form_curvature(params: SpaceFormParams, p: ModelPoint, X, Y, Z) -> np.ndarray:
    """Concrete R(X,Y)Z at a model point (meaningful for the c=-3 model)."""
    X = _check_vec(p, X)
    Y = _check_vec(p, Y)
    Z = _check_vec(p, Z)
    phiX, phiY, phiZ = phi(p, X), phi(p, Y), phi(p, Z)
    pairings = {
        "g_YZ": metric(p, Y, Z),
        "g_XZ": metric(p, X, Z),
        "g_X_phiZ": metric(p, X, phiZ),
        "g_Y_phiZ": metric(p, Y, phiZ),
        "g_X_phiY": metric(p, X, phiY),
        "eta_X": eta(p, X),
        "eta_Y": eta(p, Y),
        "eta_Z": eta(p, Z),
    }
    w = _curvature_combination(params.c, pairings)
    return (
        w["X"] * X
        + w["Y"] * Y
        + w["phiX"] * phiX
        + w["phiY"] * phiY
        + w["phiZ"] * phiZ
        + w["xi"] * xi(p.n)
    )


def space_form_curvature_frame(c: float, Xf, Yf, Zf, n: int):
    """R(X,Y)Z on frame coefficients of shape (2n+1, ...), vectorized."""
    phiX, phiY, phiZ = (phi_frame(v, n) for v in (Xf, Yf, Zf))
    pairings = {
        "g_YZ": metric_frame(Yf, Zf),
        "g_XZ": metric_frame(Xf, Zf),
        "g_X_phiZ": metric_frame(Xf, phiZ),
        "g_Y_phiZ": metric_frame(Yf, phiZ),
        "g_X_phiY": metric_frame(Xf, phiY),
        "eta_X": eta_frame(Xf),
        "eta_Y": eta_frame(Yf),
        "eta_Z": eta_frame(Zf),
    }
    w = _curvature_combination(c, pairings)
    out = (
        w["X"] * Xf
        + w["Y"] * Yf
        + w["phiX"] * phiX
        + w["phiY"] * phiY
        + w["phiZ"] * phiZ
    )
    return _join(out[:n], out[n : 2 * n], out[2 * n] + w["xi"])
