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
and runs the same body on both.  The test suite holds them against a
per-point restatement of the definitions above (tests/model_reference.py).

Curvature sign convention: the space-form formula implemented below equals
R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z, verified
against a finite-difference Riemann oracle of the coordinate metric in the
test suite (no sign flip needed).
"""

from __future__ import annotations

import numpy as np

from . import jets

__all__ = [
    "to_frame",
    "from_frame",
    "gamma_frame",
    "phi_frame",
    "eta_frame",
    "metric_frame",
    "space_form_curvature_frame",
]


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

    u has shape (2n+1, ...) and y shape (n, ...): (u_y / 2, u_x / 2, eta(u))
    at every sample.
    """
    ux = u[:n]
    return _join(u[n : 2 * n] * 0.5, ux * 0.5, (u[2 * n] - (y * ux).sum(0)) * 0.5)


def from_frame(c, y, n: int):
    """Coordinate components of frame coefficients c: the inverse of to_frame."""
    beta = c[n : 2 * n]
    return _join(beta * 2.0, c[:n] * 2.0, c[2 * n] * 2.0 + (y * beta).sum(0) * 2.0)


def gamma_frame(n: int, t_coeffs, v_coeffs):
    """Bilinear connection term sum_{jk} T_j V_k nabla_{F_j}F_k in frame coefficients.

    The connection table (1-based frame indices, xi = index 2n+1):
    nabla_{X_i}X_j = nabla_{X_{n+i}}X_{n+j} = 0,  nabla_{X_i}X_{n+j} = delta_ij xi,
    nabla_{X_{n+i}}X_j = -delta_ij xi,  nabla_{X_i}xi = nabla_xi X_i = -X_{n+i},
    nabla_{X_{n+i}}xi = nabla_xi X_{n+i} = X_i,  nabla_xi xi = 0.

    Closed form of its contraction: with T = (a, b, e), V = (alpha, beta, w),

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


def space_form_curvature_frame(c: float, Xf, Yf, Zf, n: int):
    """R(X,Y)Z on frame coefficients of shape (2n+1, ...), vectorized.

    With a = (c+3)/4 and b = (c-1)/4,

        R(X,Y)Z = a (g(Y,Z) X - g(X,Z) Y)
                + b (eta(X) eta(Z) Y - eta(Y) eta(Z) X
                     + (g(X,Z) eta(Y) - g(Y,Z) eta(X)) xi
                     - g(Y,phi Z) phi X + g(X,phi Z) phi Y + 2 g(X,phi Y) phi Z).
    """
    phiX, phiY, phiZ = (phi_frame(v, n) for v in (Xf, Yf, Zf))
    g_YZ, g_XZ = metric_frame(Yf, Zf), metric_frame(Xf, Zf)
    eta_X, eta_Y, eta_Z = eta_frame(Xf), eta_frame(Yf), eta_frame(Zf)
    a = (c + 3.0) / 4.0
    b = (c - 1.0) / 4.0
    out = (
        (a * g_YZ - b * eta_Y * eta_Z) * Xf
        + (-a * g_XZ + b * eta_X * eta_Z) * Yf
        + (-b * metric_frame(Yf, phiZ)) * phiX
        + (b * metric_frame(Xf, phiZ)) * phiY
        + (2.0 * b * metric_frame(Xf, phiY)) * phiZ
    )
    xi = b * (g_XZ * eta_Y - g_YZ * eta_X)
    return _join(out[:n], out[n : 2 * n], out[2 * n] + xi)
