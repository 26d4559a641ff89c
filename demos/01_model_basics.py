"""A tour of the ambient model: frames, contact tensors, connection, curvature.

Everything happens at a single point of the (2n+1)-dimensional model space,
through the frame-coefficient algebra the library runs on.  The point
matters: the orthonormal frame twists with the y coordinates, so all
identities below are checked at a random point rather than the origin.
"""

import numpy as np

from contactcurves import model

rng = np.random.default_rng(1)
n = 2
dim = 2 * n + 1
coords = rng.uniform(-2.0, 2.0, size=dim)
y = coords[n : 2 * n]
print(f"model dimension 2n+1 = {dim}, point coords = {np.round(coords, 3)}")


def to_frame(u):
    return model.to_frame(u, y, n)


def from_frame(c):
    return model.from_frame(c, y, n)


# ---------------------------------------------------------------------------
# the frame is orthonormal even though the coordinate metric is not diagonal:
# g = eta (x) eta + (1/4) sum (dx_i^2 + dy_i^2) with eta = (dz - y.dx)/2

eta_row = np.concatenate([-0.5 * y, np.zeros(n), [0.5]])
G = np.outer(eta_row, eta_row)
G[: 2 * n, : 2 * n] += 0.25 * np.eye(2 * n)
F = np.stack([from_frame(e) for e in np.eye(dim)], axis=1)
print("coordinate frame vectors (columns):")
print(np.round(F, 3))
print("frame Gram matrix deviation from identity:",
      f"{np.max(np.abs(F.T @ G @ F - np.eye(dim))):.2e}")
u = rng.normal(size=dim)
print("to_frame(from_frame(c)) - c:",
      f"{np.max(np.abs(to_frame(from_frame(u)) - u)):.2e}")

# ---------------------------------------------------------------------------
# contact structure: eta kills the horizontal frame fields and feeds on xi

xi = np.eye(dim)[2 * n]
print("eta(xi) =", model.eta_frame(xi))
print("eta(X_1) =", model.eta_frame(np.eye(dim)[0]))

# phi rotates the horizontal distribution and annihilates xi
phi2 = model.phi_frame(model.phi_frame(u, n), n)
print("phi^2 u + u - eta(u) xi:",
      f"{np.max(np.abs(phi2 + u - model.eta_frame(u) * xi)):.2e}")
print("phi(xi) =", model.phi_frame(xi, n) + 0.0)

# ---------------------------------------------------------------------------
# the connection in frame coefficients: nabla_u xi = -phi u

lhs = model.gamma_frame(n, u, xi)
rhs = -model.phi_frame(u, n)
print("nabla_u xi vs -phi u (frame coefficients):",
      f"{np.max(np.abs(lhs - rhs)):.2e}")

# ---------------------------------------------------------------------------
# curvature: the plane of a unit horizontal X and phi X has sectional
# curvature c, and every plane through xi has sectional curvature 1


def sectional(c, X, Y):
    R = model.space_form_curvature_frame(c, X, Y, Y, n)
    return model.metric_frame(R, X)


X = np.zeros(dim)
X[: 2 * n] = rng.normal(size=2 * n)
X /= np.sqrt(model.metric_frame(X, X))
for c in (-3.0, 1.0, 2.5):
    print(f"c = {c:+.1f}: K(X, phi X) = {sectional(c, X, model.phi_frame(X, n)):+.12f}, "
          f"K(X, xi) = {sectional(c, X, xi):+.12f}")

# at c = 1 the space form has the round-sphere shape:
# R(X,Y)Z = g(Y,Z) X - g(X,Z) Y for all X, Y, Z
Xr, Yr, Zr = rng.normal(size=(3, dim))
sphere = model.metric_frame(Yr, Zr) * Xr - model.metric_frame(Xr, Zr) * Yr
print("c=1 curvature vs g(Y,Z)X - g(X,Z)Y:",
      f"{np.max(np.abs(model.space_form_curvature_frame(1.0, Xr, Yr, Zr, n) - sphere)):.2e}")
