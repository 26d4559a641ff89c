"""Closed-form Legendre curve families with predictable Frenet data.

A unit-speed Legendre curve in the 5-dimensional model is determined by its
horizontal velocity, which we encode as a unit curve w(t) in C^2 through

    w_j = (y_j' + i x_j') / 2.

Curves whose w is a sum of two rotating components on orthogonal complex
axes,

    w(t) = cos(theta) e^{i(mu t + phase1)} (1, 0)
         + sin(theta) e^{i(nu t + phase2)} (0, 1),

have constant curvatures with closed forms in (theta, mu, nu); the phases
move the curve around without touching any invariant.  Frequencies mu = nu
collapse to a single rotating component (helices with second curvature 1),
mu = -nu with theta = pi/4 gives plain circles, and special parameter
triples kill the third Frenet step so the osculating order drops to 4.
Those triples are roots of the residual system in :func:`two_exp_invariants`
and are tabulated in R4_PARAMS.

Profiles here all have elementary antiderivatives, so each family member is
an honest CurveSpec built through make_legendre; nothing in this module
bypasses the quadrature or jet machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import make_legendre

__all__ = [
    "TwoExpInvariants",
    "two_exp_invariants",
    "two_exponential",
    "multi_exponential",
    "orthogonal_helix",
    "circle",
    "helix",
    "geodesic",
    "rational_turn",
    "four_exponential",
    "R4_PARAMS",
    "r4_curve",
    "random_legendre_curve",
]


def _num(v):
    return f"({float(v)!r})"


def _rotating_pair(amp, freq, phase):
    """Expression strings (x, y) for the component amp * e^{i(freq t + phase)}.

    The component contributes y' = 2 amp cos(freq t + phase) and
    x' = 2 amp sin(freq t + phase); both integrate in closed form.
    """
    if amp == 0.0:
        return "0", "0"
    if freq == 0.0:
        xs = f"{_num(2.0 * amp * math.sin(phase))}*t"
        ys = f"{_num(2.0 * amp * math.cos(phase))}*t"
        return xs, ys
    c = 2.0 * amp / freq
    xs = f"-{_num(c)}*cos({_num(freq)}*t+{_num(phase)})"
    ys = f"{_num(c)}*sin({_num(freq)}*t+{_num(phase)})"
    return xs, ys


@dataclass(frozen=True)
class TwoExpInvariants:
    """Constant Frenet data of a two-component rotating curve."""

    r: int
    k1: float
    k2: float
    k3: float
    f: float            # g(phi T, E_2)
    eta_E3: float
    g_phiT_E4: float
    order4_residual: float  # how far the parameters are from osculating order 4


def two_exp_invariants(theta, mu, nu, tol=1e-9):
    """Predicted curvatures and frame scalars for two_exponential curves.

    Derived independently of the Frenet machinery (and cross-checked against
    it in the tests): everything reduces to algebra in the component weights
    P = cos^2 theta, Q = sin^2 theta and the frequencies.
    """
    P = math.cos(theta) ** 2
    Q = math.sin(theta) ** 2
    k1sq = mu * mu * P + nu * nu * Q
    if k1sq < tol * tol:
        return TwoExpInvariants(1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.inf)
    k1 = math.sqrt(k1sq)
    h = mu * P + nu * Q
    f = h / k1
    D = nu * nu - mu * mu
    k2sq = (D * D * P * Q + h * h) / k1sq
    if k2sq < tol * tol:
        return TwoExpInvariants(2, k1, 0.0, 0.0, f, 0.0, 0.0, math.inf)
    k2 = math.sqrt(k2sq)
    eta_E3 = f / k2
    A = D * mu * Q - h
    B = -(D * nu * P + h)
    C = A / k2 + k2 * mu
    E = B / k2 + k2 * nu
    k3sq = (C * C * P + E * E * Q) / k1sq
    if k3sq < tol * tol:
        return TwoExpInvariants(3, k1, k2, 0.0, f, eta_E3, 0.0, math.inf)
    k3 = math.sqrt(k3sq)
    g4 = (C * P + E * Q) / (k1 * k3)
    res = max(
        abs(mu * C * k2 - k3sq * D * Q),
        abs(nu * E * k2 + k3sq * D * P),
        abs((C * P + E * Q) * k2 + k3sq * h),
    )
    scale = max(1.0, k3sq)
    r = 4 if res < tol * scale else 5
    return TwoExpInvariants(r, k1, k2, k3, f, eta_E3, g4, res)


def two_exponential(theta, mu, nu, phase1=0.0, phase2=0.0, z0=0.0):
    """Legendre curve whose horizontal velocity is two rotating components."""
    return multi_exponential((math.cos(theta), math.sin(theta)), (mu, nu),
                             (phase1, phase2), z0=z0)


def _closes(*freqs):
    """True when every frequency is (nearly) an integer, so period 2 pi."""
    return all(abs(w - round(w)) < 1e-12 for w in freqs)


def multi_exponential(amps, freqs, phases=None, z0=0.0):
    """Legendre curve in R^{2n+1} with one rotating component per complex axis.

    amps, freqs and (optional) phases must have equal length n; the squared
    amplitudes must sum to 1 so the curve is unit speed.  two_exponential is
    the n = 2 case.
    """
    amps = [float(a) for a in amps]
    freqs = [float(w) for w in freqs]
    if phases is None:
        phases = [0.0] * len(amps)
    if not (len(amps) == len(freqs) == len(phases)) or not amps:
        raise ValueError("amps, freqs and phases must have equal nonzero length")
    total = sum(a * a for a in amps)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(
            f"squared amplitudes must sum to 1 for unit speed, got {total!r}"
        )
    xs, ys = [], []
    for a, w, p in zip(amps, freqs, phases):
        x, y = _rotating_pair(a, w, float(p))
        xs.append(x)
        ys.append(y)
    return make_legendre(xs, ys, z0=z0, closed=_closes(*freqs))


def orthogonal_helix(k1=1.2, k2=1.6, phases=(0.0, 0.0, 0.0), z0=0.0):
    """Order-3 curve in R^7 whose rotated tangent avoids the osculating space.

    Three components with frequencies L, -L, 0 where L = sqrt(k1^2 + k2^2),
    balanced so the mean frequency weighted by squared amplitude vanishes.
    That kills g(phi T, E_2), and frequency magnitudes equal across rotating
    components force the third Frenet step to close up, so the curvatures
    are exactly (k1, k2) with f = eta(E_3) = 0.
    """
    if k1 <= 0 or k2 <= 0:
        raise ValueError("both curvatures must be positive")
    lam = math.hypot(k1, k2)
    s = (k1 / lam) ** 2
    amps = (math.sqrt(s / 2), math.sqrt(s / 2), math.sqrt(1 - s))
    return multi_exponential(amps, (lam, -lam, 0.0), phases=phases, z0=z0)


def circle(k1=2.0, phase1=0.0, phase2=0.0):
    """Osculating-order-2 curve with first curvature k1 and f = 0."""
    if k1 <= 0:
        raise ValueError(f"first curvature must be positive, got {k1}")
    return two_exponential(np.pi / 4, k1, -k1, phase1=phase1, phase2=phase2)


def helix(mu=3.0, phase=0.0):
    """Single-component curve: k1 = |mu|, k2 = 1, third frame along xi."""
    if mu == 0:
        raise ValueError("helix frequency must be nonzero")
    return two_exponential(0.0, mu, 0.0, phase1=phase)


def geodesic(direction=(1.0, 0.0, 0.0, 0.0)):
    """Straight unit-speed Legendre line with constant horizontal velocity.

    direction holds the frame coefficients (alpha_1, alpha_2, beta_1,
    beta_2) of the velocity and is normalized here.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (4,) or not np.any(d):
        raise ValueError("direction must be a nonzero 4-vector")
    d = d / np.linalg.norm(d)
    a1, a2, b1, b2 = d
    xs = [f"{_num(2 * b1)}*t", f"{_num(2 * b2)}*t"]
    ys = [f"{_num(2 * a1)}*t", f"{_num(2 * a2)}*t"]
    return make_legendre(xs, ys, closed=False)


def rational_turn():
    """Unit-speed Legendre curve in R^3 with first curvature 2 / (1 + t^2).

    The horizontal velocity rotates through the angle 2 atan(t), so the
    turning rate decays rationally while the speed stays 1.  Every planar
    trig value of the doubled angle is rational in t, which is what makes
    the positions elementary.  Any non-geodesic Legendre curve in R^3 has
    osculating order 3 with second curvature 1 and third frame vector xi,
    so this is the stock example with genuinely nonconstant k1.
    """
    return make_legendre(
        ["2*log(1+t*t)"], ["4*atan(t)-2*t"], closed=False
    )


def four_exponential(theta, omega1, omega2, z0=0.0):
    """Unit-speed Legendre curve with genuinely nonconstant curvatures.

    The real and imaginary parts of w rotate at different frequencies:
    y'/2 = cos(theta) (cos w1 t, sin w1 t) and
    x'/2 = sin(theta) (cos w2 t, sin w2 t).
    """
    if omega1 == 0 or omega2 == 0:
        raise ValueError("both frequencies must be nonzero")
    cy = 2.0 * math.cos(theta) / omega1
    cx = 2.0 * math.sin(theta) / omega2
    ys = [
        f"{_num(cy)}*sin({_num(omega1)}*t)",
        f"-{_num(cy)}*cos({_num(omega1)}*t)",
    ]
    xs = [
        f"{_num(cx)}*sin({_num(omega2)}*t)",
        f"-{_num(cx)}*cos({_num(omega2)}*t)",
    ]
    closed = _closes(omega1, omega2)
    return make_legendre(xs, ys, z0=z0, closed=closed)


# Parameter triples (theta, mu, nu) where the residual system in
# two_exp_invariants vanishes, so the osculating order drops to 4.  Found
# numerically by root polishing and frozen; each is verified against the
# Frenet apparatus in the tests.
R4_PARAMS = [
    (0.6062647887518292, -3.0880700170482407, 1.4846415629964849),
    (0.9604982027502665, 1.2683970849560482, -2.5932852675130316),
    (1.2168538402207536, 0.25128113270500035, -1.840452018752072),
    (0.8502602054864723, -1.6584401257769408, 2.1512657769763446),
]


def r4_curve(index=0, phase1=0.0, phase2=0.0, reverse=False):
    """One of the tabulated osculating-order-4 curves."""
    theta, mu, nu = R4_PARAMS[index % len(R4_PARAMS)]
    if reverse:
        mu, nu = -mu, -nu
    return two_exponential(theta, mu, nu, phase1=phase1, phase2=phase2)


def random_legendre_curve(rng, r=None):
    """Random unit-speed Legendre curve of the requested osculating order.

    r may be 1..4 or None for a uniform pick.  Returns (spec, info) where
    info carries the family parameters and the predicted invariants (None
    for geodesics, whose invariants are all zero).
    """
    if r is None:
        r = int(rng.integers(1, 5))
    if r == 1:
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        return geodesic(d), {"r": 1, "direction": d, "invariants": None}
    phase1 = float(rng.uniform(0.0, 2 * np.pi))
    phase2 = float(rng.uniform(0.0, 2 * np.pi))
    if r == 2:
        k1 = float(rng.uniform(0.5, 3.0))
        spec = circle(k1, phase1=phase1, phase2=phase2)
        inv = two_exp_invariants(np.pi / 4, k1, -k1)
        return spec, {"r": 2, "k1": k1, "invariants": inv}
    if r == 3:
        mu = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
        spec = helix(mu, phase=phase1)
        inv = two_exp_invariants(0.0, mu, 0.0)
        return spec, {"r": 3, "mu": mu, "invariants": inv}
    if r == 4:
        idx = int(rng.integers(0, len(R4_PARAMS)))
        reverse = bool(rng.random() < 0.5)
        theta, mu, nu = R4_PARAMS[idx]
        if reverse:
            mu, nu = -mu, -nu
        spec = two_exponential(theta, mu, nu, phase1=phase1, phase2=phase2)
        inv = two_exp_invariants(theta, mu, nu)
        return spec, {"r": 4, "params": (theta, mu, nu), "invariants": inv}
    raise ValueError(f"osculating order must be 1..4, got {r}")
