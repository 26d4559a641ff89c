"""The weighted residual d2*tau2 - d1*tau, computed two independent ways.

Route one differentiates covariantly along the curve and subtracts the
curvature term.  Route two assembles the known frame expansion from the
curvatures and the contact scalars.  The two must agree to roundoff; that
agreement is the main internal consistency check of the package.
"""

import numpy as np

from contactcurves import analysis, families
from contactcurves.curves import (
    CurveSpec,
    frame_scalars,
    frenet_apparatus,
    sample_grid,
)

spec = CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"])
ts = sample_grid(spec, 256)

# tension and bitension of the reference circle
tau = analysis.tension(spec, ts)
tau2 = analysis.bitension(spec, ts)
print("reference curve: |tau| =", f"{np.linalg.norm(tau, axis=0).max():.9f}",
      " |tau2| =", f"{np.linalg.norm(tau2, axis=0).max():.9f}")

# the weighted residual vanishes at (d1, d2) = (-8, 2) and only there
for delta in ((-8.0, 2.0), (0.0, 1.0), (-4.0, 2.0)):
    rep = analysis.residual_direct(spec, ts, -3.0, delta)
    print(f"  delta = {delta}: max residual norm = {rep.max_norm:.3e}")

# ---------------------------------------------------------------------------
# direct vs closed form on a batch of random curves of every order

rng = np.random.default_rng(3)
worst = 0.0
for r in (1, 2, 3, 4):
    for _ in range(5):
        curve, info = families.random_legendre_curve(rng, r)
        gs = sample_grid(curve, 64)
        fr = frenet_apparatus(curve, gs)
        sc = frame_scalars(fr)
        direct = analysis.residual_direct(curve, gs, -3.0, (-1.5, 1.0))
        closed = analysis.residual_closed_form(fr, sc, -3.0, (-1.5, 1.0))
        worst = max(worst, np.max(np.abs(direct.vector - closed.vector)))
print("\n20 random curves, r = 1..4: worst gap between routes =",
      f"{worst:.2e}")

# ---------------------------------------------------------------------------
# the derivative terms of the expansion need a nonconstant k1 to show up

turn = families.rational_turn()
tts = np.linspace(-1.5, 1.5, 161)
rep = analysis.residual_direct(turn, tts, -3.0, (0.0, 1.0))
predicted = 24.0 * tts / (1.0 + tts**2) ** 3   # -3 k1 k1' by hand
# the first scalar equation is the residual's component along E1 = T
print("rational turn, tangential component vs -3 k1 k1':",
      f"{np.max(np.abs(rep.equation_residuals[0] - predicted)):.2e}")

# its third frame is the contact direction itself, so the raw pairing with
# xi (the last frame component of the residual) is a legitimate equation,
# not a defect
xi_pair = np.max(np.abs(rep.vector[-1]))
print("rational turn, raw <residual, xi> max:", f"{xi_pair:.6f},",
      "third equation max:", f"{rep.equations[2]:.6f}",
      "(equal because E3 = xi here)")
