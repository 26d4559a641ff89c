"""Frenet frames and curvatures along Legendre curves, all through jets.

The reference curve (sin 2t, -cos 2t, 0, 0, 1) is the running example: a
closed Legendre circle with k1 = 2.  A second curve with three nonzero
curvatures shows the apparatus at higher osculating order, and a profile
with nonconstant k1 shows that curvature derivatives come out exact.
"""

import numpy as np

from contactcurves import families
from contactcurves.curves import (
    CurveSpec,
    arclength_check,
    frame_scalars,
    frenet_apparatus,
    sample_grid,
)

spec = CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"])
ts = sample_grid(spec, 256)

rep = arclength_check(spec, ts)
print("reference curve: max |eta(T)| =",
      f"{np.max(np.abs(rep.defects)):.2e},",
      "max speed deviation =", f"{rep.max_deviation:.2e}")

fr = frenet_apparatus(spec, ts)
sc = frame_scalars(fr)
print(f"osculating order r = {fr.r}")
print("k1 range:",
      f"[{fr.curvatures[0].min():.12f}, {fr.curvatures[0].max():.12f}]")
print("g(phi T, E2) stays at",
      f"{np.max(np.abs(sc.f)):.2e}", "(phi T is orthogonal to E2 here)")

# ---------------------------------------------------------------------------
# a curve with three curvatures: the balanced three-frequency profile

helix3 = families.orthogonal_helix(1.2, 1.6)
hts = sample_grid(helix3, 128)
hfr = frenet_apparatus(helix3, hts)
print(f"\northogonal helix in R^{helix3.dim}: r = {hfr.r}")
for i, k in enumerate(hfr.curvatures, start=1):
    print(f"  k{i} = {np.mean(k):.12f} (spread {np.ptp(k):.1e})")

# the design promise: k1, k2 land exactly on the requested values
print("  requested (k1, k2) = (1.2, 1.6)")

# ---------------------------------------------------------------------------
# nonconstant curvature, exact derivatives: k1 = 2/(1+t^2) by construction

turn = families.rational_turn()
tts = np.linspace(-1.5, 1.5, 161)
tfr = frenet_apparatus(turn, tts)
k1, k1p, _ = tfr.curvature_derivs(0, upto=2)
expected = 2.0 / (1.0 + tts**2)
expected_p = -4.0 * tts / (1.0 + tts**2) ** 2
print(f"\nrational turn: r = {tfr.r},",
      "max |k1 - 2/(1+t^2)| =", f"{np.max(np.abs(k1 - expected)):.2e}")
print("  jet derivative vs hand formula for k1':",
      f"{np.max(np.abs(k1p - expected_p)):.2e}")
print("  defect of the synthesized z coordinate:",
      f"{arclength_check(turn, tts).max_defect:.2e}")
