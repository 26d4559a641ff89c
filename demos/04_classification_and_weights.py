"""Classifying curves and solving for the weights that make them critical.

A curve with constant curvatures is critical for the interpolating energy
d1*length + d2*bending exactly when the ratio rho = d1/d2 hits a value
determined by its case: the position of phi T relative to the Frenet frame
decides which formula applies.  solve_delta() classifies the curve and
produces rho, and the scan subcommand tabulates feasibility over ranges.
"""

import io
from contextlib import redirect_stdout

import numpy as np

from contactcurves import analysis, families
from contactcurves.cli import main
from contactcurves.curves import CurveSpec, frame_scalars, frenet_apparatus, sample_grid


def inspect(name, spec, ts=None, c=-3.0):
    if ts is None:
        ts = sample_grid(spec, 128)
    fr = frenet_apparatus(spec, ts)
    sc = frame_scalars(fr)
    sol = analysis.solve_delta(fr, sc, c)
    cls = sol.classification
    rho = "none" if sol.rho is None else f"{sol.rho:+.6f}"
    extra = ""
    if sol.any_delta:
        extra = "  (any weights work)"
    elif sol.rho is None:
        extra = "  (no constant ratio: the invariants vary along the curve)"
    elif not sol.feasible:
        extra = "  (ratio exists but the case constraints reject it)"
    print(f"{name:<28} r={fr.r}  class={cls.klass:<9} case={cls.case:<3} "
          f"rho={rho}{extra}")


print(f"{'curve':<28} invariants and the solved weight ratio (c = -3)")
inspect("reference circle",
        CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"]))
inspect("circle k1=1.3", families.circle(1.3))
inspect("helix mu=3", families.helix(3.0))
inspect("orthogonal helix (1.2,1.6)", families.orthogonal_helix(1.2, 1.6))
inspect("rational turn", families.rational_turn(),
        ts=np.linspace(-1.2, 1.2, 97))
inspect("order-4 curve", families.r4_curve(0))
inspect("geodesic", families.geodesic((0.6, -0.8, 0.0, 0.0)),
        ts=np.linspace(0.0, 1.5, 48))

# ---------------------------------------------------------------------------
# feasibility sweeps through the scan subcommand (same code path as the CLI)

print("\nscan: slanted case, c = -3, alpha0 sweep (constraint must be < 0)")
buf = io.StringIO()
with redirect_stdout(buf):
    main(["scan", "--case", "IV", "--c-range=-3:-3:1", "--k1-range=1:1:1",
          "--k2-range=1.5:1.5:1", "--alpha0-range=-1.2:1.2:5"])
print(buf.getvalue())

print("scan: orthogonal case across c (note the sign of rho)")
buf = io.StringIO()
with redirect_stdout(buf):
    main(["scan", "--case", "II", "--c-range=-3:5:3", "--k1-range=2:2:1",
          "--k2-range=0:0:1"])
print(buf.getvalue())
