"""Threshold decisions must not depend on where or from when a curve is seen.

Heisenberg translations are isometries of the model that fix the
left-invariant frame, and a parameter phase shift only moves the samples
along the same curve, so the osculating order, class, case and weight ratio
of a curve must survive both, and the two residual routes must still agree.
The unitary group U(n) acts on the horizontal frame coefficients as complex
matrices commuting with phi, so its elements are isometries too, and the
curvatures must survive them as well.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from contactcurves import analysis, families
from contactcurves.curves import (
    frame_scalars,
    frenet_apparatus,
    make_legendre,
    sample_grid,
)

GRID = 96
TOL = 1e-6


def translated(spec, a, b):
    """The curve moved by the Heisenberg translation with offsets (a, b).

    Rebuilt from the shifted profiles x + a, y + b, so z follows through
    z' = sum (y + b) x' and the result is Legendre by construction.
    """
    z = spec.coords[-1]
    xs = [f"({e.text})+({v!r})" for e, v in zip(z.x_exprs, a)]
    ys = [f"({e.text})+({v!r})" for e, v in zip(z.y_exprs, b)]
    return make_legendre(xs, ys, z0=z.z0, period=spec.period,
                         closed=spec.closed)


def random_unitary(rng, n):
    """A random element of U(n): the Q factor of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def rotated(spec, U):
    """The curve moved by U in U(n), rebuilt from its profiles like translated.

    U = A + iB acts on w_j = (y_j' + i x_j')/2, the complex frame
    coefficients of the velocity, so x <- B y + A x and y <- A y - B x.
    """
    z = spec.coords[-1]
    xs = [e.text for e in z.x_exprs]
    ys = [e.text for e in z.y_exprs]

    def combine(row_y, row_x):
        terms = [f"({float(a)!r})*({e})" for a, e in zip(row_y, ys)]
        terms += [f"({float(a)!r})*({e})" for a, e in zip(row_x, xs)]
        return " + ".join(terms)

    A, B = U.real, U.imag
    return make_legendre([combine(b, a) for a, b in zip(A, B)],
                         [combine(a, -b) for a, b in zip(A, B)],
                         z0=z.z0, period=spec.period, closed=spec.closed)


def verdicts(spec, ts, c, delta):
    frenet = frenet_apparatus(spec, ts, tol=TOL)
    scalars = frame_scalars(frenet)
    sol = analysis.solve_delta(frenet, scalars, c, tol=TOL)
    direct, = analysis._direct_reports(frenet, c, [delta])
    closed = analysis.residual_closed_form(frenet, scalars, c, delta)
    gap = float(np.max(np.abs(direct.vector - closed.vector)))
    cls = sol.classification
    means = [float(np.mean(k)) for k in frenet.curvatures]
    return (frenet.r, cls.klass, cls.case), sol.rho, gap, means


@settings(max_examples=48, deadline=None, derandomize=True, database=None)
@given(
    r=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    offsets=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    phase=st.floats(0.0, 1.0),
    c=st.sampled_from([-3.0, 1.0, 2.5]),
    d1=st.floats(-8.0, 8.0),
)
def test_verdicts_survive_translation_and_phase_shift(r, seed, offsets, phase,
                                                      c, d1):
    spec, _ = families.random_legendre_curve(np.random.default_rng(seed), r)
    n = spec.n
    moved = translated(spec, offsets[:n], offsets[n:2 * n])
    ts = sample_grid(spec, GRID)
    delta = (d1, 1.0)

    base, rho, gap, _ = verdicts(spec, ts, c, delta)
    moved_base, moved_rho, moved_gap, _ = verdicts(
        moved, ts + phase * spec.period, c, delta)

    assert moved_base == base
    if rho is None:
        assert moved_rho is None
    else:
        assert moved_rho == pytest.approx(rho, rel=1e-9, abs=1e-9)
    assert gap <= 1e-6
    assert moved_gap <= 1e-6


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    r=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    c=st.sampled_from([-3.0, 1.0, 2.5]),
    d1=st.floats(-8.0, 8.0),
)
def test_verdicts_and_curvatures_survive_unitary_rotation(r, seed, c, d1):
    rng = np.random.default_rng(seed)
    spec, _ = families.random_legendre_curve(rng, r)
    moved = rotated(spec, random_unitary(rng, spec.n))
    ts = sample_grid(spec, GRID)
    delta = (d1, 1.0)

    base, rho, gap, means = verdicts(spec, ts, c, delta)
    moved_base, moved_rho, moved_gap, moved_means = verdicts(moved, ts, c, delta)

    assert moved_base == base
    if rho is None:
        assert moved_rho is None
    else:
        assert moved_rho == pytest.approx(rho, rel=1e-9, abs=1e-9)
    assert moved_means == pytest.approx(means, rel=1e-9, abs=1e-9)
    assert gap <= 1e-6
    assert moved_gap <= 1e-6
