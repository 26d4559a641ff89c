"""Discrete energy, first variation, and projected descent."""

import numpy as np
import pytest

from contactcurves import curves, discrete, families


def circle_curve(N=256):
    return discrete.DiscreteCurve.from_spec(families.circle(2.0), N)


def test_energy_example_critical_pair():
    dc = circle_curve(512)
    e = discrete.discrete_energy(dc, (-8.0, 2.0))
    # smooth values: dirichlet -8 * 2 pi, bending +8 * 2 pi, total 0
    assert abs(e.dirichlet + 16 * np.pi) < 1e-2
    assert abs(e.bending - 16 * np.pi) < 1e-2
    assert abs(e.total) < 3e-3
    assert e.total == e.dirichlet + e.bending


def test_energy_second_order_in_h():
    vals = {}
    for N in (64, 128, 256):
        vals[N] = discrete.discrete_energy(circle_curve(N), (1.0, 1.0)).total
    ratio = (vals[64] - vals[128]) / (vals[128] - vals[256])
    assert 3.5 < ratio < 4.5
    # and the refined values head toward the smooth energy 5 * 2 pi
    assert abs(vals[256] - 10 * np.pi) < 2e-2


def test_energy_geodesic_has_no_bending():
    geo = families.geodesic((1.0, 0.0, 0.5, 0.0))
    dg = discrete.DiscreteCurve.from_spec(geo, 64, span=(0.0, 2.0))
    e = discrete.discrete_energy(dg, (0.0, 1.0))
    assert e.bending < 1e-20
    assert dg.max_defect() < 1e-10


def test_degenerate_segment_rejected():
    dc = circle_curve(32)
    dc.points[:, 7] = dc.points[:, 8]
    with pytest.raises(discrete.DiscreteCurveError, match="degenerate segment"):
        discrete.discrete_energy(dc, (1.0, 1.0))


def test_curve_validation():
    with pytest.raises(discrete.DiscreteCurveError, match="at least 5"):
        discrete.DiscreteCurve(np.zeros((5, 4)), 2, 0.1)
    dc = circle_curve(64)
    assert dc.validate(tol=1e-6) < 1e-10
    dc.points[4] += 0.3 * np.sin(np.arange(dc.N))  # bend z off the constraint
    with pytest.raises(discrete.DiscreteCurveError, match="defect"):
        dc.validate(tol=1e-3)


def test_discrete_residual_matches_smooth_values():
    dc = circle_curve(256)
    assert abs(discrete.max_residual_norm(dc, (0.0, 1.0)) - 8.0) < 0.05
    near = discrete.max_residual_norm(dc, (-8.0, 2.0))
    assert near < 0.01
    finer = discrete.max_residual_norm(circle_curve(512), (-8.0, 2.0))
    assert 3.0 < near / finer < 5.0


def _fd_gradient(curve, delta, step=1e-6):
    """Central differences of the total energy in every free coordinate."""
    grad = np.zeros_like(curve.points)
    work = curve.copy()
    free = range(curve.N) if curve.closed else range(1, curve.N - 1)
    for k in free:
        for i in range(curve.dim):
            orig = work.points[i, k]
            work.points[i, k] = orig + step
            e_plus = discrete.discrete_energy(work, delta).total
            work.points[i, k] = orig - step
            e_minus = discrete.discrete_energy(work, delta).total
            work.points[i, k] = orig
            grad[i, k] = (e_plus - e_minus) / (2.0 * step)
    return grad


def _perturbed(spec, closed, N, seed):
    """Polyline off the Legendre constraint: every row, z included, is jittered."""
    if closed:
        dc = discrete.DiscreteCurve.from_spec(spec, N)
    else:
        dc = discrete.DiscreteCurve.from_spec(spec, N, span=(0.3, 2.5))
    rng = np.random.default_rng(seed)
    dc.points += 0.02 * rng.standard_normal(dc.points.shape)
    assert dc.max_defect() > 1e-3
    return dc


@pytest.mark.parametrize("delta", [(0.0, 1.0), (1.3, 0.7), (-8.0, 2.0)])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("spec, N", [
    (families.circle(2.0), 16),
    (families.orthogonal_helix(), 24),
], ids=["n2", "n3"])
def test_gradient_matches_finite_differences(spec, N, closed, delta):
    dc = _perturbed(spec, closed, N, seed=N + closed)
    exact = discrete.energy_gradient(dc, delta)
    fd = _fd_gradient(dc, delta)
    assert exact.shape == dc.points.shape
    assert np.abs(exact - fd).max() <= 1e-6 * np.abs(fd).max()
    if not closed:
        assert not exact[:, [0, -1]].any()


def test_gradient_makes_no_energy_calls(monkeypatch):
    calls = []
    energy = discrete.discrete_energy

    def counting(curve, delta):
        calls.append(1)
        return energy(curve, delta)

    monkeypatch.setattr(discrete, "discrete_energy", counting)
    discrete.energy_gradient(_perturbed(families.circle(2.0), True, 32, seed=1), (1.0, 1.0))
    assert calls == []


def test_gradient_vanishes_at_geodesic():
    geo = families.geodesic((0.5, 0.5, 0.0, 0.0))
    dg = discrete.DiscreteCurve.from_spec(geo, 32, span=(0.0, 1.5))
    g = discrete.energy_gradient(dg, (1.0, 1.0))
    assert np.abs(g).max() < 1e-7
    assert np.abs(g[:, 0]).max() == 0.0  # fixed endpoints stay fixed
    assert np.abs(g[:, -1]).max() == 0.0


def test_first_variation_critical_pair():
    N = 256
    ts = curves.sample_grid(families.circle(2.0), N)
    V = np.zeros((5, N))
    V[0] = -np.sin(2 * ts)
    V[1] = np.cos(2 * ts)
    rep = discrete.first_variation_check(families.circle(2.0), (-8.0, 2.0), V, N=N)
    assert abs(rep.slope) < 0.01
    assert rep.difference < 0.01


def test_first_variation_detects_bending():
    N = 256
    spec = families.circle(2.0)
    ts = curves.sample_grid(spec, N)
    V = np.zeros((5, N))
    V[0] = -np.sin(2 * ts)
    V[1] = np.cos(2 * ts)
    rep = discrete.first_variation_check(spec, (0.0, 1.0), V, N=N)
    assert abs(rep.slope) > 10.0
    assert rep.difference < 0.01
    assert abs(rep.slope - rep.sigma * 2.0 * rep.pairing) / abs(rep.slope) < 1e-3


def test_first_variation_zero_field():
    spec = families.circle(2.0)
    rep = discrete.first_variation_check(spec, (1.0, 1.0), np.zeros((5, 128)), N=128)
    assert rep.slope == 0.0
    assert rep.pairing == 0.0


def test_first_variation_second_order():
    spec = families.circle(2.0)
    diffs = {}
    for N in (64, 128, 256):
        ts = curves.sample_grid(spec, N)
        V = np.zeros((5, N))
        V[0] = -np.sin(2 * ts)
        V[1] = np.cos(2 * ts)
        rep = discrete.first_variation_check(spec, (0.0, 1.0), V, N=N, eps=1e-6)
        diffs[N] = rep.difference
    assert 3.5 < diffs[64] / diffs[128] < 4.5
    assert 3.5 < diffs[128] / diffs[256] < 4.5


def test_calibrated_sign_rederived_on_circle():
    # the rotational variation of the circle has a nonzero bending pairing,
    # so the sign of slope * pairing fixes sigma
    spec = families.circle(2.0)
    N = 256
    ts = curves.sample_grid(spec, N)
    V = np.zeros((5, N))
    V[0] = -np.sin(2 * ts)
    V[1] = np.cos(2 * ts)
    slope, pairing = discrete._variation_data(spec, (0.0, 1.0), V, N, 1e-5, -3.0)
    assert abs(pairing) > 1e-8
    assert (1 if slope * pairing > 0 else -1) == 1


def test_first_variation_uniform_bound():
    # one constant C and one sign must cover random curve/variation pairs
    rng = np.random.default_rng(7)
    sigmas = set()
    for _ in range(20):
        spec, _info = families.random_legendre_curve(rng)
        delta = (float(rng.uniform(-3, 3)), float(rng.uniform(0.5, 2.0)))
        N = 192
        if spec.closed:
            ts = curves.sample_grid(spec, N)
        else:
            ts = np.linspace(0.0, spec.period, N)
        V = np.zeros((spec.dim, N))
        for i in range(2 * spec.n):
            a, b = rng.normal(), rng.normal()
            ph = rng.uniform(0, 2 * np.pi)
            V[i] = a * np.sin(ts + ph) + b * np.cos(2 * ts)
        if not spec.closed:
            window = np.sin(np.pi * (ts - ts[0]) / (ts[-1] - ts[0])) ** 4
            window[[0, 1, -2, -1]] = 0.0
            V *= window
        rep = discrete.first_variation_check(spec, delta, V, N=N, eps=1e-4)
        sigmas.add(rep.sigma)
        assert rep.difference < 500.0 * (rep.h**2 + rep.eps**2)
    assert len(sigmas) == 1


def test_variation_must_vanish_at_endpoints():
    geo = families.geodesic((1.0, 0.0, 0.0, 0.0))  # open curve, fixed ends
    V = np.ones((5, 64))
    with pytest.raises(discrete.VariationError, match="endpoints"):
        discrete.first_variation_check(geo, (1.0, 1.0), V, N=64)


def test_descend_lowers_energy_and_residual():
    base = circle_curve(48)
    rng = np.random.default_rng(3)
    noise = 0.01 * rng.standard_normal(base.points.shape)
    pert = discrete.DiscreteCurve(
        base.points + discrete._project_contact(base, noise),
        base.n, base.h, base.closed,
    )
    res = discrete.descend(pert, (-8.0, 2.0), steps=12, rate=0.02)
    assert not res.stopped
    energies = res.energies
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert res.rows[-1].analyzer_residual < 0.05 * res.rows[0].analyzer_residual
    assert all(row.max_defect < 0.05 for row in res.rows)


def test_descend_geodesic_stays():
    geo = families.geodesic((1.0, 0.0, 0.0, 0.0))
    dg = discrete.DiscreteCurve.from_spec(geo, 32, span=(0.0, 2.0))
    res = discrete.descend(dg.copy(), (1.0, 1.0), steps=3, rate=0.1)
    assert np.abs(res.curve.points - dg.points).max() < 1e-8
    spread = max(res.energies) - min(res.energies)
    assert spread < 1e-12


def test_descend_underflow_diagnostic(monkeypatch):
    # a forced uphill "gradient" can never satisfy the decrease test, so
    # the line search must shrink to nothing and say so
    geo = families.geodesic((1.0, 0.0, 0.0, 0.0))
    dg = discrete.DiscreteCurve.from_spec(geo, 16, span=(0.0, 2.0))

    def uphill(curve, delta, step=1e-6):
        g = np.zeros_like(curve.points)
        g[0, 5] = 100.0
        return g

    monkeypatch.setattr(discrete, "energy_gradient", uphill)
    res = discrete.descend(dg, (1.0, 0.0), steps=3, rate=0.5)
    assert res.stopped
    assert "underflow" in res.diagnostic
    assert len(res.rows) == 1


def test_descent_rows_are_csv_ready():
    res = discrete.descend(circle_curve(24), (1.0, 1.0), steps=2, rate=0.01)
    assert [row.step for row in res.rows] == list(range(len(res.rows)))
    for row in res.rows:
        assert np.isfinite([row.energy, row.max_defect, row.analyzer_residual]).all()
