"""Discrete energy, first variation, and projected descent."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactcurves import analysis, cli, curves, discrete, families


def circle_curve(N=256):
    return discrete.DiscreteCurve.from_spec(families.circle(2.0), N)


def moved(curve, points):
    """A new polyline on the grid of curve with the given points."""
    return discrete.DiscreteCurve(points, curve.n, curve.h, curve.closed)


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
    points = dc.points.copy()
    points[:, 7] = points[:, 8]
    with pytest.raises(discrete.DiscreteCurveError, match="degenerate segment"):
        moved(dc, points)


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("factor, degenerate", [(1.2, False), (0.8, True)])
def test_degenerate_segment_bound_is_1e_13_of_the_scale(scale, factor, degenerate):
    # segments shorter than 1e-13 max(1, max|p|) are degenerate; at h = 1
    # the chord is the segment, and max|p| is 0.75 * scale
    bound = 1e-13 * max(1.0, 0.75 * scale)
    x = scale * np.array([0.0, 0.25, 0.5, 0.5, 0.75])
    x[3] += factor * bound
    points = np.zeros((3, 5))
    points[0] = x
    if degenerate:
        with pytest.raises(discrete.DiscreteCurveError,
                           match="degenerate segment at index 2"):
            discrete.DiscreteCurve(points, 1, 1.0, closed=False)
    else:
        discrete.DiscreteCurve(points, 1, 1.0, closed=False)


def test_curve_validation():
    with pytest.raises(discrete.DiscreteCurveError, match="at least 5"):
        discrete.DiscreteCurve(np.zeros((5, 4)), 2, 0.1)
    dc = circle_curve(64)
    assert dc.validate(tol=1e-6) < 1e-10
    points = dc.points.copy()
    points[4] += 0.3 * np.sin(np.arange(dc.N))  # bend z off the constraint
    with pytest.raises(discrete.DiscreteCurveError, match="defect"):
        moved(dc, points).validate(tol=1e-3)


def test_five_samples_are_enough():
    spec = curves.CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"])
    h = 2 * np.pi / 5
    dc = discrete.DiscreteCurve(spec.point(h * np.arange(5)), 2, h)
    assert dc.N == 5


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan])
def test_spacing_must_be_positive(h):
    with pytest.raises(discrete.DiscreteCurveError,
                       match="spacing must be positive"):
        discrete.DiscreteCurve(circle_curve(32).points, 2, h)


def test_validate_rejects_a_nan_chord_defect():
    # nan compares false with any bound, so the test is written to fail on it
    dc = circle_curve(32)
    points = dc.points.copy()
    points[4, 7] = np.nan
    with pytest.raises(discrete.DiscreteCurveError,
                       match="chord Legendre defect nan exceeds"):
        moved(dc, points).validate(tol=1e-3)


@pytest.mark.parametrize("closed, vertex", [(True, 0), (False, 1)])
def test_validate_names_an_overflowing_vertex_tension(closed, vertex):
    # chord speeds of 5e149 square to a finite 2.5e299, but the turn at
    # every vertex over h = 1e-5 gives a tension whose square overflows
    points = np.zeros((3, 8))
    points[0, 1::2] = 1e145
    dc = discrete.DiscreteCurve(points, 1, 1e-5, closed=closed)
    with pytest.raises(discrete.DiscreteCurveError,
                       match=f"^vertex tension overflows at index {vertex}$"):
        dc.validate()


def test_points_are_a_read_only_copy():
    raw = circle_curve(32).points.copy()
    dc = discrete.DiscreteCurve(raw, 2, 0.1)
    assert raw.flags.writeable  # the caller's array is never frozen
    with pytest.raises(ValueError, match="read-only"):
        dc.points[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        dc.u[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dc.points = raw
    raw[0, 0] += 1.0  # an edit of the caller's array leaves the polyline alone
    assert dc.points[0, 0] == raw[0, 0] - 1.0


def test_discrete_residual_matches_smooth_values():
    dc = circle_curve(256)
    assert abs(discrete.max_residual_norm(dc, (0.0, 1.0)) - 8.0) < 0.05
    near = discrete.max_residual_norm(dc, (-8.0, 2.0))
    assert near < 0.01
    finer = discrete.max_residual_norm(circle_curve(512), (-8.0, 2.0))
    assert 3.0 < near / finer < 5.0


@pytest.mark.parametrize("make", [families.helix, families.r4_curve,
                                  families.orthogonal_helix, families.circle],
                         ids=["helix", "r4_curve", "orthogonal_helix", "circle"])
def test_open_span_residual_converges_at_second_order(make):
    # the discrete residual on an open span tends to the direct route's at
    # the inner vertices with observed order 2 (Roache's pairwise order)
    spec, span, delta = make(), (0.2, 2.6), (0.7, 1.0)
    errors = []
    for N in (64, 128, 256, 512):
        curve = discrete.DiscreteCurve.from_spec(spec, N, span=span)
        ts = np.linspace(*span, N)
        smooth = analysis.residual_direct(spec, ts[2:-2], delta=delta).vector
        errors.append(np.abs(discrete.discrete_residual(curve, delta) - smooth).max())
    errors = np.array(errors)
    assert np.all(np.diff(errors) < 0)
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((1.9 <= orders) & (orders <= 2.1)), orders


def _fd_gradient(curve, delta, step=1e-6):
    """Central differences of the total energy in every free coordinate."""
    grad = np.zeros_like(curve.points)
    free = range(curve.N) if curve.closed else range(1, curve.N - 1)
    for k in free:
        for i in range(curve.dim):
            bump = np.zeros_like(curve.points)
            bump[i, k] = step
            e_plus = discrete.discrete_energy(moved(curve, curve.points + bump), delta).total
            e_minus = discrete.discrete_energy(moved(curve, curve.points - bump), delta).total
            grad[i, k] = (e_plus - e_minus) / (2.0 * step)
    return grad


def _perturbed(spec, closed, N, seed):
    """Polyline off the Legendre constraint: every row, z included, is jittered."""
    if closed:
        dc = discrete.DiscreteCurve.from_spec(spec, N)
    else:
        dc = discrete.DiscreteCurve.from_spec(spec, N, span=(0.3, 2.5))
    rng = np.random.default_rng(seed)
    dc = moved(dc, dc.points + 0.02 * rng.standard_normal(dc.points.shape))
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
    rep = discrete.first_variation_check(spec, (0.0, 1.0), V, N=N, eps=1e-5, c=-3.0)
    slope, pairing = rep.slope, rep.pairing
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


@pytest.mark.parametrize("edge, rejected", [(1.2e-10, True), (0.8e-10, False)])
def test_variation_edge_bound_is_1e_10(edge, rejected):
    # a y row has no z share in the contact projection, so the boundary
    # magnitude is exactly the value put there
    geo = families.geodesic((1.0, 0.0, 0.0, 0.0))
    V = np.zeros((5, 64))
    V[2, 0] = edge
    if rejected:
        with pytest.raises(discrete.VariationError, match="1.200e-10"):
            discrete.first_variation_check(geo, (1.0, 1.0), V, N=64)
    else:
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
    res = discrete.descend(dg, (1.0, 1.0), steps=3, rate=0.1)
    assert np.abs(res.curve.points - dg.points).max() < 1e-8
    spread = max(res.energies) - min(res.energies)
    assert spread < 1e-12


def test_descend_underflow_diagnostic(monkeypatch):
    # a forced uphill "gradient" can never satisfy the decrease test, so
    # the line search must shrink to nothing and say so
    geo = families.geodesic((1.0, 0.0, 0.0, 0.0))
    dg = discrete.DiscreteCurve.from_spec(geo, 16, span=(0.0, 2.0))

    def uphill(curve, delta):
        g = np.zeros_like(curve.points)
        g[0, 5] = 100.0
        return g

    monkeypatch.setattr(discrete, "energy_gradient", uphill)
    res = discrete.descend(dg, (1.0, 0.0), steps=3, rate=0.5)
    assert res.stopped
    assert "underflow" in res.diagnostic
    assert len(res.rows) == 1


def test_line_search_underflow_bound_is_rate_times_1e_12(monkeypatch):
    # the halving trials are rate 2^-k; 2^-39 is above the bound 1e-12 and
    # 2^-40 below it, so a step that never passes Armijo costs 40 trials
    # after the first energy
    calls = [0]
    original = discrete.discrete_energy

    def counted(curve, delta):
        calls[0] += 1
        return original(curve, delta)

    monkeypatch.setattr(discrete, "discrete_energy", counted)
    dc = discrete.DiscreteCurve.from_spec(families.geodesic(), 64)
    res = discrete.descend(dc, (0.0, 1.0), steps=3, rate=0.02)
    assert res.diagnostic == "line search step underflow at step 1"
    assert calls[0] == 41


@pytest.mark.parametrize("target, accepted", [(1.25e-4, True), (0.75e-4, False)])
def test_armijo_constant_is_1e_4(target, accepted):
    # the first trial step is alpha = rate.  Pick the rate at which the
    # energy falls by target * alpha * slope: above 1e-4 of the slope the
    # step is taken as is, below it the line search halves it once
    curve = discrete.DiscreteCurve.from_spec(cli.example_spec(), 64)
    delta = (0.7, 1.0)
    energy = discrete.discrete_energy(curve, delta).total
    grad = discrete.energy_gradient(curve, delta)
    direction = discrete._project_contact(curve, -grad)
    slope = -float(np.sum(grad * direction))

    def trial_energy(alpha):
        return discrete.discrete_energy(moved(curve, curve.points + alpha * direction),
                                        delta).total

    def ratio(alpha):
        return (energy - trial_energy(alpha)) / (alpha * slope)

    lo, hi = 1.0, 4.0       # the ratio falls through 0.54 to below 0
    assert ratio(lo) > target > ratio(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio(mid) > target else (lo, mid)
    rate = lo if accepted else hi
    assert ratio(rate) == pytest.approx(target, rel=1e-3)
    res = discrete.descend(curve, delta, steps=1, rate=rate)
    assert res.energies[1] == trial_energy(rate if accepted else 0.5 * rate)


def test_descend_stops_on_an_uphill_projected_direction():
    # the contact projection replaces the z row of -g, so on this noisy
    # open span the direction d has <-g, d> < 0 at step 2 while |d|^2 is
    # large: tested against |d|^2 the line search shrank to an underflow,
    # tested against the true slope the loop names the cause
    dc = discrete.DiscreteCurve.from_spec(families.orthogonal_helix(), 32,
                                          span=(0.2, 2.6))
    dc = moved(dc, dc.points + 1e-3 * np.random.default_rng(11).standard_normal(dc.points.shape))
    res = discrete.descend(dc, (0.0, 1.0), steps=3, rate=0.01, c=-1.0)
    assert res.stopped
    assert res.diagnostic == "projected direction is not a descent direction at step 2"
    assert len(res.rows) == 2 and res.energies[1] < res.energies[0]


def test_descent_rows_are_csv_ready():
    res = discrete.descend(circle_curve(24), (1.0, 1.0), steps=2, rate=0.01)
    assert [row.step for row in res.rows] == list(range(len(res.rows)))
    for row in res.rows:
        assert np.isfinite([row.energy, row.max_defect, row.analyzer_residual]).all()


def test_descend_returns_open_endpoints_bit_for_bit():
    # energy_gradient's endpoint columns are zero, so every step leaves the
    # endpoints as they are, down to the sign of a -0.0 coordinate
    dc = discrete.DiscreteCurve.from_spec(families.helix(), 16, span=(0.0, 3.0))
    points = dc.points.copy()
    points[1, 0] = -0.0
    start = moved(dc, points)
    result = discrete.descend(start, (0.7, 1.0), steps=3, rate=0.02)
    assert not result.stopped
    ends = result.curve.points[:, [0, -1]]
    assert ends.tobytes() == start.points[:, [0, -1]].tobytes()


def test_descend_builds_each_polyline_once(monkeypatch):
    # the constructor builds a polyline's chords; descend uses the start
    # as given and constructs one polyline per line-search trial, whose
    # energy, row and next gradient all read that one build
    built, energies = [], []
    post_init, energy = discrete.DiscreteCurve.__post_init__, discrete.discrete_energy

    def counting_init(self):
        built.append(1)
        post_init(self)

    def counting_energy(curve, delta):
        energies.append(1)
        return energy(curve, delta)

    base = circle_curve(32)
    base = moved(base, base.points + 0.01 * np.random.default_rng(7).standard_normal(base.points.shape))
    monkeypatch.setattr(discrete.DiscreteCurve, "__post_init__", counting_init)
    monkeypatch.setattr(discrete, "discrete_energy", counting_energy)
    res = discrete.descend(base, (1.0, 1.0), steps=4, rate=0.05)
    assert len(res.rows) == 5
    assert len(built) > 4  # one trial per step, and backtracks
    assert len(energies) == len(built) + 1  # the start's energy and each trial's


@pytest.mark.parametrize("rate", [0.0, -0.1, math.inf, -math.inf, math.nan])
def test_descend_rejects_a_rate_that_is_not_finite_and_positive(rate):
    # steps=0 would return the start row at once; the rate is checked first
    with pytest.raises(ValueError, match="rate must be finite and positive"):
        discrete.descend(circle_curve(24), (1.0, 1.0), steps=0, rate=rate)


def test_descend_defaults_are_rate_0_05_and_c_minus_3():
    # another default rate moves the first step, another c the residual
    base = circle_curve(32)
    base = moved(base, base.points + 0.01 * np.random.default_rng(7).standard_normal(base.points.shape))
    default = discrete.descend(base, (1.0, 1.0), steps=3)
    explicit = discrete.descend(base, (1.0, 1.0), steps=3, rate=0.05, c=-3.0)
    assert not default.stopped and len(default.rows) == 4
    assert default.rows == explicit.rows


@pytest.mark.parametrize("delta", [(0.0, 1.0), (-8.0, 2.0)])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("spec", [
    curves.make_legendre(["cos(t)"], ["sin(2*t)"]),
    families.circle(2.0),
    families.orthogonal_helix(),
], ids=["n1", "n2", "n3"])
def test_descend_rows_match_fresh_evaluation(spec, closed, delta):
    span = None if closed else (0.2, 2.6)   # the three specs are tagged closed
    dc = discrete.DiscreteCurve.from_spec(spec, 32, span=span)
    assert dc.closed == closed
    dc = moved(dc, dc.points + 1e-3 * np.random.default_rng(11).standard_normal(dc.points.shape))
    res = discrete.descend(dc, delta, steps=3, rate=0.01, c=-1.0)
    last = res.rows[-1]
    assert last.step >= 1  # an accepted line-search trial, not the start
    assert last.energy == discrete.discrete_energy(res.curve, delta).total
    assert last.max_defect == res.curve.max_defect()
    assert last.analyzer_residual == discrete.max_residual_norm(res.curve, delta, c=-1.0)


# ---------------------------------------------------------------------------
# the model's isometries, applied to the points, leave the discrete energy
# and residual unchanged


def heisenberg_translation(points, n, a, b, c0):
    """x + a, y + b, z + b.x + c0."""
    x, y, z = points[:n], points[n:2 * n], points[2 * n]
    return np.vstack([x + a[:, None], y + b[:, None], z + b @ x + c0])


def plane_rotation(points, n, i, angle):
    """Rotation of the (x_i, y_i) plane, with the z correction that keeps
    dz - y.dx invariant."""
    c, s = math.cos(angle), math.sin(angle)
    x, y = points[i], points[n + i]
    out = points.copy()
    out[i], out[n + i] = c * x - s * y, s * x + c * y
    out[2 * n] = points[2 * n] + (s * c / 2) * (x * x - y * y) - s * s * x * y
    return out


# r4_curve(0) does not close over its period, so it samples an open polyline
ISOMETRY_CURVES = {
    "circle": discrete.DiscreteCurve.from_spec(families.circle(), 64),
    "r4": discrete.DiscreteCurve.from_spec(families.r4_curve(0), 64),
    **{f"{name}_open": discrete.DiscreteCurve.from_spec(spec, 64, span=(0.2, 2.6))
       for name, spec in (("orthogonal_helix", families.orthogonal_helix()),
                          ("helix", families.helix()),
                          ("r4", families.r4_curve(0)))},
}
ISOMETRY_CASES = [(name, kind) for name, curve in ISOMETRY_CURVES.items()
                  for kind in ("translation", "rotation", "shift")
                  if kind != "shift" or curve.closed]   # a shift needs a closed polyline


@pytest.mark.parametrize("delta", [(0.7, 1.0), (-8.0, 2.0)])
@pytest.mark.parametrize("name, kind", ISOMETRY_CASES)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_energy_and_residual_are_isometry_invariant(name, kind, delta, data):
    # measured worst cases: energy 2e-15 of |dirichlet| + |bending|, and the
    # residual norm 2e-7 relative on the open orthogonal helix at (-8, 2),
    # where the norm is small; a cyclic shift changes neither bit
    base = ISOMETRY_CURVES[name]
    n, N = base.n, base.N
    coord = st.floats(-2.0, 2.0)
    if kind == "translation":
        a = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
        points = heisenberg_translation(base.points, n, a, b, data.draw(coord))
    elif kind == "rotation":
        points = plane_rotation(base.points, n, data.draw(st.integers(0, n - 1)),
                                data.draw(st.floats(-math.pi, math.pi)))
    else:
        points = np.roll(base.points, data.draw(st.integers(1, N - 1)), axis=1)
    curve = moved(base, points)
    e0, e = discrete.discrete_energy(base, delta), discrete.discrete_energy(curve, delta)
    assert abs(e.total - e0.total) <= 1e-13 * (abs(e0.dirichlet) + abs(e0.bending))
    r0 = discrete.max_residual_norm(base, delta)
    r = discrete.max_residual_norm(curve, delta)
    if kind == "shift":
        assert r == r0
    else:
        assert abs(r - r0) <= 2e-6 * r0
