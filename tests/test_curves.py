import math
import re
from pathlib import Path

import numpy as np
import pytest

from contactcurves import analysis, curves, expressions, families, jets
from contactcurves.cli import load_curve_file
from contactcurves.curves import (
    CurveError,
    CurveSpec,
    IntegralCoordinate,
    QuadratureError,
    _composite_quad,
    arclength_check,
    coordinate_jets,
    frame_scalars,
    frenet_apparatus,
    make_legendre,
    sample_grid,
)
from contactcurves.discrete import DiscreteCurve
from contactcurves.expressions import EvaluationError, parse
from contactcurves.model import from_frame, metric_frame, phi_frame
from model_reference import covariant_derivative_along


def test_curve_spec_validation():
    with pytest.raises(CurveError, match="5 coordinate"):
        CurveSpec(2, ["t", "t", "t"])
    with pytest.raises(CurveError, match="does not parse"):
        CurveSpec(1, ["t", "t*", "0"])
    with pytest.raises(CurveError, match="n must be"):
        CurveSpec(0, ["t"])
    spec = CurveSpec(1, ["sin(t)", "cos(t)", "1"])
    assert spec.dim == 3
    assert spec.coord_texts == ("sin(t)", "cos(t)", "1")


def test_point_and_velocity(example_curve):
    p = example_curve.point(0.0)
    assert np.allclose(p, [0.0, -1.0, 0.0, 0.0, 1.0])
    v, _ = curves._velocity_jets(example_curve, 0.0, 1)
    assert np.allclose(v.value[:, 0], [2.0, 0.0, 0.0, 0.0, 0.0])
    ts = np.array([0.0, 0.25, 1.3])
    pts = example_curve.point(ts)
    assert pts.shape == (5, 3)
    assert np.allclose(pts[0], np.sin(2 * ts))


def test_sample_grid(example_curve):
    ts = sample_grid(example_curve, 64)
    assert ts.size == 64
    assert ts[0] == 0.0
    assert ts[-1] < example_curve.period
    with pytest.raises(CurveError, match="at least 16"):
        sample_grid(example_curve, 8)


def test_example_is_unit_speed_legendre(example_curve, example_grid):
    rep = arclength_check(example_curve, example_grid)
    assert rep.max_deviation < 1e-12
    assert rep.defects.shape == rep.speeds.shape == example_grid.shape
    assert np.max(np.abs(rep.defects)) < 1e-12


def test_make_legendre_z_closed_form():
    # x = sin t, y = cos t gives z' = cos^2 t, so z = z0 + t/2 + sin(2t)/4
    spec = make_legendre(["sin(t)"], ["cos(t)"], z0=0.25)
    ts = np.array([-1.0, 0.0, 0.4, 2.0, 5.5])
    zs = spec.point(ts)[2]
    expected = 0.25 + ts / 2 + np.sin(2 * ts) / 4
    assert np.max(np.abs(zs - expected)) < 1e-12

    v, _ = curves._velocity_jets(spec, ts, 4)
    # the z velocity's slots come from the integrand, so they are exact
    dz = [v.deriv(k)[2] for k in range(3)]
    assert np.allclose(dz[0], np.cos(ts) ** 2, atol=1e-13)
    assert np.allclose(dz[1], -np.sin(2 * ts), atol=1e-13)
    assert np.allclose(dz[2], -2 * np.cos(2 * ts), atol=1e-13)


def test_make_legendre_defect_is_roundoff():
    spec = make_legendre(
        ["-2*cos(3*t)/3", "0"], ["2*sin(3*t)/3", "0"], z0=1.0
    )
    rep = arclength_check(spec, sample_grid(spec, 128))
    assert rep.max_defect < 1e-10
    assert rep.max_deviation < 1e-12


def test_make_legendre_profile_mismatch():
    with pytest.raises(CurveError, match="profile mismatch"):
        make_legendre(["t", "t"], ["t"])


def test_quadrature_divergence_raises():
    spec = make_legendre(["1/(1 - t)"], ["1"])
    with pytest.raises(QuadratureError, match="did not converge") as err:
        spec.point(np.array([2.0]))
    # the panel named is the non-integrable singularity at t = 1
    a, b = map(float, re.search(r"on \[(\S+), (\S+)\]", str(err.value)).groups())
    assert abs(a - 1.0) < 1e-3 and abs(b - 1.0) < 1e-3


def test_quadrature_integrable_endpoint_singularity(monkeypatch):
    # integral_0^1 log(s) ds = -1; the bisection toward s = 0 must stop at
    # roundoff instead of demanding ever smaller absolute errors
    spec = make_legendre(["t"], ["log(t)"])
    calls = _count_integrand_calls(monkeypatch)
    z = spec.point(np.array([1.0, 2.0]))[-1]
    assert abs(z[0] + 1.0) < 1e-12
    assert abs(z[1] - (2.0 * np.log(2.0) - 2.0)) < 1e-12
    # one call per level: the panel at s = 0 is accepted at the 39th
    # bisection, once its tolerance has reached the roundoff floor
    assert calls[0] == 40


def test_bisected_z_matches_arctan():
    # z' = 1/(1 + 400 t^2) has z = atan(20 t)/20; its gaps near 0 bisect
    spec = make_legendre(["t"], ["1/(1+400*t^2)"])
    ts = np.concatenate((np.linspace(-1.0, 1.0, 9), [0.013, -0.4]))
    z = spec.point(ts)[-1]
    assert np.max(np.abs(z - np.arctan(20.0 * ts) / 20.0)) < 1e-12


def test_frenet_example_curve(example_curve, example_grid):
    fr = frenet_apparatus(example_curve, example_grid)
    assert fr.r == 2
    assert fr.m == 2
    assert np.max(np.abs(fr.curvatures[0] - 2.0)) < 1e-9

    ts = fr.ts
    T_expected = np.stack(
        [np.zeros_like(ts), np.zeros_like(ts), np.cos(2 * ts),
         np.sin(2 * ts), np.zeros_like(ts)]
    )
    E2_expected = np.stack(
        [np.zeros_like(ts), np.zeros_like(ts), -np.sin(2 * ts),
         np.cos(2 * ts), np.zeros_like(ts)]
    )
    assert np.max(np.abs(fr.frames[0] - T_expected)) < 1e-9
    assert np.max(np.abs(fr.frames[1] - E2_expected)) < 1e-9

    # orthonormality of the frame across the grid
    G = np.einsum("ikN,jkN->ijN", fr.frames, fr.frames)
    eye = np.eye(fr.r)[:, :, np.newaxis]
    assert np.max(np.abs(G - eye)) < 1e-8


def test_frenet_helix_case(example_curve):
    # single-frequency Legendre helix: k1 = 3, k2 = 1, E3 = +-xi
    spec = make_legendre(["-2*cos(3*t)/3", "0"], ["2*sin(3*t)/3", "0"])
    ts = sample_grid(spec, 256)
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 3
    assert np.max(np.abs(fr.curvatures[0] - 3.0)) < 1e-8
    assert np.max(np.abs(fr.curvatures[1] - 1.0)) < 1e-8
    assert np.min(fr.curvatures) > 0.0

    sc = frame_scalars(fr)
    assert np.max(np.abs(np.abs(sc.f) - 1.0)) < 1e-8
    assert np.max(np.abs(np.abs(sc.eta[2]) - 1.0)) < 1e-8
    assert np.max(np.abs(sc.g_phiT[2])) < 1e-8
    assert np.max(np.abs(sc.eta[1])) < 1e-10
    assert np.max(sc.offspan) < 1e-7


def test_frenet_geodesic():
    spec = CurveSpec(1, ["2*t", "0", "0"])
    ts = np.linspace(0.0, 1.0, 32)
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 1
    assert fr.curvatures.shape == (0, 32)


def test_frenet_rejects_non_unit_speed():
    spec = CurveSpec(2, ["sin(t)", "-cos(t)", "0", "0", "1"])
    with pytest.raises(CurveError, match="not unit speed"):
        frenet_apparatus(spec, sample_grid(spec, 64))


def test_frenet_default_unit_tol_is_1e_6():
    # the example circle with speed 1 + 1.2e-6 everywhere fails the
    # default bound and passes one of 1.5e-6
    spec = CurveSpec(2, ["1.0000012*sin(2*t)", "-1.0000012*cos(2*t)",
                         "0", "0", "1"])
    ts = sample_grid(spec, 64)
    with pytest.raises(CurveError, match=re.escape(
            "not unit speed: max speed deviation = 1.200000e-06 exceeds "
            "tolerance 1e-06")):
        frenet_apparatus(spec, ts)
    frenet = frenet_apparatus(spec, ts, unit_tol=1.5e-6)
    assert frenet.arclength.max_deviation == pytest.approx(1.2e-6, rel=1e-6)


def test_frenet_checks_legendre_before_speed():
    # eta(T) = 1/2 and speed sqrt(1/2): the Legendre defect is reported
    spec = CurveSpec(1, ["t", "0", "t"])
    with pytest.raises(CurveError, match="not Legendre"):
        frenet_apparatus(spec, np.linspace(0.0, 1.0, 32))


@pytest.mark.parametrize("row, message", [
    (4, "curve is not Legendre: max |eta(T)| = nan exceeds"),
    (2, "curve is not unit speed: max speed deviation = nan exceeds"),
], ids=["z", "y"])
def test_frenet_admission_rejects_nan(example_curve, monkeypatch, row, message):
    # the jet pass rejects non-finite values itself; a nan that reaches the
    # admission tests anyway fails them, since nan compares false with any
    # bound.  A nan z velocity leaves no finite defect, a nan y velocity
    # leaves the defect finite and the speed nan.
    original = curves._velocity_jets

    def with_nan(spec, ts, order):
        v, y = original(spec, ts, order)
        v.coeffs[0, row, 3] = np.nan
        return v, y

    monkeypatch.setattr(curves, "_velocity_jets", with_nan)
    with pytest.raises(CurveError, match=re.escape(message)):
        frenet_apparatus(example_curve, sample_grid(example_curve, 64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coords, text, t", [
    # exp(-800 t) exp(800 t) is 1 in exact arithmetic, inf * 0 past t = 0.887
    (["sin(t)+exp(-800*t)*exp(800*t)-1", "cos(t)", "0"],
     "sin(t)+exp(-800*t)*exp(800*t)-1", 0.9375),
    # the first coordinate in spec order is named, not the first t
    (["sin(t)+exp(1000*t)*0", "cos(t)+exp(2000*t)*0", "0"],
     "sin(t)+exp(1000*t)*0", 0.75),
    # a y value that overflows while its derivative stays finite
    (["sin(t)", "1e308*t+1e308", "0"], "1e308*t+1e308", 0.8125),
], ids=["cancelling", "first-coordinate", "y-value"])
def test_overflow_is_named_by_its_coordinate(coords, text, t):
    spec = CurveSpec(1, coords)
    ts = np.linspace(0.0, 1.0, 17)
    message = re.escape(f"non-finite value at t={t} while evaluating {text!r}")
    with pytest.raises(EvaluationError, match=message):
        curves._velocity_jets(spec, ts, 1)
    with pytest.raises(EvaluationError, match=message):
        coordinate_jets(spec, ts)


@pytest.mark.parametrize("grid", [64, 256])
@pytest.mark.parametrize("spec", [
    pytest.param(CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"]),
                 id="example"),
    pytest.param(families.helix(), id="helix"),
    pytest.param(families.orthogonal_helix(), id="orthogonal_helix"),
    pytest.param(families.r4_curve(0), id="r4_curve"),
    pytest.param(families.two_exponential(0.3, 2.0, -1.0), id="two_exponential"),
    *(pytest.param(
        families.random_legendre_curve(np.random.default_rng(10 + r), r)[0],
        id=f"random_r{r}") for r in (1, 2, 3, 4)),
])
def test_frenet_arclength_equals_arclength_check(spec, grid):
    # the Frenet jets' first derivative slot gives the order-1 numbers
    ts = sample_grid(spec, grid)
    got = frenet_apparatus(spec, ts).arclength
    want = arclength_check(spec, ts)
    for name in ("ts", "speeds", "defects"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.max_deviation == want.max_deviation
    assert got.max_defect == want.max_defect


def test_frenet_nonconstant_order_names_t():
    # |W| after projection crosses zero at t=1 for this profile; the speed
    # gate is disabled so the osculating-order check is what trips
    spec = CurveSpec(1, ["t*t", "0", "0"])
    ts = np.linspace(0.0, 2.0, 65)
    with pytest.raises(CurveError, match="not constant") as err:
        frenet_apparatus(spec, ts, unit_tol=np.inf)
    assert "t=1" in str(err.value)


def test_frenet_jet_order_follows_dimension():
    # three circles at frequencies 1, 2, 3 span all of R^7, so r = 2n+1 = 7
    # and E_1..E_6 must all be differentiated: the order-5 build runs out at
    # E_5 and the jets are rebuilt at order 7
    spec = families.multi_exponential([1.0 / np.sqrt(3.0)] * 3, [1.0, 2.0, 3.0])
    fr = frenet_apparatus(spec, sample_grid(spec, 64), tol=1e-6)
    assert (fr.r, fr.m) == (7, 4)
    scalars = frame_scalars(fr)
    for c, delta in ((-3.0, (0.0, 1.0)), (2.5, (1.5, -0.5))):
        direct, = analysis._direct_reports(fr, c, [delta])
        closed = analysis.residual_closed_form(fr, scalars, c, delta)
        assert np.max(np.abs(direct.vector - closed.vector)) < 1e-12


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_frenet_stacks_exactly_r_frames(r):
    # residual_closed_form reads frames[:m] with no guard: this is why
    spec, _ = families.random_legendre_curve(np.random.default_rng(60 + r), r)
    fr = frenet_apparatus(spec, sample_grid(spec, 64), unit_tol=1e-5)
    assert fr.r == r
    assert fr.frames.shape[0] == r and fr.curvatures.shape[0] == r - 1


def test_last_frenet_equation_rederived():
    # nabla_T E_r = -k_{r-1} E_{r-1}, with the left side recomputed through
    # the sampled-field differentiation route rather than the frame jets
    spec = make_legendre(["-2*cos(3*t)/3", "0"], ["2*sin(3*t)/3", "0"])
    ts = sample_grid(spec, 512)
    fr = frenet_apparatus(spec, ts)
    Er = from_frame(fr.frames[-1], fr.y, fr.n)
    lhs = covariant_derivative_along(spec, Er, ts)
    rhs = -fr.curvatures[-1][np.newaxis] * from_frame(fr.frames[-2], fr.y, fr.n)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_covariant_derivative_frame_field_vs_table(example_curve, example_grid):
    # along the example curve T = cos(2t) X_3 + sin(2t) X_4, so the table
    # gives nabla_T X_1 = -cos(2t) xi, with coordinates (0,0,0,0,-2cos 2t)
    ts = example_grid
    X1 = np.broadcast_to(
        np.array([0.0, 0.0, 2.0, 0.0, 0.0])[:, np.newaxis], (5, ts.size)
    )

    def x1_field(tj):
        return jets.constant(
            np.broadcast_to(
                np.array([0.0, 0.0, 2.0, 0.0, 0.0])[:, np.newaxis],
                (5, np.atleast_1d(tj.value).size),
            ),
            order=tj.order,
        )

    expected = np.zeros((5, ts.size))
    expected[4] = -2.0 * np.cos(2 * ts)

    exact = covariant_derivative_along(example_curve, x1_field, ts)
    assert np.max(np.abs(exact - expected)) < 1e-12

    sampled = covariant_derivative_along(example_curve, X1.copy(), ts)
    assert np.max(np.abs(sampled - expected)) < 1e-7


def test_covariant_derivative_callable_must_be_jet_aware(example_curve):
    # a callable that only takes floats is an error, not a quiet switch to
    # the (1e-7 accurate) stencils; its samples are the supported input
    ts = sample_grid(example_curve, 64)

    def float_only(t):
        return np.array([0.0, 0.0, 2.0 * math.cos(t), 0.0, 0.0])

    with pytest.raises(TypeError):
        covariant_derivative_along(example_curve, float_only, ts)
    with pytest.raises(CurveError, match="not a Jet"):
        covariant_derivative_along(
            example_curve, lambda t: np.zeros(5), ts
        )
    sampled = np.stack([float_only(t) for t in ts], axis=1)
    assert covariant_derivative_along(example_curve, sampled, ts).shape == (
        5, ts.size
    )


def test_covariant_derivative_sampled_needs_grid(example_curve):
    ts = np.array([0.0, 0.1, 0.2])
    with pytest.raises(CurveError, match="at least 5"):
        covariant_derivative_along(example_curve, np.zeros((5, 3)), ts)
    bad_ts = np.array([0.0, 0.1, 0.25, 0.3, 0.5])
    with pytest.raises(CurveError, match="uniform"):
        covariant_derivative_along(example_curve, np.zeros((5, 5)), bad_ts)


def test_frame_scalars_example(example_curve, example_grid):
    fr = frenet_apparatus(example_curve, example_grid)
    sc = frame_scalars(fr)
    assert np.max(np.abs(sc.f)) < 1e-9
    assert np.max(np.abs(sc.eta[1])) < 1e-12
    # phi T is horizontal and unit, entirely off the osculating plane here
    assert np.max(np.abs(sc.offspan - 1.0)) < 1e-9
    # rows are indexed by frame number: E1 and the rows past r = 2 are zero
    assert not sc.g_phiT[[0, 2, 3]].any() and not sc.eta[[0, 2, 3]].any()
    bound = sc.f ** 2 + sc.g_phiT[2] ** 2 + sc.g_phiT[3] ** 2
    assert np.max(bound) <= 1.0 + 1e-8
    f_jet = metric_frame(phi_frame(fr.frame_jets[0], 2), fr.frame_jets[1])
    assert np.max(np.abs(f_jet.deriv(1))) < 1e-8


def test_integral_coordinate_negative_and_repeat_times():
    spec = make_legendre(["sin(t)"], ["cos(t)"])
    ts = np.array([1.0, -2.0, 0.0, 1.0, 3.0])
    zs = spec.point(ts)[2]
    expected = ts / 2 + np.sin(2 * ts) / 4
    assert np.max(np.abs(zs - expected)) < 1e-12


def _per_gap_z(coord, ts):
    """Reference z: one quadrature call per gap of the sorted ts and 0."""
    ts = np.asarray(ts, dtype=float)
    anchors = np.unique(np.concatenate(([0.0], ts)))
    running = np.concatenate(([0.0], np.cumsum([
        _composite_quad(lambda s: coord._integrand_jet(jets.variable(s, 1), {}).value,
                        np.array([a]), np.array([b]))[0]
        for a, b in zip(anchors[:-1], anchors[1:])
    ])))
    running -= running[np.searchsorted(anchors, 0.0)]
    return coord.z0 + running[np.searchsorted(anchors, ts)]


def _assert_matches_per_gap(spec, ts):
    coord = spec.coords[-1]
    z = coord.values(ts)
    ref = _per_gap_z(coord, ts)
    assert np.all(np.abs(z - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("grid", [256, 4096])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_batched_z_matches_per_gap_quadrature(r, grid):
    spec, _ = families.random_legendre_curve(np.random.default_rng(r), r)
    _assert_matches_per_gap(spec, sample_grid(spec, grid))


def test_batched_z_matches_per_gap_on_irregular_times():
    spec, _ = families.random_legendre_curve(np.random.default_rng(7), 4)
    ts = np.random.default_rng(8).uniform(-7.0, 7.0, 200)
    ts = np.concatenate((ts, ts[:20], [0.0, 0.0, -3.5]))
    _assert_matches_per_gap(spec, ts)
    _assert_matches_per_gap(spec, np.array([0.0]))
    _assert_matches_per_gap(spec, np.array([-2.0, -2.0]))


def test_batched_z_matches_per_gap_on_open_grid():
    spec = families.rational_turn()
    _assert_matches_per_gap(spec, np.linspace(-3.0, 2.0, 256))


def _count_integrand_calls(monkeypatch):
    calls = [0]
    original = IntegralCoordinate._integrand_jet

    def counted(self, t, shared):
        calls[0] += 1
        return original(self, t, shared)

    monkeypatch.setattr(IntegralCoordinate, "_integrand_jet", counted)
    return calls


def test_bisected_z_matches_a_period_integral(monkeypatch):
    # the integral of 1/(b + cos t) over one period is 2 pi / sqrt(b^2 - 1);
    # the gap [0, 2 pi] settles at the fourth bisection, and would at the
    # third with a tolerance 10x looser or one that shrank by 0.75 per level
    spec = make_legendre(["t"], ["1/(1.3+cos(t))"])
    calls = _count_integrand_calls(monkeypatch)
    z = spec.point(np.array([2.0 * np.pi]))[-1]
    assert abs(z[0] - 2.0 * np.pi / np.sqrt(1.3 ** 2 - 1.0)) < 1e-12 * abs(z[0])
    assert calls[0] == 5


@pytest.mark.parametrize("xs, ys, ts, levels", [
    (["t"], ["1/(1+400*t^2)"], [-1.0, 1.0], 5),
    (["sin(t)"], ["exp(4*cos(t))"], [2 * np.pi, 3.0], 3),
])
def test_batched_z_bisects_gaps_the_rules_disagree_on(xs, ys, ts, levels, monkeypatch):
    spec = make_legendre(xs, ys)
    calls = _count_integrand_calls(monkeypatch)
    spec.coords[-1].values(np.array(ts))
    # the first pass alone did not settle these gaps; each bisection level
    # after it is one more call
    assert calls[0] == levels
    _assert_matches_per_gap(spec, np.array(ts))


def test_smooth_z_takes_one_integrand_call(monkeypatch):
    spec, _ = families.random_legendre_curve(np.random.default_rng(3), 4)
    ts = sample_grid(spec, 256)
    calls = _count_integrand_calls(monkeypatch)
    spec.coords[-1].values(ts)
    assert calls[0] == 1


@pytest.mark.parametrize("x, levels, tail", [
    # a pole at the gap's end 0: one panel stays open per level
    ("1/t", 41, "after 40 bisections"),
    # a pole inside the gap: the roundoff of 1 - t keeps panels near it open
    # too, and their number passes the open-panel limit first
    ("1/(1 - t)", 34, "after 33 bisections with 5005 panels open"),
])
def test_divergent_z_fails_fast(x, levels, tail, monkeypatch):
    spec = make_legendre([x], ["1"])
    calls = _count_integrand_calls(monkeypatch)
    with pytest.raises(QuadratureError, match="did not converge") as err:
        spec.point(np.array([2.0]))
    assert str(err.value).endswith(tail)
    assert calls[0] == levels


def test_open_panel_limit_grows_with_the_gap_count(monkeypatch):
    # 8192 gaps of about 24 radians of sin(2e5 t) each: all of them bisect
    # once, which is more than _MAX_OPEN panels but not more than the gaps
    spec = make_legendre(["t"], ["sin(2e5*t)"])
    ts = np.linspace(0.0, 1.0, 8193)
    calls = _count_integrand_calls(monkeypatch)
    z = spec.point(ts)[-1]
    assert calls[0] == 2
    assert np.max(np.abs(z - (1.0 - np.cos(2e5 * ts)) / 2e5)) < 1e-12


@pytest.mark.parametrize("y", ["exp(exp(t))", "sin(1e15*t)"])
def test_open_panels_are_bounded(y, monkeypatch):
    # a non-finite integrand past t = 6.56, and one no level resolves: every
    # panel there stays open, so without the limit their number would double
    # for 40 levels
    widest = [0]
    original = IntegralCoordinate._integrand_jet

    def recorded(self, t, shared):
        widest[0] = max(widest[0], t.value.shape[0])
        return original(self, t, shared)

    monkeypatch.setattr(IntegralCoordinate, "_integrand_jet", recorded)
    with pytest.raises(QuadratureError, match="panels open$"):
        make_legendre(["t"], [y]).point(np.array([10.0]))
    assert widest[0] <= 2 * curves._MAX_OPEN


# ---------------------------------------------------------------------------
# the analysis path reads velocity and y jets, never a z value


def _count_z_quadratures(monkeypatch):
    calls = [0]
    original = IntegralCoordinate.values

    def counted(self, ts):
        calls[0] += 1
        return original(self, ts)

    monkeypatch.setattr(IntegralCoordinate, "values", counted)
    return calls


@pytest.mark.parametrize("r", [2, 3, 4])
def test_analysis_integrates_no_z(r, monkeypatch):
    spec, _ = families.random_legendre_curve(np.random.default_rng(40 + r), r)
    ts = sample_grid(spec, 128)
    calls = _count_z_quadratures(monkeypatch)
    arclength_check(spec, ts)
    frenet = frenet_apparatus(spec, ts, unit_tol=1e-5)
    scalars = frame_scalars(frenet)
    analysis.residual_direct(spec, ts)
    analysis.theorem31_check(frenet, scalars, -3.0, (0.0, 1.0))
    covariant_derivative_along(spec, np.ones((spec.dim, ts.size)), ts)
    assert calls[0] == 0
    spec.point(ts)
    assert calls[0] == 1
    DiscreteCurve.from_spec(spec, 64)
    assert calls[0] == 2


def test_positions_are_one_order_0_pass(example_curve, monkeypatch):
    # positions read value slots only, so their pass carries no derivatives
    orders = []
    original = expressions.Expr.evaluate

    def recorded(self, t, shared):
        orders.append(t.order)
        return original(self, t, shared)

    monkeypatch.setattr(expressions.Expr, "evaluate", recorded)
    example_curve.point(sample_grid(example_curve, 64))
    assert orders == [0] * example_curve.dim


@pytest.mark.parametrize("slot", [0, 1, 3])
def test_integral_source_is_only_z(slot):
    integral = IntegralCoordinate(0.5, [parse("sin(t)")], [parse("t^2")])
    coords = ["sin(t)", "t^2", "cos(3*t)"]
    if slot < 3:
        coords[slot] = integral
        with pytest.raises(CurveError, match=re.escape(
                f"coordinate {slot + 1}: an integral source can only be z, "
                "coordinate 3")):
            CurveSpec(1, coords)
    else:
        coords[2] = integral
        assert CurveSpec(1, coords).coords[2] is integral


# ---------------------------------------------------------------------------
# one sharing scope per jet pass, against evaluation with no sharing at all


def _unshared_eval(node, t):
    """Every node of the tree evaluated afresh, as before the sharing scope."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "t":
        return t
    if tag == "neg":
        return -_unshared_eval(node[1], t)
    if tag == "bin":
        _, op, left, right = node
        a, b = _unshared_eval(left, t), _unshared_eval(right, t)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        return a * b if op == "*" else a / b
    if tag == "pow":
        base = _unshared_eval(node[1], t)
        if isinstance(base, jets.Jet):
            return base ** node[2]
        return np.asarray(base, dtype=float) ** node[2]
    return getattr(jets, node[1])(_unshared_eval(node[2], t))


def _unshared_jet(expr, t):
    out = _unshared_eval(expr.ast, t)
    if isinstance(out, jets.Jet):
        return out
    return jets.constant(np.broadcast_to(out, t.shape), t.order)


def _unshared_integrand_jet(coord, ts, order):
    """The z integrand sum_i y_i x_i' with y evaluated on a truncated variable."""
    tj = jets.variable(ts, order + 1)
    total = None
    for xe, ye in zip(coord.x_exprs, coord.y_exprs):
        y = _unshared_jet(ye, tj.truncate(order))
        term = y * _unshared_jet(xe, tj).derivative()
        total = term if total is None else total + term
    return total


def _unshared_tail(coord, ts, order):
    k = np.arange(1, order + 1, dtype=float)[:, np.newaxis]
    return _unshared_integrand_jet(coord, ts, order - 1).coeffs / k


def _unshared_velocity_jets(spec, ts, order):
    """curves._velocity_jets with every coordinate and the z tail on its own."""
    n = spec.n
    t = jets.variable(ts, order)
    tails, ys = [], []
    for i, c in enumerate(spec.coords):
        if isinstance(c, IntegralCoordinate):
            tails.append(_unshared_tail(c, ts, order))
            continue
        j = _unshared_jet(c, t)
        tails.append(j.coeffs[1:])
        if n <= i < 2 * n:
            ys.append(j)
    k = np.arange(1, order + 1, dtype=float)[:, np.newaxis, np.newaxis]
    return jets.Jet(np.stack(tails, axis=1) * k), jets.stack(ys, axis=0)


CURVE_FILES = Path(__file__).resolve().parent / "curves"
SHARING_CASES = [
    *(pytest.param(lambda r=r: families.random_legendre_curve(
        np.random.default_rng(60 + r), r)[0], id=f"random_r{r}")
      for r in range(1, 5)),
    pytest.param(families.orthogonal_helix, id="orthogonal_helix"),
    pytest.param(families.rational_turn, id="rational_turn"),
    pytest.param(lambda: families.multi_exponential([1.0 / math.sqrt(3.0)] * 3,
                                                    [1.0, 2.0, 3.0]),
                 id="three_circle"),
    pytest.param(lambda: load_curve_file(CURVE_FILES / "shared_trig.txt"),
                 id="shared_trig"),
    # one argument repeated across x, y and the z integrand, and inside x
    pytest.param(lambda: make_legendre(["cos(2*t+1)*sin(2*t+1)+cos(2*t+1)"],
                                       ["sin(2*t+1)"]), id="shared_trig_legendre"),
    pytest.param(lambda: load_curve_file(CURVE_FILES / "elementary.txt"),
                 id="elementary"),
    pytest.param(lambda: make_legendre(["exp(t/3)-atan(t)^2"],
                                       ["log(2+t)/(1+t^2)"]),
                 id="elementary_legendre"),
]


@pytest.mark.parametrize("make", SHARING_CASES)
def test_shared_jet_pass_equals_unshared_evaluation(make):
    spec = make()
    ts = np.linspace(0.0, 2.0, 41)
    for order in range(1, 8):
        v, y = curves._velocity_jets(spec, ts, order)
        want_v, want_y = _unshared_velocity_jets(spec, ts, order)
        _assert_bitwise(v.coeffs, want_v.coeffs)
        _assert_bitwise(y.coeffs, want_y.coeffs)
    # positions are the value slot of the same jets
    _assert_bitwise(coordinate_jets(spec, ts)[spec.n:2 * spec.n], want_y.value)


def _trig_arguments(spec):
    """Distinct arguments of sin and cos calls in the curve's expressions."""
    args = set()

    def walk(node):
        if node[0] == "call" and node[1] in ("sin", "cos"):
            args.add(node[2])
        for child in node[1:]:
            if isinstance(child, tuple):
                walk(child)

    for c in spec.coords:
        exprs = ([*c.x_exprs, *c.y_exprs] if isinstance(c, IntegralCoordinate)
                 else [c])
        for e in exprs:
            walk(e.ast)
    return args


def _count_sin_cos(monkeypatch):
    calls = [0]
    original = jets._sin_cos

    def counted(u):
        calls[0] += 1
        return original(u)

    monkeypatch.setattr(jets, "_sin_cos", counted)
    return calls


def test_one_sin_cos_per_distinct_trig_argument(monkeypatch):
    # two rotors: x_i and y_i are cos and sin of one argument, and the z
    # integrand reads both again
    spec, _ = families.random_legendre_curve(np.random.default_rng(64), 4)
    distinct = len(_trig_arguments(spec))
    assert distinct == spec.n == 2
    calls = _count_sin_cos(monkeypatch)
    curves._velocity_jets(spec, sample_grid(spec, 64), 5)
    assert calls[0] == distinct


def test_z_tail_evaluates_no_profile_expression_again(monkeypatch):
    spec, _ = families.random_legendre_curve(np.random.default_rng(64), 4)
    roots = [c.ast for c in spec.coords[:2 * spec.n]]
    evaluated = []
    original = expressions._eval

    def counted(node, *args):
        if any(node is root for root in roots):
            evaluated.append(node)
        return original(node, *args)

    monkeypatch.setattr(expressions, "_eval", counted)
    curves._velocity_jets(spec, sample_grid(spec, 64), 5)
    assert len(evaluated) == len(roots)


def test_no_sharing_scope_outlives_its_pass(monkeypatch):
    calls = _count_sin_cos(monkeypatch)
    counts = []
    for _ in range(2):
        # a new CurveSpec with the same texts each time
        spec, _ = families.random_legendre_curve(np.random.default_rng(64), 4)
        ts = sample_grid(spec, 64)
        for _ in range(2):
            before = calls[0]
            curves._velocity_jets(spec, ts, 5)
            counts.append(calls[0] - before)
    assert counts[0] > 0
    assert counts == [counts[0]] * 4


def test_shared_failure_is_named_by_the_first_coordinate():
    ts = np.linspace(0.0, 1.0, 17)
    for spec, text in (
        (CurveSpec(1, ["3*log(t-10)", "log(t-10)+1", "0"]), "3*log(t-10)"),
        (make_legendre(["2+log(t-10)"], ["log(t-10)"]), "2+log(t-10)"),
    ):
        with pytest.raises(EvaluationError, match=re.escape(
                f"log of a non-positive jet value while evaluating {text!r}")):
            curves._velocity_jets(spec, ts, 3)


# ---------------------------------------------------------------------------
# the Frenet build at order 5 against one pass at order max(6, 2n+1)


def _full_order_frenet(spec, ts, tol):
    """The Gram-Schmidt loop at order max(6, 2n+1), whatever r turns out to be."""
    n, dim = spec.n, spec.dim
    v, y, T = curves._curve_frames(spec, ts, max(6, dim))
    arclength = curves._arclength_report(ts, v.value, y.value, n)
    frame_list = [T]
    curv_jets = []
    while True:
        i = len(frame_list)
        if i == dim:
            r = dim
            break
        w = curves._nabla_along(n, T, frame_list[-1])
        for e in frame_list:
            w = w - metric_frame(w, e) * e.truncate(w.order)
        norm2 = metric_frame(w, w)
        kvals = np.sqrt(np.maximum(norm2.value, 0.0))
        if np.max(kvals) < tol:
            r = i
            break
        k_jet = jets.sqrt(norm2)
        frame_list.append(w / k_jet)
        curv_jets.append(k_jet)
    return r, frame_list, curv_jets, arclength


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _r4_curve_in_n3():
    """A tabulated r = 4 curve with a third, silent complex axis."""
    theta, mu, nu = families.R4_PARAMS[1]
    return families.multi_exponential(
        [math.cos(theta), math.sin(theta), 0.0], [mu, nu, 0.0]
    )


_HALF = math.sqrt(0.5)
# (spec, r, tol): n = 1, 2, 3 at every osculating order up to 4 that the
# dimension allows, plus the three-circle curve, whose r = 7 needs order 7
FRENET_ORDER_CASES = [
    pytest.param(CurveSpec(1, ["2*t", "0", "0"], closed=False), 1, 1e-7,
                 id="n1_geodesic"),
    pytest.param(families.multi_exponential([1.0], [2.0]), 3, 1e-7,
                 id="n1_circle"),
    pytest.param(families.rational_turn(), 3, 1e-7, id="n1_rational_turn"),
    pytest.param(families.geodesic((1.0, 0.5, -0.3, 0.2)), 1, 1e-7,
                 id="n2_geodesic"),
    pytest.param(families.circle(1.7, 0.3, 0.9), 2, 1e-7, id="n2_circle"),
    pytest.param(families.helix(2.5, 0.4), 3, 1e-7, id="n2_helix"),
    pytest.param(families.r4_curve(0), 4, 1e-7, id="n2_r4"),
    pytest.param(make_legendre(["1.2*t", "0", "0"], ["0", "1.6*t", "0"],
                               closed=False), 1, 1e-7, id="n3_geodesic"),
    pytest.param(families.multi_exponential([_HALF, _HALF, 0.0],
                                            [1.5, -1.5, 0.0]), 2, 1e-7,
                 id="n3_circle"),
    pytest.param(families.orthogonal_helix(), 3, 1e-7, id="n3_orthogonal_helix"),
    pytest.param(_r4_curve_in_n3(), 4, 1e-7, id="n3_r4"),
    pytest.param(families.multi_exponential([1.0 / math.sqrt(3.0)] * 3,
                                            [1.0, 2.0, 3.0]), 7, 1e-6,
                 id="three_circle"),
]


def _frenet_grid(spec):
    return sample_grid(spec, 64) if spec.closed else np.linspace(-2.0, 2.0, 65)


@pytest.mark.parametrize("spec, r, tol", FRENET_ORDER_CASES)
def test_frenet_matches_full_order_build(spec, r, tol):
    ts = _frenet_grid(spec)
    fr = frenet_apparatus(spec, ts, tol=tol)
    want_r, frame_list, curv_jets, arclength = _full_order_frenet(spec, ts, tol)
    assert fr.r == want_r == r
    _assert_bitwise(fr.frames, np.stack([e.value for e in frame_list]))
    _assert_bitwise(fr.curvatures,
                    np.stack([k.value for k in curv_jets]) if curv_jets
                    else np.zeros((0, ts.size)))
    for name in ("speeds", "defects"):
        _assert_bitwise(getattr(fr.arclength, name), getattr(arclength, name))
    assert fr.arclength.max_deviation == arclength.max_deviation
    assert fr.arclength.max_defect == arclength.max_defect
    for i, upto in ((0, 2), (1, 1), (2, 0))[:r - 1]:
        _assert_bitwise(fr.curvature_derivs(i, upto),
                        np.stack([curv_jets[i].deriv(k)
                                  for k in range(upto + 1)]))
    if r >= 2:
        f_jet = metric_frame(phi_frame(fr.frame_jets[0], spec.n), fr.frame_jets[1])
        want = metric_frame(phi_frame(frame_list[0], spec.n), frame_list[1])
        for k in range(2):
            _assert_bitwise(f_jet.deriv(k), want.deriv(k))


@pytest.mark.parametrize("spec, r, tol", FRENET_ORDER_CASES)
def test_frenet_evaluates_the_curve_once_unless_r_exceeds_4(spec, r, tol,
                                                            monkeypatch):
    calls = []
    original = curves._velocity_jets

    def counted(spec, ts, order):
        calls.append(order)
        return original(spec, ts, order)

    monkeypatch.setattr(curves, "_velocity_jets", counted)
    frenet_apparatus(spec, _frenet_grid(spec), tol=tol)
    assert calls == ([5] if r <= 4 else [5, spec.dim])


def test_curvature_derivs_beyond_the_jet_order_raise():
    spec = families.r4_curve(0)
    fr = frenet_apparatus(spec, sample_grid(spec, 64))
    assert [k.order for k in fr.curvature_jets] == [3, 2, 1]
    assert fr.curvature_derivs(0, upto=3).shape == (4, 64)
    with pytest.raises(CurveError, match=r"k_1 \(i=0\).*order 3.*up to 4"):
        fr.curvature_derivs(0, upto=4)
    with pytest.raises(CurveError, match=r"k_3 \(i=2\).*order 1.*up to 2"):
        fr.curvature_derivs(2, upto=2)
