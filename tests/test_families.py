import numpy as np
import pytest

from contactcurves.curves import (
    arclength_check,
    frame_scalars,
    frenet_apparatus,
    sample_grid,
)
from contactcurves.families import (
    R4_PARAMS,
    circle,
    four_exponential,
    geodesic,
    helix,
    multi_exponential,
    orthogonal_helix,
    r4_curve,
    random_legendre_curve,
    rational_turn,
    two_exp_invariants,
    two_exponential,
)


def _grid(spec, m=96):
    if spec.closed:
        return sample_grid(spec, max(m, 16))
    return np.linspace(0.0, 2 * np.pi, m)


def test_circle_family():
    spec = circle(2.0)
    ts = _grid(spec)
    rep = arclength_check(spec, ts)
    assert rep.max_deviation < 1e-12
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 2
    assert np.max(np.abs(fr.curvatures[0] - 2.0)) < 1e-10
    sc = frame_scalars(fr)
    assert np.max(np.abs(sc.f)) < 1e-10
    with pytest.raises(ValueError, match="positive"):
        circle(-1.0)


def test_helix_family():
    spec = helix(-2.5, phase=0.7)
    ts = _grid(spec)
    fr = frenet_apparatus(spec, ts)
    inv = two_exp_invariants(0.0, -2.5, 0.0)
    assert fr.r == 3 == inv.r
    assert np.max(np.abs(fr.curvatures[0] - inv.k1)) < 1e-10
    assert np.max(np.abs(fr.curvatures[1] - inv.k2)) < 1e-10
    assert inv.k2 == pytest.approx(1.0)
    sc = frame_scalars(fr)
    assert np.max(np.abs(sc.f - inv.f)) < 1e-10
    assert abs(inv.f) == pytest.approx(1.0)


def test_two_exponential_generic_invariants():
    # formulas vs the jet/Gram-Schmidt route on a full-rank example
    theta, mu, nu = 0.931, 2.383, 1.654
    inv = two_exp_invariants(theta, mu, nu)
    assert inv.r == 5
    spec = two_exponential(theta, mu, nu, phase1=0.3, phase2=1.1)
    ts = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 5
    for i, k in enumerate((inv.k1, inv.k2, inv.k3)):
        assert np.max(np.abs(fr.curvatures[i] - k)) < 1e-9
    sc = frame_scalars(fr)
    assert np.max(np.abs(sc.f - inv.f)) < 1e-9
    assert np.max(np.abs(sc.eta[2] - inv.eta_E3)) < 1e-9
    assert np.max(np.abs(sc.g_phiT[3] - inv.g_phiT_E4)) < 1e-9
    assert np.max(np.abs(sc.eta[1])) < 1e-10


@pytest.mark.parametrize("idx", range(len(R4_PARAMS)))
def test_r4_params_really_drop_rank(idx):
    theta, mu, nu = R4_PARAMS[idx]
    inv = two_exp_invariants(theta, mu, nu)
    assert inv.r == 4
    spec = r4_curve(idx, phase1=0.2, phase2=0.9)
    ts = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 4
    for i, k in enumerate((inv.k1, inv.k2, inv.k3)):
        assert np.max(np.abs(fr.curvatures[i] - k)) < 1e-9


def test_r4_reversal_keeps_order():
    spec = r4_curve(0, reverse=True)
    ts = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 4


def test_geodesic_family():
    rng = np.random.default_rng(3)
    for _ in range(4):
        d = rng.normal(size=4)
        spec = geodesic(d)
        ts = np.linspace(-1.0, 2.0, 48)
        rep = arclength_check(spec, ts)
        assert rep.max_deviation < 1e-12
        assert np.max(np.abs(rep.defects)) < 1e-12
        fr = frenet_apparatus(spec, ts)
        assert fr.r == 1
    with pytest.raises(ValueError, match="nonzero"):
        geodesic((0.0, 0.0, 0.0, 0.0))


def test_four_exponential_nonconstant_curvature():
    spec = four_exponential(np.pi / 4, 2.0, 3.0)
    ts = np.linspace(0.25, 1.0, 128)
    rep = arclength_check(spec, ts)
    assert rep.max_defect < 1e-12
    assert rep.max_deviation < 1e-12
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 5
    assert np.ptp(fr.curvatures[1]) > 0.2
    assert np.min(fr.curvatures) > 0.3
    with pytest.raises(ValueError, match="nonzero"):
        four_exponential(0.3, 0.0, 1.0)


def test_random_curves_hit_each_order():
    rng = np.random.default_rng(11)
    for want in (1, 2, 3, 4):
        spec, info = random_legendre_curve(rng, r=want)
        assert info["r"] == want
        ts = _grid(spec, 64)
        rep = arclength_check(spec, ts)
        assert rep.max_deviation < 1e-10
        assert np.max(np.abs(rep.defects)) < 1e-10
        fr = frenet_apparatus(spec, ts)
        assert fr.r == want
    # unconstrained draws stay valid too
    for _ in range(4):
        spec, info = random_legendre_curve(rng)
        rep = arclength_check(spec, _grid(spec, 48))
        assert rep.max_deviation < 1e-10


def test_orthogonal_helix_invariants():
    spec = orthogonal_helix(1.2, 1.6)
    assert spec.n == 3
    ts = _grid(spec, 128)
    assert arclength_check(spec, ts).max_defect < 1e-12
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 3
    assert np.abs(fr.curvatures[0] - 1.2).max() < 1e-9
    assert np.abs(fr.curvatures[1] - 1.6).max() < 1e-9
    sc = frame_scalars(fr)
    assert np.abs(sc.f).max() < 1e-12
    assert np.abs(sc.eta[2]).max() < 1e-12
    with pytest.raises(ValueError, match="positive"):
        orthogonal_helix(-1.0, 2.0)


def test_multi_exponential_contract():
    # amplitude normalization is the caller's job and is enforced
    with pytest.raises(ValueError, match="sum to 1"):
        multi_exponential((1.0, 1.0), (2.0, 3.0))
    with pytest.raises(ValueError, match="equal nonzero length"):
        multi_exponential((1.0,), (2.0, 3.0))
    # a balanced pair reproduces the two-component family exactly
    a = np.cos(0.7)
    b = np.sin(0.7)
    spec = multi_exponential((a, b), (2.0, -1.0), phases=(0.3, 0.9))
    twin = two_exponential(0.7, 2.0, -1.0, phase1=0.3, phase2=0.9)
    ts = _grid(spec, 48)
    assert np.abs(spec.point(ts[7]) - twin.point(ts[7])).max() < 1e-12
    fr = frenet_apparatus(spec, ts)
    frt = frenet_apparatus(twin, ts)
    assert fr.r == frt.r
    assert np.abs(fr.curvatures - frt.curvatures).max() < 1e-10


def test_rational_turn_profile():
    spec = rational_turn()
    assert spec.n == 1 and not spec.closed
    ts = np.linspace(-2.0, 2.0, 129)
    rep = arclength_check(spec, ts)
    assert rep.max_deviation < 1e-12
    assert rep.max_defect < 1e-12
    fr = frenet_apparatus(spec, ts)
    assert fr.r == 3
    assert np.abs(fr.curvatures[0] - 2.0 / (1 + ts**2)).max() < 1e-10
