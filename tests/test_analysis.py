"""Variational analysis: dual-route residuals, classification, delta solving.

Expected numbers here come from three independent sources: hand-computed
frame data for the stock circle, the closed-form invariants of the
exponential families, and synthetic frame data built directly from the
scalar constants a case prescribes.  Nothing is copied from the code under
test.
"""

import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import model_reference as ref
from contactcurves import analysis, cli, curves, families, jets, model


def grid(spec, m=128):
    return curves.sample_grid(spec, m)


def frenet_pair(spec, ts, **kw):
    fr = curves.frenet_apparatus(spec, ts, **kw)
    return fr, curves.frame_scalars(fr)


def synthetic_frenet(curvature_constants, frame_vectors, n=2, N=48):
    """FrenetData with prescribed frames and constant curvatures, no curve.

    Entries of frame_vectors may be constant (dim,) vectors or full
    (dim, N) arrays.  Each curvature is a constant, and its jet (order 2,
    the most the analysis layer reads) has zero derivatives, which is
    exact; frame jets are left empty.
    """
    ts = np.linspace(0.0, 1.0, N)
    rows = []
    for v in frame_vectors:
        v = np.asarray(v, dtype=float)
        rows.append(np.repeat(v[:, None], N, axis=1) if v.ndim == 1 else v)
    k_jets = [jets.constant(np.full(N, float(k)), order=2)
              for k in curvature_constants]
    return curves.FrenetData(
        ts=ts,
        n=n,
        r=len(rows),
        frames=np.stack(rows),
        curvatures=(np.stack([k.value for k in k_jets]) if k_jets
                    else np.zeros((0, N))),
        y=np.zeros((n, N)),
        curvature_jets=k_jets,
    )


# ---------------------------------------------------------------------------
# tension and bitension


def test_tension_example_is_scaled_normal(example_curve, example_grid):
    tau = analysis.tension(example_curve, example_grid)
    norms = np.linalg.norm(tau, axis=0)
    assert np.abs(norms - 2.0).max() < 1e-9
    # tau = k1 E2 with E2 = -sin(2t) X3 + cos(2t) X4 (hand computation)
    expected = np.zeros_like(tau)
    expected[2] = -2.0 * np.sin(2 * example_grid)
    expected[3] = 2.0 * np.cos(2 * example_grid)
    assert np.abs(tau - expected).max() < 1e-9


def test_tension_norm_matches_first_curvature():
    spec = families.orthogonal_helix(1.2, 1.6)
    ts = grid(spec)
    tau = analysis.tension(spec, ts)
    assert np.abs(np.linalg.norm(tau, axis=0) - 1.2).max() < 1e-9


def test_tension_geodesic_vanishes():
    spec = families.geodesic((0.3, -1.0, 0.2, 0.5))
    ts = np.linspace(0.0, 2.0, 64)
    tau = analysis.tension(spec, ts)
    assert np.abs(tau).max() < 1e-10


def test_bitension_example(example_curve, example_grid):
    tau2 = analysis.bitension(example_curve, example_grid)
    expected = np.zeros_like(tau2)
    expected[2] = 8.0 * np.sin(2 * example_grid)
    expected[3] = -8.0 * np.cos(2 * example_grid)
    assert np.abs(tau2 - expected).max() < 1e-9


def test_bitension_tangential_component_tracks_curvature_slope():
    # nonconstant k1 = 2/(1+t^2): the component along T must equal
    # -3 k1 k1' = 24 t / (1+t^2)^3, a formula derived by hand
    spec = families.rational_turn()
    ts = np.linspace(-1.5, 1.5, 161)
    rep = analysis.residual_direct(spec, ts, delta=(0.0, 1.0))
    expected = 24.0 * ts / (1.0 + ts**2) ** 3
    assert np.abs(rep.equation_residuals[0] - expected).max() < 1e-8


@pytest.mark.parametrize("spec", [
    pytest.param(curves.CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"]),
                 id="example"),
    pytest.param(families.helix(), id="helix"),
    pytest.param(families.orthogonal_helix(), id="orthogonal_helix"),
    pytest.param(families.r4_curve(0), id="r4_curve"),
])
def test_tension_and_bitension_match_longer_jets(spec):
    # tension reads T to order 1 and bitension to order 3, so jets of
    # order 2 and 4 give the bits that order 3 and 6 gave
    ts = grid(spec, 96)
    T3 = curves._curve_frames(spec, ts, 3)[2]
    T6 = curves._curve_frames(spec, ts, 6)[2]
    tau = analysis._direct_jets(spec.n, T3, depth=1)[1].value
    got = analysis.tension(spec, ts)
    assert np.array_equal(got, tau)
    assert np.array_equal(np.signbit(got), np.signbit(tau))
    for c in (-3.0, 0.5, 2.0):
        want = analysis._bitension_parts(spec.n, T6, c)[1]
        got = analysis.bitension(spec, ts, c)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_curvature_derivatives_rational_turn():
    spec = families.rational_turn()
    ts = np.linspace(-1.5, 1.5, 161)
    fr = curves.frenet_apparatus(spec, ts)
    assert fr.r == 3
    k1, k1d, k1dd = fr.curvature_derivs(0, upto=2)
    assert np.abs(k1 - 2.0 / (1 + ts**2)).max() < 1e-10
    assert np.abs(k1d + 4.0 * ts / (1 + ts**2) ** 2).max() < 1e-10
    assert np.abs(k1dd - (12.0 * ts**2 - 4.0) / (1 + ts**2) ** 3).max() < 1e-9
    assert np.abs(fr.curvatures[1] - 1.0).max() < 1e-10


# ---------------------------------------------------------------------------
# residual: frozen values, algebraic structure, dual routes


def test_residual_example_critical_pair(example_curve, example_grid):
    rep = analysis.residual_direct(example_curve, example_grid, delta=(-8.0, 2.0))
    assert rep.max_norm < 1e-8


def test_residual_example_pure_bending(example_curve, example_grid):
    rep = analysis.residual_direct(example_curve, example_grid, delta=(0.0, 1.0))
    assert np.abs(rep.max_norm - 8.0) < 1e-6
    assert len(rep.equations) == 2  # m = r = 2 scalar equations


def test_residual_is_linear_in_delta(example_curve):
    ts = grid(example_curve, 64)
    a = analysis.residual_direct(example_curve, ts, delta=(1.0, 0.0))
    b = analysis.residual_direct(example_curve, ts, delta=(0.0, 1.0))
    combo = analysis.residual_direct(example_curve, ts, delta=(-8.0, 2.0))
    assert np.abs(combo.vector - (-8.0 * a.vector + 2.0 * b.vector)).max() < 1e-10
    scaled = analysis.residual_direct(example_curve, ts, delta=(3.0, 0.0))
    assert np.abs(scaled.vector - 3.0 * a.vector).max() < 1e-10


def test_scaling_preserves_verdict(example_curve):
    ts = grid(example_curve, 64)
    fr, sc = frenet_pair(example_curve, ts)
    for base in [(-8.0, 2.0), (0.0, 1.0), (1.0, 1.0)]:
        verdicts = set()
        for lam in (0.5, 1.0, 3.0):
            delta = (lam * base[0], lam * base[1])
            verdicts.add(analysis.theorem31_check(fr, sc, delta=delta).passed)
        assert len(verdicts) == 1


def stock_specs():
    rng = np.random.default_rng(20260823)
    items = [
        (curves.CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"]), None),
        (families.circle(1.3, phase1=0.4), None),
        (families.helix(2.0, phase=1.1), None),
        (families.helix(-1.7), None),
        (families.orthogonal_helix(0.9, 1.4), None),
        (families.r4_curve(1), None),
        (families.r4_curve(2, reverse=True), None),
        (families.geodesic((1.0, 0.5, -0.25, 0.0)), np.linspace(0.0, 1.5, 48)),
        (families.rational_turn(), np.linspace(-1.2, 1.2, 97)),
        (families.four_exponential(np.pi / 4, 2.0, 3.0), np.linspace(0.25, 1.0, 97)),
    ]
    for _ in range(3):
        spec, _info = families.random_legendre_curve(rng)
        items.append((spec, None))
    return items


def test_residual_routes_agree_across_families():
    delta = (0.7, 1.3)
    for spec, ts in stock_specs():
        if ts is None:
            ts = grid(spec, 96)
        direct = analysis.residual_direct(spec, ts, delta=delta)
        fr, sc = frenet_pair(spec, ts)
        closed = analysis.residual_closed_form(fr, sc, delta=delta)
        gap = np.abs(direct.vector - closed.vector).max()
        assert gap < 1e-6, f"route gap {gap:.3e} on {spec.coord_texts}"


@pytest.mark.parametrize("spec", [
    curves.CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"]),
    families.helix(2.0, phase=1.1),
    families.orthogonal_helix(0.9, 1.4),
    families.r4_curve(0),
], ids=["example", "helix", "orthogonal-helix", "r4"])
def test_direct_report_reuses_caller_frenet_data(spec):
    # the CLI hands the direct route the Frenet data it built with its own
    # tolerances; the residual must be bit-identical to the standalone call,
    # and must not read the curvatures the closed-form route is built from
    ts = grid(spec, 96)
    c, delta = 0.5, (0.7, 1.3)
    fr, sc = frenet_pair(spec, ts, tol=1e-6, unit_tol=1e-5)
    standalone = analysis.residual_direct(spec, ts, c, delta)
    shared = analysis._direct_report(fr, c, delta)
    assert np.array_equal(shared.vector, standalone.vector)
    assert np.array_equal(shared.equation_residuals,
                          standalone.equation_residuals)
    blind = dataclasses.replace(
        fr, curvatures=np.full_like(fr.curvatures, np.nan), curvature_jets=[]
    )
    assert np.array_equal(
        analysis._direct_report(blind, c, delta).vector, standalone.vector
    )


def test_residual_xi_coefficient_vanishes():
    # eta(E2) = 0 on every actual Legendre curve, so the explicit xi term
    # of the expansion must be zero; note the raw <residual, xi> projection
    # may still be nonzero when some frame vector contains xi itself.
    for spec, ts in stock_specs()[:10]:
        if ts is None:
            ts = grid(spec, 96)
        fr, sc = frenet_pair(spec, ts)
        closed = analysis.residual_closed_form(fr, sc, delta=(0.7, 1.3))
        assert np.abs(closed.structural["xi"]).max() < 1e-9


# ---------------------------------------------------------------------------
# theorem check


def test_theorem_example(example_curve, example_grid):
    fr, sc = frenet_pair(example_curve, example_grid)
    chk = analysis.theorem31_check(fr, sc, delta=(-8.0, 2.0))
    assert chk.passed
    assert len(chk.equations) == 2
    assert chk.condition1_mode == "orthogonal"
    bad = analysis.theorem31_check(fr, sc, delta=(0.0, 1.0))
    assert not bad.passed


def test_theorem_case3_helix():
    spec = families.helix(3.0)
    fr, sc = frenet_pair(spec, grid(spec))
    chk = analysis.theorem31_check(fr, sc, delta=(-13.0, 1.0))
    assert chk.passed
    # |f| = 1 here: phi T is E2 itself, so condition (1) holds via the span
    assert chk.condition1_mode == "span"
    assert chk.condition1_leakage < 1e-7


def test_theorem_c1_mode(example_curve, example_grid):
    fr, sc = frenet_pair(example_curve, example_grid)
    chk = analysis.theorem31_check(fr, sc, c=1.0, delta=(-3.0, 1.0))
    assert chk.passed
    assert chk.condition1_mode == "c=1"


def test_theorem_violated_on_nonconstant_curve():
    spec = families.four_exponential(np.pi / 4, 2.0, 3.0)
    ts = np.linspace(0.25, 1.0, 97)
    fr, sc = frenet_pair(spec, ts)
    chk = analysis.theorem31_check(fr, sc, delta=(-5.0, 1.0))
    assert chk.condition1_mode == "violated"
    assert chk.condition1_leakage > 1.0
    assert not chk.passed


def test_theorem_detects_curvature_perturbation():
    # at c = 1 a (k1, k2) helix is critical for delta = (rho, 1) with
    # rho = 1 - k1^2 - k2^2; bumping k1^2 by eps leaves a residual of
    # exactly eps * k1 * delta2 in the second equation
    k1, k2, eps = 1.2, 0.5, 0.1
    rho = 1.0 - k1**2 - k2**2
    e = np.eye(5)
    base = synthetic_frenet([k1, k2], [e[0], e[1], e[3]])
    sc = curves.frame_scalars(base)
    good = analysis.theorem31_check(base, sc, c=1.0, delta=(rho, 1.0))
    assert good.passed

    k1p = np.sqrt(k1**2 + eps)
    bumped = synthetic_frenet([k1p, k2], [e[0], e[1], e[3]])
    scp = curves.frame_scalars(bumped)
    bad = analysis.theorem31_check(bumped, scp, c=1.0, delta=(rho, 1.0))
    assert not bad.passed
    res = bad.equations[1].max_residual
    assert 0.9 * eps * k1 < res < 1.1 * eps * k1


# ---------------------------------------------------------------------------
# classification


def test_classify_stock_curves(example_curve, example_grid):
    fr, sc = frenet_pair(example_curve, example_grid)
    cls = analysis.classify(fr, sc)
    assert (cls.klass, cls.case) == ("circle", "II")

    hel = families.helix(3.0)
    fr, sc = frenet_pair(hel, grid(hel))
    cls = analysis.classify(fr, sc)
    assert (cls.klass, cls.case) == ("helix", "III")

    oh = families.orthogonal_helix(1.2, 1.6)
    fr, sc = frenet_pair(oh, grid(oh))
    cls = analysis.classify(fr, sc)
    assert (cls.klass, cls.case) == ("helix", "II")

    geo = families.geodesic((1.0, 0.0, 0.0, 0.2))
    fr, sc = frenet_pair(geo, np.linspace(0.0, 1.0, 48))
    assert analysis.classify(fr, sc).klass == "geodesic"

    rt = families.rational_turn()
    fr, sc = frenet_pair(rt, np.linspace(-1.2, 1.2, 97))
    cls = analysis.classify(fr, sc)
    assert (cls.klass, cls.case) == ("general", "III")


def test_classify_uses_c(example_curve, example_grid):
    fr, sc = frenet_pair(example_curve, example_grid)
    assert analysis.classify(fr, sc, c=1.0).case == "I"


def test_classify_case4_constants():
    a0 = np.pi / 4
    e = np.eye(5)
    fr = synthetic_frenet(
        [1.0, 1.5, 1.0],
        [
            e[0],
            np.cos(a0) * e[2] + np.sin(a0) * e[1],
            e[3],
            np.sin(a0) * e[2] - np.cos(a0) * e[1],
        ],
    )
    sc = curves.frame_scalars(fr)
    cls = analysis.classify(fr, sc)
    assert cls.case == "IV"
    assert abs(cls.alpha0 - a0) < 1e-12
    # w0 = k2^2 + 3 (c-1)/4 f^2 = 2.25 - 3 * 0.5 at c = -3
    assert abs(cls.w0 - 0.75) < 1e-12
    assert cls.w0_variance < 1e-20


def test_classify_flags_nonconstant_f():
    spec = families.four_exponential(np.pi / 4, 2.0, 3.0)
    ts = np.linspace(0.25, 1.0, 97)
    fr, sc = frenet_pair(spec, ts)
    cls = analysis.classify(fr, sc)
    assert cls.klass == "general"
    assert cls.alpha0 is None
    assert cls.diagnostics


def test_classify_notes_g4_off_sin_alpha0():
    # f = 0.6 and g(phi T, E4) = 0.48 are constant, but f^2 + g4^2 != 1:
    # phi T = beta1 leaves span{E2, E4}, so g4 != sin(atan2(g4, f))
    e = np.eye(5)
    fr = synthetic_frenet(
        [1.0, 1.5, 1.0],
        [e[0], 0.6 * e[2] + 0.8 * e[1], e[3],
         0.48 * e[2] - 0.36 * e[1] + 0.8 * e[4]],
    )
    cls = analysis.classify(fr, curves.frame_scalars(fr))
    gap = math.sin(math.atan2(0.48, 0.6)) - 0.48      # 0.1447
    assert (cls.klass, cls.case) == ("general", "IV")
    assert cls.diagnostics == [
        f"g(phi T, E4) deviates from sin(alpha0) by {gap:.2e}"]


# ---------------------------------------------------------------------------
# solving for the coupling pair


def test_solve_example(example_curve, example_grid):
    fr, sc = frenet_pair(example_curve, example_grid)
    sol = analysis.solve_delta(fr, sc)
    assert sol.classification.case == "II"
    assert abs(sol.rho + 4.0) < 1e-9
    assert sol.delta == pytest.approx((-4.0, 1.0))
    assert sol.rho_spread < 1e-9
    assert sol.parallel_defect < 1e-9
    assert sol.feasible
    assert abs(sol.rho - np.mean(sol.rho_pointwise)) < 1e-9


def test_solve_case1():
    spec = families.orthogonal_helix(0.6, 0.5)
    fr, sc = frenet_pair(spec, grid(spec))
    sol = analysis.solve_delta(fr, sc, c=1.0)
    assert sol.classification.case == "I"
    assert abs(sol.rho - (1.0 - 0.6**2 - 0.5**2)) < 1e-9
    assert sol.feasible
    chk = analysis.theorem31_check(fr, sc, c=1.0, delta=sol.delta)
    assert chk.passed


def test_solve_case2_order3():
    spec = families.orthogonal_helix(1.2, 1.6)
    fr, sc = frenet_pair(spec, grid(spec))
    sol = analysis.solve_delta(fr, sc)
    assert (sol.classification.klass, sol.classification.case) == ("helix", "II")
    assert abs(sol.rho + 4.0) < 1e-9
    assert sol.feasible
    assert abs(sol.rho - np.mean(sol.rho_pointwise)) < 1e-9
    assert analysis.theorem31_check(fr, sc, delta=sol.delta).passed


def test_solve_case3_helix():
    spec = families.helix(3.0)
    fr, sc = frenet_pair(spec, grid(spec))
    sol = analysis.solve_delta(fr, sc)
    assert sol.classification.case == "III"
    assert abs(sol.rho + 13.0) < 1e-9
    assert sol.k2_deviation < 1e-9
    assert sol.feasible
    assert analysis.theorem31_check(fr, sc, delta=sol.delta).passed


def test_solve_case3_notes_k2_and_ratio_gap():
    # T = alpha1, E2 = beta1 = phi T, E3 = xi: f = 1 is case III, whose
    # constraint wants k2 = 1.  At k1 = 1.5, k2 = 0.5 and c = -3 the case
    # formula gives rho = c - 1 - k1^2 = -6.25, while the pointwise ratio
    # is (-k1^3 - k1 k2^2 - 3 k1) / k1 = -5.5 (hand values)
    e = np.eye(3)
    fr = synthetic_frenet([1.5, 0.5], [e[0], e[1], e[2]], n=1)
    sol = analysis.solve_delta(fr, curves.frame_scalars(fr))
    assert (sol.classification.klass, sol.classification.case) == (
        "helix", "III")
    assert sol.rho == -6.25
    assert np.allclose(sol.rho_pointwise, -5.5, rtol=0.0, atol=1e-12)
    assert sol.k2_deviation == 0.5
    assert sol.notes == [
        "second curvature deviates from 1 by 5.000e-01, in tension with "
        "this case's constraint",
        "case formula and pointwise ratio disagree by 7.500e-01",
    ]


def test_solve_case4_infeasible():
    spec = families.r4_curve(0)
    fr, sc = frenet_pair(spec, grid(spec))
    sol = analysis.solve_delta(fr, sc)
    assert sol.classification.case == "IV"
    inv = families.two_exp_invariants(*families.R4_PARAMS[0])
    expected = -3.0 * inv.f**2 - inv.k1**2 - inv.k2**2
    assert abs(sol.rho - expected) < 1e-9
    assert not sol.feasible
    assert any("sign constraint" in note for note in sol.notes)
    # the fourth scalar equation genuinely fails: no pair works
    assert sol.parallel_defect > 1.0


def test_solve_geodesic_any_pair():
    spec = families.geodesic((0.3, -1.0, 0.2, 0.5))
    fr, sc = frenet_pair(spec, np.linspace(0.0, 2.0, 64))
    sol = analysis.solve_delta(fr, sc)
    assert sol.any_delta
    assert sol.rho is None
    # the scan's k1 = 0 cell gives the same verdict, in every case
    assert sol.verdict == analysis.GEODESIC_VERDICT
    for case in ("I", "II", "III", "IV"):
        assert _scan_row(case, -3.0, 0.0, 0.0, 0.0)[2] == sol.verdict


@pytest.mark.parametrize("spec, ts, c, verdict", [
    (cli.example_spec(), None, -3.0,
     "critical for delta proportional to (rho, 1)"),
    (families.r4_curve(0), None, -3.0,
     "required ratio violates the case constraints"),
    (families.rational_turn(), np.linspace(-1.2, 1.2, 97), -3.0,
     "no constant weight ratio fits this curve"),
], ids=["fits", "violates", "no-ratio"])
def test_solve_delta_fit_verdicts(spec, ts, c, verdict):
    fr, sc = frenet_pair(spec, grid(spec) if ts is None else ts)
    assert analysis.solve_delta(fr, sc, c).verdict == verdict


def test_solve_generic_nonconstant():
    fx = families.four_exponential(np.pi / 4, 2.0, 3.0)
    fr, sc = frenet_pair(fx, np.linspace(0.25, 1.0, 97))
    sol = analysis.solve_delta(fr, sc)
    assert sol.rho is None
    assert sol.rho_spread > 0.1
    assert not sol.feasible

    rt = families.rational_turn()
    fr, sc = frenet_pair(rt, np.linspace(-1.2, 1.2, 97))
    sol = analysis.solve_delta(fr, sc)
    assert sol.rho is None
    assert not sol.feasible


# ---------------------------------------------------------------------------
# independence of the derived frame


def full_gram_min_eigenvalue(fr):
    """Oracle: smallest eigenvalue of the full Gram matrix of the set.

    One k x k Gram matrix of {T, E2, (E3), phi T, nabla_T phi T, xi} per
    sample, solved by LAPACK.
    """
    n, N = fr.n, fr.ts.size
    Tj = fr.frame_jets[0].truncate(1)
    phiT = model.phi_frame(Tj, n)
    xi = np.zeros((2 * n + 1, N))
    xi[2 * n] = 1.0
    cols = [*fr.frames, phiT.value, curves._nabla_along(n, Tj, phiT).value, xi]
    A = np.stack(cols, axis=2)                       # (dim, N, k)
    return float(np.min(np.linalg.eigvalsh(np.einsum("iNk,iNl->Nkl", A, A))))


def six_entries(S):
    return [S[..., i, j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]


def random_psd(rng, kind):
    if kind == "diagonal":
        return np.diag(rng.uniform(0.0, 2.0, 3))
    if kind == "identity":
        return np.eye(3) * rng.uniform(0.1, 2.0)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    lam = np.sort(rng.uniform(0.0, 2.0, 3))
    if kind == "rank1":
        lam[:2] = 0.0
    elif kind == "rank2":
        lam[0] = 0.0
    elif kind == "double-low":
        lam[1] = lam[0]
    elif kind == "double-high":
        lam[2] = lam[1]
    elif kind == "gram":
        X = rng.normal(size=(3, 3))
        return X @ X.T
    return (Q * lam) @ Q.T


PSD_KINDS = ["gram", "diagonal", "identity", "rank1", "rank2", "double-low",
             "double-high"]


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("kind", PSD_KINDS)
def test_sym3_min_eigenvalue_matches_eigvalsh(kind, scale):
    rng = np.random.default_rng(PSD_KINDS.index(kind))
    S = np.array([random_psd(rng, kind) for _ in range(200)]) * scale
    got = analysis._sym3_min_eigenvalue(*six_entries(S))
    want = np.linalg.eigvalsh(S)[:, 0]
    norm = np.linalg.norm(S, 2, axis=(1, 2))
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, norm))


def test_sym3_min_eigenvalue_edges():
    # p = 0 gives the common diagonal exactly, zero included
    S = np.array([np.eye(3) * 2.5, np.zeros((3, 3)), np.diag([3.0, 1.0, 2.0]),
                  np.diag([0.0, 4.0, 4.0]), np.diag([1.0, 1.0, 7.0])])
    got = analysis._sym3_min_eigenvalue(*six_entries(S))
    assert got[:2].tolist() == [2.5, 0.0]
    assert np.allclose(got[2:], [1.0, 0.0, 1.0], rtol=0.0, atol=1e-15 * 7.0)


def _independence_curves():
    rng = np.random.default_rng(13)
    example = curves.CurveSpec(2, ["sin(2*t)", "-cos(2*t)", "0", "0", "1"])
    out = [pytest.param(example, id="example")]
    for phases in [(0.0, 0.0, 0.0), (0.3, 1.1, 2.0), (1.0, -0.4, 0.7)]:
        out.append(pytest.param(families.orthogonal_helix(1.2, 1.6, phases=phases),
                                id=f"orthogonal-helix{phases}"))
    for i in range(3):
        k1, k2 = rng.uniform(0.5, 2.5, 2)
        phases = tuple(rng.uniform(0.0, 2 * np.pi, 3))
        out.append(pytest.param(families.orthogonal_helix(k1, k2, phases=phases),
                                id=f"orthogonal-helix-{i}"))
        spec, _ = families.random_legendre_curve(rng, r=2)
        out.append(pytest.param(spec, id=f"random-circle-{i}"))
        # random_legendre_curve's circle (r = 2) and helix (r = 3) lifted to
        # n = 3 by a third, silent complex axis
        k1, mu = rng.uniform(0.5, 3.0, 2)
        out.append(pytest.param(families.multi_exponential(
            (np.sqrt(0.5), np.sqrt(0.5), 0.0), (k1, -k1, 0.0), phases=phases),
            id=f"circle-n3-{i}"))
        out.append(pytest.param(families.multi_exponential(
            (1.0, 0.0, 0.0), (mu, 0.0, 0.0), phases=phases), id=f"helix-n3-{i}"))
    return out


@pytest.mark.parametrize("spec", _independence_curves())
def test_independence_matches_full_gram_oracle(spec):
    fr, sc = frenet_pair(spec, grid(spec, 96))
    assert fr.r in (2, 3) and fr.dim >= fr.r + 3
    rep = analysis.independence_check(spec, fr)
    oracle = full_gram_min_eigenvalue(fr)
    # the complement's eigenvalue never falls below the full Gram's
    assert rep.min_gram_eigenvalue >= oracle - 1e-14
    assert rep.independent == (oracle > 1e-8)
    if not rep.independent:
        assert abs(rep.min_gram_eigenvalue) <= 1e-12
    elif np.max(np.abs(sc.f)) < 1e-12:
        # f = 0 throughout: the frames are orthogonal to the other three
        assert abs(rep.min_gram_eigenvalue - oracle) <= 1e-13 * oracle


def test_independence_needs_no_lapack(monkeypatch, example_curve, example_grid):
    fr = curves.frenet_apparatus(example_curve, example_grid)

    def refuse(*args, **kwargs):
        raise AssertionError("independence_check called LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rep = analysis.independence_check(example_curve, fr)
    assert rep.independent


def test_independence_example(example_curve, example_grid):
    fr = curves.frenet_apparatus(example_curve, example_grid)
    rep = analysis.independence_check(example_curve, fr)
    assert rep.independent
    assert rep.set_size == 5
    assert rep.implied_n_bound == 2  # 2n+1 = 5 already holds the order-2 set
    # min eigenvalue of the Gram matrix is 3 - sqrt(5) (hand computation)
    assert abs(rep.min_gram_eigenvalue - (3.0 - np.sqrt(5.0))) < 1e-15


def test_independence_orthogonal_helix():
    spec = families.orthogonal_helix(1.2, 1.6)
    fr = curves.frenet_apparatus(spec, grid(spec))
    rep = analysis.independence_check(spec, fr)
    assert rep.independent
    assert rep.set_size == 6
    assert rep.min_gram_eigenvalue > 0.1


def test_independence_dimension_bound():
    # 6 vectors cannot fit in R^5: the report confirms the bound instead
    spec = families.helix(3.0)
    fr = curves.frenet_apparatus(spec, grid(spec))
    rep = analysis.independence_check(spec, fr)
    assert not rep.independent
    assert rep.implied_n_bound == 3
    assert "dimension" in rep.note


def test_independence_degenerate():
    # helix on the first complex axis of R^7: phi T equals E2, so the set
    # is dependent even though the ambient dimension is large enough
    spec = families.multi_exponential((1.0, 0.0, 0.0), (3.0, 0.0, 0.0))
    fr = curves.frenet_apparatus(spec, grid(spec))
    rep = analysis.independence_check(spec, fr)
    assert not rep.independent
    assert abs(rep.min_gram_eigenvalue) <= 1e-12


def test_independence_requires_low_order():
    spec = families.r4_curve(0)
    fr = curves.frenet_apparatus(spec, grid(spec))
    with pytest.raises(analysis.AnalysisError, match="osculating order 2 or 3"):
        analysis.independence_check(spec, fr)


# ---------------------------------------------------------------------------
# case IV at a constant slant angle


def frozen_case4_frame():
    """Constant case-IV frame with alpha0 = -pi/3, k1 = 1, k2 = 1.5.

    k3 makes k2 k3 = -3 (c-1)/8 * sin(2 alpha0) = 1.9485571585149869 at
    c = 7 (hand value), where 3 (c-1) sin(2 alpha0) < 0 holds.
    """
    a0 = -np.pi / 3
    k2 = 1.5
    e = np.eye(5)
    return synthetic_frenet(
        [1.0, k2, 1.9485571585149869 / k2],
        [
            e[0],
            np.cos(a0) * e[2] + np.sin(a0) * e[1],
            e[3],
            np.sin(a0) * e[2] - np.cos(a0) * e[1],
        ],
    )


def test_case4_frozen_product():
    a0 = -np.pi / 3
    k2 = 1.5
    fr = frozen_case4_frame()
    sc = curves.frame_scalars(fr)
    sol = analysis.solve_delta(fr, sc, c=7.0)
    assert sol.classification.case == "IV"
    assert sol.feasible
    expected_rho = 10.0 / 4.0 + (18.0 / 4.0) * np.cos(a0) ** 2 - 1.0 - k2**2
    assert abs(sol.rho - expected_rho) < 1e-9
    chk = analysis.theorem31_check(fr, sc, c=7.0, delta=sol.delta)
    assert chk.passed
    assert chk.condition1_mode == "span"


def test_case4_constants_agree_with_classify():
    fr = frozen_case4_frame()
    sc = curves.frame_scalars(fr)
    cls = analysis.classify(fr, sc, c=7.0)
    assert cls.case == "IV"
    assert abs(cls.alpha0 + np.pi / 3) < 1e-12
    # w0 = k2^2 + 3 (c-1)/4 f^2 with f = cos(alpha0) = 1/2 (hand value)
    assert abs(cls.w0 - 3.375) < 1e-12
    assert cls.w0_variance < 1e-20


def _scan_row(case, c, k1, k2, alpha0):
    """(rho, feasible, verdict) of a one-cell scan at exactly these floats.

    rho is None on a geodesic row, whose rho cell is empty.
    """
    buf = io.StringIO()
    argv = ["scan", "--case", case]
    for flag, value in (("c", c), ("k1", k1), ("k2", k2), ("alpha0", alpha0)):
        argv.append(f"--{flag}-range={value!r}:{value!r}:1")
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    rows = buf.getvalue().splitlines()
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert len(cells) == 9 and cells[7] in ("true", "false")
    return float(cells[5]) if cells[5] else None, cells[7] == "true", cells[8]


@pytest.mark.parametrize("label, c, case", [
    ("orthogonal helix", 1.0, "I"),
    ("example", -3.0, "II"),
    ("example", 2.5, "II"),
    ("helix", -3.0, "III"),
    ("frozen case IV", 7.0, "IV"),
])
def test_solve_delta_rho_matches_scan(label, c, case):
    if label == "frozen case IV":
        fr = frozen_case4_frame()
        sc = curves.frame_scalars(fr)
    else:
        spec = {
            "orthogonal helix": families.orthogonal_helix(0.6, 0.5),
            "example": cli.example_spec(),
            "helix": families.helix(3.0),
        }[label]
        fr, sc = frenet_pair(spec, grid(spec))
    sol = analysis.solve_delta(fr, sc, c)
    cls = sol.classification
    assert cls.case == case and sol.rho is not None
    k1 = float(np.mean(fr.curvatures[0]))
    k2 = float(np.mean(fr.curvatures[1])) if fr.r >= 3 else 0.0
    alpha0 = cls.alpha0 if case == "IV" else 0.0
    assert sol.rho == _scan_row(case, float(c), k1, k2, alpha0)[0]


@st.composite
def two_exp_params(draw):
    """(theta, mu, nu) for two_exponential, often a helix or a circle.

    One component (theta = 0 or pi/2) or one frequency (nu = mu) gives a
    helix, theta = pi/4 with nu = -mu a circle of first curvature |mu|.
    """
    theta = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2])
                 | st.floats(0.0, math.pi / 2))
    mu = draw(st.sampled_from([1.0, -1.0]) | st.floats(-3.0, 3.0))
    nu = draw(st.sampled_from([mu, -mu]) | st.floats(-3.0, 3.0))
    return theta, mu, nu


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(params=two_exp_params(),
       c=st.sampled_from([-5.0, -3.0, 0.5, 1.0, 2.5, 7.0]))
# families.circle(1.0): case I at c = 1 with rho = 0
@example(params=(np.pi / 4, 1.0, -1.0), c=1.0)
def test_solve_delta_agrees_with_scan(params, c):
    inv = families.two_exp_invariants(*params)
    # circles and helices, with every curvature clear of the rank tolerance
    assume(inv.r in (2, 3) and min((inv.k1, inv.k2)[:inv.r - 1]) > 1e-3)
    spec = families.two_exponential(*params)
    fr, sc = frenet_pair(spec, grid(spec, 64))
    assert fr.r == inv.r
    sol = analysis.solve_delta(fr, sc, c)
    # only where a constant pair can kill the residual does feasibility
    # reduce to the case table
    assume(sol.rho_spread <= 1e-6 and sol.parallel_defect <= 1e-6)
    cls = sol.classification
    assert sol.rho is not None
    k1 = float(np.mean(fr.curvatures[0]))
    k2 = float(np.mean(fr.curvatures[1])) if fr.r >= 3 else 0.0
    alpha0 = cls.alpha0 if cls.case == "IV" else 0.0
    rho, feasible, verdict = _scan_row(cls.case, c, k1, k2, alpha0)
    assert abs(rho - sol.rho) <= 4 * math.ulp(sol.rho)
    assert feasible is sol.feasible
    # the verdicts the table names itself read the same in both
    named = (analysis.EXCLUDED_VERDICT, analysis.GEODESIC_VERDICT)
    if verdict in named or sol.verdict in named:
        assert sol.verdict == verdict


# each squares differently through x*x and through pow
POW_SENSITIVE = (1.885376393636725, 1.452613002357677, 2.39007361511873)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
def test_case_formula_arrays_match_scalar_calls_bitwise(case):
    assert all(k * k != k ** 2 for k in POW_SENSITIVE)
    rng = np.random.default_rng(11)
    ks = np.concatenate([POW_SENSITIVE, [0.0, -0.0, 1.0],
                         rng.uniform(0.0, 3.0, 7)])
    cs = np.array([-5.0, -3.0, -0.0, 1.0, 2.5, *rng.uniform(-6.0, 6.0, 3)])
    alphas = np.array([-0.0, np.pi / 4, -1.2, *rng.uniform(-3.0, 3.0, 3)])
    grid = np.ix_(cs, ks, ks[::-1], alphas)
    rho, constraint, feasible, verdict = analysis.case_formula(case, *grid)
    shape = (cs.size, ks.size, ks.size, alphas.size)
    rho = np.broadcast_to(rho, shape)
    feasible = np.broadcast_to(feasible, shape)
    verdict = np.broadcast_to(verdict, shape)
    if constraint is not None:
        constraint = np.broadcast_to(constraint, shape)
    for cell in np.ndindex(shape):
        args = [float(axis.ravel()[i]) for axis, i in zip(grid, cell)]
        s_rho, s_constraint, s_feasible, s_verdict = analysis.case_formula(
            case, *args)
        assert type(s_rho) is float and type(s_feasible) is bool
        assert type(s_verdict) is int and 0 <= s_verdict < len(analysis.VERDICTS)
        assert _bits(rho[cell]) == _bits(s_rho), (cell, args)
        assert bool(feasible[cell]) is s_feasible, (cell, args)
        assert verdict[cell] == s_verdict, (cell, args)
        if constraint is None:
            assert s_constraint is None
        else:
            assert _bits(constraint[cell]) == _bits(s_constraint), (cell, args)


def test_case_formula_squares_round_as_python_pow():
    k = np.array(POW_SENSITIVE)
    rho = analysis.case_formula("I", 1.0, k, 0.0)[0]
    assert np.array_equal(_bits(rho), _bits([1.0 - x ** 2 for x in POW_SENSITIVE]))
    assert not np.array_equal(_bits(rho), _bits(1.0 - k * k))


@pytest.mark.parametrize("case, c, k1, k2, alpha0, feasible, verdict", [
    ("I", 1.0, 0.6, 0.5, 0.0, True, ""),
    ("I", 1.0, 1.0, 0.0, 0.0, False, analysis.EXCLUDED_VERDICT),
    ("I", 1.0, 0.0, 1.0, 0.0, True, analysis.GEODESIC_VERDICT),
    ("II", -3.0, 2.0, 0.0, 0.0, True, analysis.THRESHOLD_VERDICT),
    ("II", 2.5, 2.0, 0.0, 0.0, True, ""),
    ("III", 0.5, 2.0, 1.0, 0.0, True, analysis.THRESHOLD_VERDICT),
    ("III", 1.0, 2.0, 1.0, 0.0, True, ""),
    ("IV", -5.0, 1.0, 0.5, -1.0, False, analysis.THRESHOLD_VERDICT),
    ("IV", 7.0, 1.0, 0.5, -1.0, True, ""),
    ("IV", 7.0, 0.0, 0.5, 1.0, True, analysis.GEODESIC_VERDICT),
])
def test_case_formula_verdicts(case, c, k1, k2, alpha0, feasible, verdict):
    # k1 = 0 is a geodesic in every case, whatever the case's own rule says
    _, _, got_feasible, code = analysis.case_formula(case, c, k1, k2, alpha0)
    assert got_feasible is feasible
    assert analysis.VERDICTS[code] == verdict


def test_case_formula_rejects_unknown_case():
    with pytest.raises(analysis.AnalysisError, match="case must be"):
        analysis.case_formula("V", -3.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# structure identities and the sign decision


def test_rotated_tangent_transport_identity(example_curve, example_grid):
    # nabla_T (phi T) = k1 phi E2 + xi; on the example curve that is
    # 4 sin(2t) d_y1 - 4 cos(2t) d_y2 + xi in coordinates
    ts = example_grid
    phiT = np.zeros((5, len(ts)))
    phiT[2] = -2.0 * np.cos(2 * ts)
    phiT[3] = -2.0 * np.sin(2 * ts)
    out = ref.covariant_derivative_along(example_curve, phiT, ts)
    expected = np.zeros_like(out)
    expected[2] = 4.0 * np.sin(2 * ts)
    expected[3] = -4.0 * np.cos(2 * ts)
    expected[4] = 2.0
    assert np.abs(out - expected).max() < 1e-6


def test_eq2_sign_matches_direct_route(example_curve):
    # the two published sign readings of the (c+3)/4 term differ by
    # 2 (c+3)/4 k1 delta2; only "+", the one the closed form implements,
    # reproduces the curvature-tensor route
    c, d2 = 1.0, 1.0
    ts = grid(example_curve, 64)
    fr, sc = frenet_pair(example_curve, ts)
    direct = analysis.residual_direct(example_curve, ts, c=c, delta=(0.0, d2))
    plus = analysis.residual_closed_form(fr, sc, c=c, delta=(0.0, d2))
    e2_direct = direct.equation_residuals[1]
    e2_plus = plus.equation_residuals[1]
    e2_minus = e2_plus - 2.0 * (c + 3.0) / 4.0 * fr.curvatures[0] * d2
    assert np.abs(e2_plus - e2_direct).max() < 1e-9
    assert np.abs(e2_minus - e2_direct).min() > 1.0
    assert np.abs(np.abs(e2_plus - e2_minus) - 4.0).max() < 1e-9
