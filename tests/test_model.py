"""Structure tensors, the connection table, and the curvature oracle.

The Riemann oracle here rebuilds R(X,Y)Z from nothing but the coordinate
metric: 4th-order finite differences give Christoffel symbols and their
derivatives, assembled with the convention

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z.

The library's closed-form curvature at c = -3 is required to match this
oracle directly (no sign flip); that fixes the convention ambiguity.  The
per-point structure tensors the library's frame algebra is held against
live in model_reference.
"""

import numpy as np
import pytest

import model_reference as ref
from contactcurves import jets, model


def random_point(rng, n):
    return ref.ModelPoint(n, rng.uniform(-2.0, 2.0, size=2 * n + 1))


def frame_curvature(c, p, X, Y, Z):
    """R(X,Y)Z in coordinate components, through the frame-coefficient route."""
    Xf, Yf, Zf = (ref.to_frame_coeffs(p, v) for v in (X, Y, Z))
    return ref.from_frame_coeffs(
        p, model.space_form_curvature_frame(c, Xf, Yf, Zf, p.n))


def metric_matrix(n, coords):
    """Coordinate components g_ab at a point, assembled from the definition."""
    dim = 2 * n + 1
    y = coords[n : 2 * n]
    eta_row = np.zeros(dim)
    eta_row[:n] = -0.5 * y
    eta_row[-1] = 0.5
    G = np.outer(eta_row, eta_row)
    G[: 2 * n, : 2 * n] += 0.25 * np.eye(2 * n)
    return G


def _fd4(f, coords, axis, h):
    """4th-order central difference of an array-valued function of coords."""
    e = np.zeros_like(coords)
    e[axis] = 1.0
    return (
        -f(coords + 2 * h * e)
        + 8 * f(coords + h * e)
        - 8 * f(coords - h * e)
        + f(coords - 2 * h * e)
    ) / (12 * h)


def christoffel(n, coords, h=1e-2):
    dim = 2 * n + 1
    G = metric_matrix(n, coords)
    Ginv = np.linalg.inv(G)
    dG = np.stack(
        [_fd4(lambda c: metric_matrix(n, c), coords, a, h) for a in range(dim)]
    )  # dG[a, i, j] = d_a g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    M = dG + np.swapaxes(dG, 0, 1) - np.moveaxis(dG, 0, 2)
    return 0.5 * np.einsum("kl,ijl->kij", Ginv, M)


def riemann_operator(n, coords, h=1e-2):
    """R4[l,i,j,k] so that (R(X,Y)Z)^l = R4[l,i,j,k] X^i Y^j Z^k."""
    dim = 2 * n + 1
    Gamma = christoffel(n, coords, h)
    dGamma = np.stack(
        [_fd4(lambda c: christoffel(n, c, h), coords, a, h) for a in range(dim)]
    )  # dGamma[a, l, i, j] = d_a Gamma^l_ij
    term1 = np.einsum("iljk->lijk", dGamma)
    term2 = np.einsum("jlik->lijk", dGamma)
    term3 = np.einsum("lim,mjk->lijk", Gamma, Gamma)
    term4 = np.einsum("ljm,mik->lijk", Gamma, Gamma)
    return term1 - term2 + term3 - term4


def test_eta_examples():
    p = ref.ModelPoint(2, [0.0, 0.0, 1.0, 0.0, 0.0])  # y1 = 1
    assert ref.eta(p, ref.xi(2)) == 1.0
    X1 = ref.frame_field(p, 1)
    assert ref.eta(p, X1) == 0.0
    u = np.array([2.0, 0.0, 0.0, 0.0, 0.0])  # 2 d/dx1
    assert ref.eta(p, u) == -1.0


def test_eta_is_metric_against_xi():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = random_point(rng, n)
        u = rng.normal(size=2 * n + 1)
        assert abs(ref.eta(p, u) - ref.metric(p, u, ref.xi(n))) < 1e-12


def test_frame_orthonormal_and_phi_relations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = random_point(rng, n)
        F = ref.frame_matrix(p)
        gram = np.array(
            [
                [ref.metric(p, F[:, i], F[:, j]) for j in range(2 * n + 1)]
                for i in range(2 * n + 1)
            ]
        )
        assert np.max(np.abs(gram - np.eye(2 * n + 1))) < 1e-12
        # X_{n+i} = phi X_i and phi(xi) = 0
        for i in range(1, n + 1):
            assert np.allclose(
                ref.phi(p, ref.frame_field(p, i)), ref.frame_field(p, n + i)
            )
        assert np.allclose(ref.phi(p, ref.xi(n)), 0.0)


def test_phi_square_and_metric_identity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = random_point(rng, n)
        u = rng.normal(size=2 * n + 1)
        v = rng.normal(size=2 * n + 1)
        lhs = ref.phi(p, ref.phi(p, u))
        rhs = -u + ref.eta(p, u) * ref.xi(n)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        gphi = ref.metric(p, ref.phi(p, u), ref.phi(p, v))
        assert abs(gphi - (ref.metric(p, u, v) - ref.eta(p, u) * ref.eta(p, v))) < 1e-12


def test_frame_coefficient_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = random_point(rng, n)
        u = rng.normal(size=2 * n + 1)
        coeffs = ref.to_frame_coeffs(p, u)
        assert np.allclose(ref.from_frame_coeffs(p, coeffs), u, atol=1e-12)
        # coefficients really are the metric pairings with the frame
        F = ref.frame_matrix(p)
        pairings = np.array([ref.metric(p, u, F[:, i]) for i in range(2 * n + 1)])
        assert np.allclose(coeffs, pairings, atol=1e-12)


def test_connection_table_entries():
    n = 2
    assert np.allclose(
        ref.connection_frame_coeffs(n, 1, 1 + n), [0, 0, 0, 0, 1.0]
    )  # delta_11 xi
    assert np.allclose(ref.connection_frame_coeffs(n, 1, 2), 0.0)
    # nabla_{X_{1+n}} xi = X_1
    got = ref.connection_frame_coeffs(n, 1 + n, 2 * n + 1)
    expect = np.zeros(2 * n + 1)
    expect[0] = 1.0
    assert np.allclose(got, expect)
    # nabla_{X_i} xi = -X_{n+i} = -phi X_i, checked as vectors at a random point
    rng = np.random.default_rng(3)
    p = random_point(rng, n)
    for i in range(1, 2 * n + 1):
        table = ref.connection_frame_coeffs(n, i, 2 * n + 1)
        expected = ref.to_frame_coeffs(p, -ref.phi(p, ref.frame_field(p, i)))
        assert np.allclose(table, expected, atol=1e-12)


def test_gamma_frame_matches_table_contraction():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        dim = 2 * n + 1
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        brute = np.zeros(dim)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                brute += a[i - 1] * b[j - 1] * ref.connection_frame_coeffs(n, i, j)
        assert np.allclose(model.gamma_frame(n, a, b), brute, atol=1e-12)


def _six_product_gamma_frame(n, t_coeffs, v_coeffs):
    """gamma_frame as one product per block pair: the reference for the fused body."""
    a, b, e = t_coeffs[:n], t_coeffs[n : 2 * n], t_coeffs[2 * n]
    al, be, w = v_coeffs[:n], v_coeffs[n : 2 * n], v_coeffs[2 * n]
    return model._join(b * w + e * be, -(a * w + e * al), (a * be - b * al).sum(0))


def _with_signed_zeros(rng, shape):
    """Normal draws with about a quarter of the entries set to +0.0 or -0.0."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.125] = 0.0
    x[rng.random(shape) < 0.125] = -0.0
    return x


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_frame_equals_six_products_bitwise(n):
    rng = np.random.default_rng(53 + n)
    dim = 2 * n + 1
    for shape in ((dim,), (dim, 9)):
        t, v = _with_signed_zeros(rng, shape), _with_signed_zeros(rng, shape)
        _assert_bitwise(model.gamma_frame(n, t, v),
                        _six_product_gamma_frame(n, t, v))
    for order in range(8):
        for v_order in (order, order + 1):
            t = jets.Jet(_with_signed_zeros(rng, (order + 1, dim, 9)))
            v = jets.Jet(_with_signed_zeros(rng, (v_order + 1, dim, 9)))
            got = model.gamma_frame(n, t, v)
            want = _six_product_gamma_frame(n, t, v)
            assert got.order == want.order == order
            _assert_bitwise(got.coeffs, want.coeffs)


def test_vectorized_frame_change_matches_pointwise():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        pts = rng.uniform(-2.0, 2.0, size=(2 * n + 1, 6))
        u = rng.normal(size=(2 * n + 1, 6))
        y = pts[n : 2 * n]
        coeffs = model.to_frame(u, y, n)
        back = model.from_frame(coeffs, y, n)
        for k in range(6):
            p = ref.ModelPoint(n, pts[:, k])
            assert np.allclose(coeffs[:, k], ref.to_frame_coeffs(p, u[:, k]),
                               rtol=0, atol=1e-14)
            assert np.allclose(back[:, k], ref.from_frame_coeffs(p, coeffs[:, k]),
                               rtol=0, atol=1e-13)


def test_frame_algebra_jets_match_arrays():
    # one body serves both types: a jet's value is the array result, exactly
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        dim = 2 * n + 1
        u = jets.Jet(rng.normal(size=(5, dim, 7)))
        v = jets.Jet(rng.normal(size=(4, dim, 7)))
        y = jets.Jet(rng.normal(size=(3, n, 7)))
        cases = {
            "phi_frame": (lambda a: model.phi_frame(a, n), (u,), 4),
            "eta_frame": (model.eta_frame, (u,), 4),
            "metric_frame": (model.metric_frame, (u, v), 3),
            "gamma_frame": (lambda a, b: model.gamma_frame(n, a, b), (u, v), 3),
            "to_frame": (lambda a, b: model.to_frame(a, b, n), (u, y), 2),
            "from_frame": (lambda a, b: model.from_frame(a, b, n), (v, y), 2),
            "space_form_curvature_frame": (
                lambda a, b: model.space_form_curvature_frame(2.5, a, b, a, n),
                (u, v), 3),
        }
        for name, (f, args, order) in cases.items():
            got = f(*args)
            want = f(*(a.value for a in args))
            assert isinstance(got, jets.Jet), name
            assert got.order == order, name
            assert got.shape == want.shape, name
            assert np.array_equal(got.value, want), name


def test_metric_compatibility_of_table():
    # d g(F_j, F_k) = 0 along frame directions, so the table must satisfy
    # g(nabla_i F_j, F_k) + g(F_j, nabla_i F_k) = 0; pairings in frame
    # coefficients are plain dot products.
    for n in (1, 2):
        dim = 2 * n + 1
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                for k in range(1, dim + 1):
                    ej = np.zeros(dim)
                    ej[j - 1] = 1.0
                    ek = np.zeros(dim)
                    ek[k - 1] = 1.0
                    s = ref.connection_frame_coeffs(n, i, j) @ ek
                    s += ref.connection_frame_coeffs(n, i, k) @ ej
                    assert abs(s) < 1e-15


def test_curvature_constant_curvature_limit():
    # c=1: only the (c+3)/4 block survives, R(X,Y)Z = g(Y,Z) X - g(X,Z) Y
    n = 2
    e = np.eye(2 * n + 1)
    assert np.array_equal(model.space_form_curvature_frame(1.0, e[0], e[1], e[1], n),
                          e[0])
    rng = np.random.default_rng(19)
    for _ in range(20):
        X, Y, Z = rng.normal(size=(3, 2 * n + 1))
        sphere = model.metric_frame(Y, Z) * X - model.metric_frame(X, Z) * Y
        got = model.space_form_curvature_frame(1.0, X, Y, Z, n)
        assert np.max(np.abs(got - sphere)) < 1e-12


def test_curvature_against_fd_riemann_oracle():
    # binding sign-convention check at 20 random points, relative error < 1e-6
    rng = np.random.default_rng(42)
    n = 2
    for _ in range(20):
        p = random_point(rng, n)
        R4 = riemann_operator(n, p.coords)
        X, Y, Z = rng.normal(size=(3, 2 * n + 1))
        oracle = np.einsum("lijk,i,j,k->l", R4, X, Y, Z)
        closed = frame_curvature(-3.0, p, X, Y, Z)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(closed - oracle)) < 1e-6 * scale


def test_curvature_vanishing_fixture():
    # c=-3 with T, E2 horizontal and g(phi T, E2) = 0: every term drops
    p = ref.ModelPoint(2, np.zeros(5))
    T = ref.frame_field(p, 3)  # X_3 = 2 d/dx1 at y=0
    E2 = ref.frame_field(p, 4)
    out = frame_curvature(-3.0, p, T, E2, T)
    assert np.allclose(out, 0.0, atol=1e-14)
