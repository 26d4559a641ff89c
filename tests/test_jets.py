"""Jet arithmetic against analytic derivatives and finite differences."""

import numpy as np
import pytest

from contactcurves import jets


# Central stencils on function values only, independent of the jet recurrences.
# 5-point stencils are 4th-order accurate for orders 1-2; the 7-point ones are
# 4th-order accurate for orders 3-4 and need a larger h to stay above rounding.

def fd1(f, t, h):
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def fd2(f, t, h):
    return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)) / (
        12 * h**2
    )


def fd3(f, t, h):
    return (
        f(t - 3 * h)
        - 8 * f(t - 2 * h)
        + 13 * f(t - h)
        - 13 * f(t + h)
        + 8 * f(t + 2 * h)
        - f(t + 3 * h)
    ) / (8 * h**3)


def fd4(f, t, h):
    return (
        -f(t - 3 * h)
        + 12 * f(t - 2 * h)
        - 39 * f(t - h)
        + 56 * f(t)
        - 39 * f(t + h)
        + 12 * f(t + 2 * h)
        - f(t + 3 * h)
    ) / (6 * h**4)


def test_variable_and_constant():
    t = jets.variable(1.5, 4)
    assert t.value == 1.5
    assert t.deriv(1) == 1.0
    assert t.deriv(2) == 0.0
    c = jets.constant(3.0, 4)
    assert c.value == 3.0
    assert all(c.deriv(k) == 0.0 for k in range(1, 5))


def test_monomial_derivatives():
    # t^4 at t=1: value 1 and derivatives 4, 12, 24, 24
    t = jets.variable(1.0, 4)
    p = t * t * t * t
    got = [p.value] + [p.deriv(k) for k in range(1, 5)]
    assert np.allclose(got, [1.0, 4.0, 12.0, 24.0, 24.0], atol=1e-14)
    # same through integer powers, including a negative exponent
    q = t**4
    assert np.allclose(q.coeffs, p.coeffs, atol=1e-14)
    r = (t + 1.0) ** -2
    tt = 2.0
    assert np.isclose(r.value, tt**-2)
    assert np.isclose(r.deriv(1), -2 * tt**-3)
    assert np.isclose(r.deriv(2), 6 * tt**-4)


def test_sin_cos_exp_closed_form():
    t0 = 0.7
    t = jets.variable(t0, 4)
    s = jets.sin(2.0 * t)
    # d^k sin(2t) cycles through 2^k {cos, -sin, -cos, sin}
    expect = [
        np.sin(2 * t0),
        2 * np.cos(2 * t0),
        -4 * np.sin(2 * t0),
        -8 * np.cos(2 * t0),
        16 * np.sin(2 * t0),
    ]
    got = [s.value] + [s.deriv(k) for k in range(1, 5)]
    assert np.allclose(got, expect, rtol=1e-14, atol=1e-14)

    e = jets.exp(t * 0.5)
    for k in range(5):
        assert np.isclose(e.deriv(k) if k else e.value, 0.5**k * np.exp(0.5 * t0))


def test_sqrt_and_division_recurrences():
    t0 = 1.3
    t = jets.variable(t0, 4)
    s = jets.sqrt(1.0 + t * t)

    def f(x):
        return np.sqrt(1.0 + x * x)

    assert np.isclose(s.value, f(t0), rtol=1e-14)
    assert np.isclose(s.deriv(1), fd1(f, t0, 1e-3), rtol=1e-10)
    assert np.isclose(s.deriv(2), fd2(f, t0, 1e-3), rtol=1e-8)

    q = jets.sin(t) / jets.cos(t)

    def g(x):
        return np.tan(x)

    assert np.isclose(q.deriv(1), fd1(g, t0, 1e-3), rtol=1e-10)
    # third derivative probed away from the pole at pi/2, where the stencil's
    # own truncation error would swamp the comparison
    q2 = jets.sin(jets.variable(0.6, 4)) / jets.cos(jets.variable(0.6, 4))
    assert np.isclose(q2.deriv(3), fd3(g, 0.6, 2e-2), rtol=1e-5)


def test_composite_against_stencils():
    # a deliberately ugly composite exercised at several base points
    def f(x):
        return np.exp(np.sin(x) * x) / (2.0 + np.cos(x)) + x**3 / (1.0 + x**2)

    for t0 in [-1.2, 0.33, 2.0]:
        t = jets.variable(t0, 4)
        j = jets.exp(jets.sin(t) * t) / (2.0 + jets.cos(t)) + t**3 / (1.0 + t**2)
        assert np.isclose(j.value, f(t0), rtol=1e-14)
        assert np.isclose(j.deriv(1), fd1(f, t0, 1e-3), rtol=1e-9)
        assert np.isclose(j.deriv(2), fd2(f, t0, 1e-3), rtol=1e-7)
        assert np.isclose(j.deriv(3), fd3(f, t0, 2e-2), rtol=1e-5)
        assert np.isclose(j.deriv(4), fd4(f, t0, 2e-2), rtol=1e-4)


def test_vectorized_value_axes():
    ts = np.linspace(0.0, 2 * np.pi, 17)
    t = jets.variable(ts, 4)
    s = jets.sin(t)
    assert s.shape == ts.shape
    assert np.allclose(s.value, np.sin(ts), atol=1e-15)
    assert np.allclose(s.deriv(1), np.cos(ts), atol=1e-15)
    assert np.allclose(s.deriv(3), -np.cos(ts), atol=1e-13)

    v = jets.stack([s, jets.cos(t)], axis=0)
    assert v.shape == (2,) + ts.shape
    norm2 = (v * v).sum(0)
    assert np.allclose(norm2.value, 1.0, atol=1e-14)
    # d/dt of sin^2+cos^2 vanishes identically
    assert np.allclose(norm2.deriv(1), 0.0, atol=1e-13)
    assert np.allclose(v[0].coeffs, s.coeffs)


def test_derivative_shift():
    t = jets.variable(0.4, 4)
    j = jets.exp(t) * jets.sin(3.0 * t)
    dj = j.derivative()
    assert dj.order == 3
    for k in range(4):
        assert np.isclose(dj.deriv(k), j.deriv(k + 1), rtol=1e-13)


def test_domain_errors():
    t = jets.variable(0.0, 4)
    with pytest.raises(jets.JetDomainError):
        1.0 / jets.sin(t)
    with pytest.raises(jets.JetDomainError):
        jets.sqrt(t)  # sqrt at 0 not differentiable
    with pytest.raises(jets.JetDomainError):
        t**0.5
    # vectorized: one bad sample poisons the batch
    ts = np.array([0.5, 1.0, 1.5])
    tv = jets.variable(ts, 2)
    with pytest.raises(jets.JetDomainError):
        1.0 / (tv - 1.0)


def test_truncation_on_mixed_orders():
    a = jets.variable(0.3, 4)
    b = jets.variable(0.3, 2)
    c = a * b
    assert c.order == 2
    assert np.isclose(c.deriv(2), 2.0)


# ---------------------------------------------------------------------------
# the per-order contractions against the term-by-term loops they replaced


def _loop_mul(a, b):
    K = min(a.shape[0], b.shape[0]) - 1
    out = np.zeros((K + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for k in range(K + 1):
        for j in range(k + 1):
            out[k] += a[j] * b[k - j]
    return out


def _loop_sin_cos(u):
    K = u.shape[0] - 1
    s = np.zeros_like(u)
    c = np.zeros_like(u)
    s[0] = np.sin(u[0])
    c[0] = np.cos(u[0])
    for k in range(1, K + 1):
        acc_s = np.zeros(u.shape[1:])
        acc_c = np.zeros(u.shape[1:])
        for j in range(1, k + 1):
            acc_s += j * u[j] * c[k - j]
            acc_c += j * u[j] * s[k - j]
        s[k] = acc_s / k
        c[k] = -acc_c / k
    return s, c


def _loop_exp(u):
    K = u.shape[0] - 1
    e = np.zeros_like(u)
    e[0] = np.exp(u[0])
    for k in range(1, K + 1):
        acc = np.zeros(u.shape[1:])
        for j in range(1, k + 1):
            acc += j * u[j] * e[k - j]
        e[k] = acc / k
    return e


def _signed_coeffs(rng, order, shape):
    """Random coefficients with exact zeros of both signs and negated blocks."""
    c = rng.standard_normal((order + 1,) + shape)
    c[rng.random(c.shape) < 0.2] = 0.0
    c[rng.random(c.shape) < 0.1] = -0.0
    if order >= 2:
        c[1] = -c[2]
    return c


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape", [(), (64,), (3, 64)])
@pytest.mark.parametrize("order", range(9))
def test_kernels_match_loops_bitwise(order, shape):
    rng = np.random.default_rng(1000 + 10 * order + len(shape))
    a = _signed_coeffs(rng, order, shape)
    b = _signed_coeffs(rng, order, shape)
    _assert_bitwise((jets.Jet(a) * jets.Jet(b)).coeffs, _loop_mul(a, b))
    # a jet times its own negation cancels exactly in some slots
    _assert_bitwise((jets.Jet(a) * jets.Jet(-a)).coeffs, _loop_mul(a, -a))
    s, c = _loop_sin_cos(a)
    _assert_bitwise(jets.sin(jets.Jet(a)).coeffs, s)
    _assert_bitwise(jets.cos(jets.Jet(a)).coeffs, c)
    _assert_bitwise(jets.exp(jets.Jet(a)).coeffs, _loop_exp(a))


@pytest.mark.parametrize("order", range(9))
def test_product_kernel_mixed_ranks_and_orders(order):
    rng = np.random.default_rng(2000 + order)
    a = _signed_coeffs(rng, order, (64,))
    b = _signed_coeffs(rng, order, (3, 64))
    _assert_bitwise((jets.Jet(a) * jets.Jet(b)).coeffs, _loop_mul(a, b))
    _assert_bitwise((jets.Jet(b) * jets.Jet(a)).coeffs, _loop_mul(b, a))
    longer = _signed_coeffs(rng, order + 2, (3, 64))
    _assert_bitwise((jets.Jet(a) * jets.Jet(longer)).coeffs, _loop_mul(a, longer))
    _assert_bitwise((jets.Jet(longer) * jets.Jet(a)).coeffs, _loop_mul(longer, a))
    scalar = _signed_coeffs(rng, order + 1, ())
    _assert_bitwise((jets.Jet(scalar) * jets.Jet(b)).coeffs, _loop_mul(scalar, b))


def test_product_kernel_sums_of_negative_zeros_are_positive():
    a = np.full((5, 4), -0.0)
    b = np.full((5, 4), 1.0)
    got = (jets.Jet(a) * jets.Jet(b)).coeffs
    _assert_bitwise(got, _loop_mul(a, b))
    assert not np.signbit(got).any()


# ---------------------------------------------------------------------------
# subtraction and the divide/log/sqrt recurrences against the forms they
# replaced: negation into a temporary then addition, and a float copy of
# each input coefficient before the loop


def _neg_add_sub(a, b):
    return (jets.Jet(a) + (-jets.Jet(b))).coeffs


def _copy_divide(a, b):
    K = min(a.shape[0], b.shape[0]) - 1
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((K + 1,) + shape)
    out[0] = a[0] / b[0]
    for k in range(1, K + 1):
        acc = a[k].astype(float, copy=True) + np.zeros(shape)
        for j in range(k):
            acc -= out[j] * b[k - j]
        out[k] = acc / b[0]
    return out


def _copy_log(u):
    v = np.zeros_like(u)
    v[0] = np.log(u[0])
    for k in range(1, u.shape[0]):
        acc = k * u[k].astype(float, copy=True)
        for j in range(1, k):
            acc = acc - j * v[j] * u[k - j]
        v[k] = acc / (k * u[0])
    return v


def _copy_sqrt(u):
    s = np.zeros_like(u)
    s[0] = np.sqrt(u[0])
    for k in range(1, u.shape[0]):
        acc = u[k].astype(float, copy=True)
        for j in range(1, k):
            acc = acc - s[j] * s[k - j]
        s[k] = acc / (2.0 * s[0])
    return s


def _positive_base(c, sign=1.0):
    """c with its order-0 slot moved away from zero (sign > 0: positive)."""
    c = c.copy()
    c[0] = sign * (np.abs(c[0]) + 0.5)
    return c


def _assert_same_outcome(got, want):
    """got() and want() give bitwise-equal arrays or raise the same error."""
    try:
        expected = want()
    except ValueError:
        with pytest.raises(ValueError):
            got()
        return
    _assert_bitwise(got(), expected)


@pytest.mark.parametrize("shapes", [((), ()), ((64,), (64,)),
                                    ((3, 64), (1, 64)), ((64,), (3, 64)),
                                    ((3, 64), ())])
@pytest.mark.parametrize("order", range(7))
def test_sub_divide_log_sqrt_match_old_forms_bitwise(order, shapes):
    rng = np.random.default_rng([3000, order, len(shapes[0]), len(shapes[1])])
    a = _signed_coeffs(rng, order, shapes[0])
    b = _signed_coeffs(rng, order, shapes[1])
    longer = _signed_coeffs(rng, order + 2, shapes[1])
    # value axes of unequal rank do not broadcast through the order axis in
    # a sum, so there both forms must raise alike
    for x, y in ((a, b), (b, a), (a, longer), (longer, a), (a, a), (a, -a)):
        _assert_same_outcome(lambda: (jets.Jet(x) - jets.Jet(y)).coeffs,
                             lambda: _neg_add_sub(x, y))
    for x, y in ((a, b), (b, a), (a, longer), (longer, a)):
        for sign in (1.0, -1.0):
            y = _positive_base(y, sign)
            _assert_bitwise((jets.Jet(x) / jets.Jet(y)).coeffs,
                            _copy_divide(x, y))
    for x in (a, b, longer):
        x = _positive_base(x)
        _assert_bitwise(jets.log(jets.Jet(x)).coeffs, _copy_log(x))
        _assert_bitwise(jets.sqrt(jets.Jet(x)).coeffs, _copy_sqrt(x))


def test_sub_and_divide_signed_zeros():
    # -0 - (-0) and +0 + (-0) are both +0; a -0 numerator over a positive
    # divisor stays -0 in slot 0 and the later slots come out +0
    zeros = np.array([[0.0, -0.0, -0.0, 0.0]] * 4)
    neg = np.array([[-0.0, -0.0, 0.0, 0.0]] * 4)
    for x, y in ((zeros, neg), (neg, zeros), (neg, neg)):
        _assert_bitwise((jets.Jet(x) - jets.Jet(y)).coeffs, _neg_add_sub(x, y))
    one = jets.constant(np.ones(4), 3).coeffs
    _assert_bitwise((jets.Jet(neg) / jets.Jet(one)).coeffs,
                    _copy_divide(neg, one))
    assert not np.signbit((jets.Jet(neg) / jets.Jet(one)).coeffs[1:]).any()
    x = _positive_base(neg)
    _assert_bitwise(jets.sqrt(jets.Jet(x)).coeffs, _copy_sqrt(x))
    _assert_bitwise(jets.log(jets.Jet(x)).coeffs, _copy_log(x))


def _loop_pow(x, m):
    """The power loop that multiplied into a constant-one jet."""
    result = jets.constant(np.ones(x.shape), x.order)
    base = x
    while m:
        if m & 1:
            result = result * base
        base = base * base
        m >>= 1
    return result


def test_power_forms_only_the_binary_method_products(monkeypatch):
    # t^m for m = 1..8 needs 0, 1, 2, 2, 3, 3, 4, 3 products: one squaring
    # per bit below the top one and one product per further set bit
    rng = np.random.default_rng(11)
    x = jets.Jet(rng.uniform(-2.0, 2.0, (6, 5)))
    want = {m: _loop_pow(x, m).coeffs for m in range(1, 9)}
    calls = [0]
    original = jets.Jet.__mul__

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(jets.Jet, "__mul__", counted)
    counts = []
    for m in range(1, 9):
        calls[0] = 0
        got = x**m
        counts.append(calls[0])
        _assert_bitwise(got.coeffs, want[m])
    assert counts == [0, 1, 2, 2, 3, 3, 4, 3]
    assert (x**0).coeffs.tolist() == jets.constant(np.ones(5), 5).coeffs.tolist()
