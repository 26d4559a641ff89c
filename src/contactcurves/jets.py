"""Truncated Taylor (jet) arithmetic.

A :class:`Jet` stores Taylor coefficients a_k = f^(k)(t0)/k! of a function of
one parameter, up to a fixed order.  Arithmetic and the elementary functions,
which take jets only (a constant is an order-0 jet), propagate coefficients
through the classic convolution recurrences, so every derivative read off a
jet is exact up to rounding; there is no step size to tune anywhere.

The product and the sin/cos/exp recurrences form each output order with one
contraction over the order axis (:func:`_convolve`) instead of a Python
loop over its terms.  The contraction adds the terms in the same order as
the loop did, so the coefficients are the same to the last bit.  A
product's value shape is that of its order-0 contraction.

The sine and cosine of a jet come from one coupled recurrence
(:func:`_sin_cos`).  :func:`sin` and :func:`cos` each keep half of it;
expression evaluation in a sharing scope keeps both, so one jet pass over a
curve runs the recurrence once per distinct argument.

Coefficient arrays may carry trailing value axes (one per grid sample, or per
vector component), which makes whole-grid curve evaluation a single
vectorized pass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "variable",
    "constant",
    "stack",
    "sin",
    "cos",
    "exp",
    "log",
    "atan",
    "sqrt",
]


class JetDomainError(ValueError):
    """A jet operation left its numeric domain (zero divisor, sqrt of <= 0, ...)."""


class Jet:
    """Taylor coefficients of a function about a base point.

    ``coeffs[k]`` holds f^(k)/k!.  Trailing axes of ``coeffs`` are value axes
    and broadcast elementwise through all operations.  Binary operations
    between jets of different orders truncate to the smaller order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim < 1:
            raise ValueError("jet coefficients need a leading order axis")
        self.coeffs = coeffs

    # -- basic views ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def shape(self):
        """Shape of the value axes."""
        return self.coeffs.shape[1:]

    @property
    def value(self):
        return self.coeffs[0]

    def deriv(self, k: int):
        """Values of the k-th derivative (k! times the k-th coefficient)."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet order {self.order}")
        return self.coeffs[k] * math.factorial(k)

    def derivative(self) -> "Jet":
        """The jet of f', one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1, dtype=float)
        k = k.reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return Jet(self.coeffs[1:] * k)

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("cannot truncate below order 0")
        return Jet(self.coeffs[: order + 1])

    def sum(self, axis: int) -> "Jet":
        """Sum over a value axis (0 is the first value axis)."""
        if axis >= 0:
            axis += 1
        return Jet(np.sum(self.coeffs, axis=axis))

    def __getitem__(self, idx) -> "Jet":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.coeffs[(slice(None),) + idx])

    def __repr__(self):
        return f"Jet(order={self.order}, shape={self.shape})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return Jet(-self.coeffs)

    def __add__(self, other):
        if isinstance(other, Jet):
            K = min(self.order, other.order)
            return Jet(self.coeffs[: K + 1] + other.coeffs[: K + 1])
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.shape, other.shape)
        coeffs = np.broadcast_to(self.coeffs, (self.order + 1,) + shape).copy()
        coeffs[0] += other
        return Jet(coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            K = min(self.order, other.order)
            return Jet(self.coeffs[: K + 1] - other.coeffs[: K + 1])
        return self + (-np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            K = min(self.order, other.order)
            a = self.coeffs
            b = other.coeffs
            first = _convolve(a[:1], b[:1])
            out = np.empty((K + 1,) + first.shape)
            out[0] = first
            for k in range(1, K + 1):
                out[k] = _convolve(a[: k + 1], b[k::-1])
            return Jet(out)
        return Jet(self.coeffs * np.asarray(other, dtype=float))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _divide(self, other)
        return Jet(self.coeffs / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return _divide(constant(other, self.order), self)

    def __pow__(self, exponent):
        if not (isinstance(exponent, (int, float, np.integer))
                and float(exponent).is_integer()):
            raise JetDomainError(f"non-integer exponent {exponent!r} in jet power")
        m = int(exponent)
        if m < 0:
            return 1.0 / (self ** (-m))
        if m == 0:
            return constant(np.ones(self.shape), self.order)
        # binary powering from the lowest set bit: no product with a constant
        # one, and no squaring past the highest bit
        base = self
        while not m & 1:
            base, m = base * base, m >> 1
        result = base
        while m := m >> 1:
            base = base * base
            if m & 1:
                result = result * base
        return result


# -- constructors ------------------------------------------------------------


def variable(t, order: int) -> Jet:
    """The identity function t as a jet about the given base values."""
    t = np.asarray(t, dtype=float)
    coeffs = np.zeros((order + 1,) + t.shape)
    coeffs[0] = t
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(coeffs)


def constant(value, order: int) -> Jet:
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((order + 1,) + value.shape)
    coeffs[0] = value
    return Jet(coeffs)


def stack(jets, axis: int = 0) -> Jet:
    """Stack scalar-shaped jets into a vector-valued jet along a new value axis."""
    K = min(j.order for j in jets)
    if axis >= 0:
        axis += 1
    return Jet(np.stack([j.coeffs[: K + 1] for j in jets], axis=axis))


# -- elementary functions ----------------------------------------------------


def _convolve(a, b_reversed):
    """sum_j a[j] * b_reversed[j] over the order axis, added left to right.

    Adding 0.0 turns a sum of negative zeros into +0.0, as the loop that
    accumulated into zeros() gave.
    """
    return np.einsum("j...,j...->...", a, b_reversed) + 0.0


def _scaled_increments(u):
    """The coefficients j*u_j, j = 1..order, that the sin/cos/exp recurrences read."""
    j = np.arange(1, u.order + 1, dtype=float)
    return u.coeffs[1:] * j.reshape((-1,) + (1,) * (u.coeffs.ndim - 1))


def _divide(a: Jet, b: Jet) -> Jet:
    K = min(a.order, b.order)
    b0 = b.coeffs[0]
    if np.any(b0 == 0.0):
        raise JetDomainError("division by zero in jet arithmetic")
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros((K + 1,) + shape)
    out[0] = a.coeffs[0] / b0
    for k in range(1, K + 1):
        acc = a.coeffs[k] + np.zeros(shape)
        for j in range(k):
            acc -= out[j] * b.coeffs[k - j]
        out[k] = acc / b0
    return Jet(out)


def _sin_cos(u: Jet):
    K = u.order
    s = np.zeros_like(u.coeffs)
    c = np.zeros_like(u.coeffs)
    s[0] = np.sin(u.coeffs[0])
    c[0] = np.cos(u.coeffs[0])
    du = _scaled_increments(u)
    for k in range(1, K + 1):
        s[k] = _convolve(du[:k], c[k - 1::-1]) / k
        c[k] = -_convolve(du[:k], s[k - 1::-1]) / k
    return Jet(s), Jet(c)


def sin(x: Jet) -> Jet:
    return _sin_cos(x)[0]


def cos(x: Jet) -> Jet:
    return _sin_cos(x)[1]


def exp(x: Jet) -> Jet:
    K = x.order
    e = np.zeros_like(x.coeffs)
    e[0] = np.exp(x.coeffs[0])
    dx = _scaled_increments(x)
    for k in range(1, K + 1):
        e[k] = _convolve(dx[:k], e[k - 1::-1]) / k
    return Jet(e)


def log(x: Jet) -> Jet:
    u0 = x.coeffs[0]
    if np.any(u0 <= 0.0):
        raise JetDomainError("log of a non-positive jet value")
    K = x.order
    v = np.zeros_like(x.coeffs)
    v[0] = np.log(u0)
    # invert the exp recurrence: k u_k = sum_{j=1..k} j v_j u_{k-j}
    for k in range(1, K + 1):
        acc = k * x.coeffs[k]
        for j in range(1, k):
            acc = acc - j * v[j] * x.coeffs[k - j]
        v[k] = acc / (k * u0)
    return Jet(v)


def atan(x: Jet) -> Jet:
    K = x.order
    v = np.zeros_like(x.coeffs)
    v[0] = np.arctan(x.coeffs[0])
    if K > 0:
        q = x.derivative() / (1.0 + x * x).truncate(K - 1)
        for k in range(1, K + 1):
            v[k] = q.coeffs[k - 1] / k
    return Jet(v)


def sqrt(x: Jet) -> Jet:
    u0 = x.coeffs[0]
    if np.any(u0 <= 0.0):
        raise JetDomainError("sqrt of a non-positive jet value")
    K = x.order
    s = np.zeros_like(x.coeffs)
    s[0] = np.sqrt(u0)
    for k in range(1, K + 1):
        acc = x.coeffs[k]
        for j in range(1, k):
            acc = acc - s[j] * s[k - j]
        s[k] = acc / (2.0 * s[0])
    return Jet(s)
