"""Expression grammar, parse errors, domain errors, and the properties of
the one (jet) evaluation mode."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactcurves import families, jets
from contactcurves.cli import load_curve_file
from contactcurves.curves import coordinate_jets, make_legendre, sample_grid
from contactcurves.expressions import EvaluationError, ExpressionError, parse

from test_jets import _assert_bitwise, fd1, fd2, fd3, fd4

CURVES = Path(__file__).resolve().parent / "curves"


def test_literals_and_precedence():
    assert parse("2+3*4")(0.0) == 14.0
    assert parse("(2+3)*4")(0.0) == 20.0
    assert parse("2-3-4")(0.0) == -5.0
    assert parse("12/4/3")(0.0) == 1.0
    assert parse("-t^2")(3.0) == -9.0  # unary minus binds looser than ^
    assert parse("2^3^2")(0.0) == 512.0  # right associative
    assert np.isclose(parse("pi")(0.0), np.pi)
    assert parse("1.5e2")(0.0) == 150.0
    assert parse(".5")(0.0) == 0.5


def test_t_and_functions():
    f = parse("sin(2*t) + cos(t)^2")
    t0 = 0.37
    assert np.isclose(f(t0), np.sin(2 * t0) + np.cos(t0) ** 2)
    ts = np.linspace(0, 1, 7)
    assert np.allclose(f(ts), np.sin(2 * ts) + np.cos(ts) ** 2)


def test_jet_evaluation_known_derivatives():
    # "sin(2*t)" at t=0 has derivatives (2, 0, -8, 0)
    j = parse("sin(2*t)")(jets.variable(0.0, 4))
    assert np.isclose(j.value, 0.0, atol=1e-15)
    assert np.allclose([j.deriv(k) for k in range(1, 5)], [2.0, 0.0, -8.0, 0.0], atol=1e-15)

    one = parse("1")(jets.variable(1.7, 4))
    assert one.value == 1.0
    assert all(one.deriv(k) == 0.0 for k in range(1, 5))

    q = parse("t*t*t*t")(jets.variable(1.0, 4))
    assert np.allclose(
        [q.value] + [q.deriv(k) for k in range(1, 5)], [1.0, 4.0, 12.0, 24.0, 24.0]
    )


def test_parse_errors_carry_position():
    for text, pos in [("2*", 2), ("sin 3", 4), ("(1+2", 4), ("3 $ 4", 2), ("foo(t)", 0)]:
        with pytest.raises(ExpressionError) as err:
            parse(text)
        assert err.value.position == pos

    with pytest.raises(ExpressionError, match="constant integer"):
        parse("2^t")
    with pytest.raises(ExpressionError, match="must be an integer"):
        parse("2^(1/2)")


def test_constant_exponent_outside_its_domain_is_a_parse_error():
    for text in ("t^(1/0)", "t^(0^(0-1))"):
        with pytest.raises(ExpressionError, match="exponent divides by zero"):
            parse(text)
    with pytest.raises(ExpressionError, match="must be an integer, got inf"):
        parse("t^(1e400)")


def test_division_by_zero_names_t():
    f = parse("1/(t-1)")
    with pytest.raises(EvaluationError, match="t=1"):
        f(1.0)
    with pytest.raises(EvaluationError, match="t=1"):
        f(jets.variable(np.array([0.0, 1.0, 2.0]), 4))
    # fine away from the pole
    assert np.isclose(f(3.0), 0.5)


def _random_expr(rng, depth):
    """Grow a random expression tree in the documented grammar."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["t", "t", f"{rng.uniform(0.2, 2.5):.3f}"])
    kind = rng.integers(0, 6)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a}+{b})"
    if kind == 1:
        return f"({a}-{b})"
    if kind == 2:
        return f"({a}*{b})"
    if kind == 3:
        # keep denominators away from zero on the probe window
        return f"({a}/(2.5+sin({b})))"
    if kind == 4:
        return f"{rng.choice(['sin', 'cos'])}({a})"
    return f"exp(0.3*sin({a}))"


def test_jets_match_stencils_on_random_expressions():
    # pinned property: 5-point central differences at h=1e-3, relative 1e-6
    rng = np.random.default_rng(20240811)
    checked = 0
    for _ in range(100):
        text = _random_expr(rng, 3)
        f = parse(text)
        t0 = float(rng.uniform(-1.0, 1.0))
        j = f(jets.variable(t0, 4))
        scale = max(1.0, abs(j.value))
        h = 1e-3
        assert abs(j.value - f(t0)) <= 1e-12 * scale
        d1 = fd1(f, t0, h)
        d2 = fd2(f, t0, h)
        assert abs(j.deriv(1) - d1) <= 1e-6 * max(1.0, abs(d1))
        assert abs(j.deriv(2) - d2) <= 1e-6 * max(1.0, abs(d2))
        # higher orders with the wide stencils and a coarser h
        d3 = fd3(f, t0, 2e-2)
        d4 = fd4(f, t0, 2e-2)
        assert abs(j.deriv(3) - d3) <= 2e-4 * max(1.0, abs(d3))
        assert abs(j.deriv(4) - d4) <= 2e-3 * max(1.0, abs(d4))
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# domain errors: every evaluation is a jet pass, so values raise as jets do


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [-1.0, np.array([1.0, -1.0]), jets.variable(-1.0, 3)])
def test_log_outside_its_domain_raises_on_every_argument_type(t):
    with pytest.raises(EvaluationError, match=r"log .* while evaluating 'log\(t\)'"):
        parse("log(t)")(t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("cos(t)+log(0-1)*0", "log of a non-positive"),
    ("t+log(0)", "log of a non-positive"),
    ("sin(t)+0^(0-1)*0", "division by zero"),
    ("(1-1)^(0-2)", "division by zero"),
])
@pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 1.0, 5), jets.variable(0.5, 2)])
def test_constant_subexpression_outside_its_domain_raises(text, message, t):
    with pytest.raises(EvaluationError, match=f"{message}.* while evaluating"):
        parse(text)(t)


def test_constant_powers_and_logs_inside_their_domain():
    assert parse("t+log(1)")(2.0) == 2.0
    assert parse("2^(0-2)+0^3+0^0")(0.0) == 1.25


@pytest.mark.filterwarnings("error")
def test_curve_positions_raise_on_a_domain_error():
    spec = load_curve_file(CURVES / "domain_error.txt")
    with pytest.raises(EvaluationError, match=r"log .*'log\(t-10\)'"):
        spec.point(np.linspace(0.0, 1.0, 16))
    with pytest.raises(EvaluationError, match=r"log .*'log\(t\)'"):
        make_legendre(["t"], ["log(t)"]).point([-1.0])


# ---------------------------------------------------------------------------
# values are the value slot of a jet pass, bit for bit


def _random_domain_expr(rng):
    """A random expression, wrapped so that some leave their domain."""
    a = _random_expr(rng, 3)
    kind = rng.integers(0, 4)
    if kind == 0:
        return a
    if kind == 1:
        return f"log({a})"
    if kind == 2:
        b = _random_expr(rng, 2)
        return f"{a}/({b}-{b})"
    return f"{a}+log(0-{rng.uniform(-1.0, 1.0):.3f})*0"


def _outcome(evaluate):
    try:
        return evaluate(), None
    except EvaluationError as err:
        return None, type(err)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_values_are_the_jet_value_slot(seed):
    rng = np.random.default_rng(seed)
    f = parse(_random_domain_expr(rng))
    ts = rng.uniform(-2.0, 2.0, 9)
    got, got_err = _outcome(lambda: f(ts))
    want, want_err = _outcome(lambda: f(jets.variable(ts, 3)).value)
    assert got_err is want_err
    if got_err is None:
        _assert_bitwise(got, want)
        scalar, _ = _outcome(lambda: f(float(ts[0])))
        assert isinstance(scalar, float)
        _assert_bitwise(np.asarray(scalar), want[0])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4))
def test_curve_positions_are_the_jet_value_slot(seed, r):
    spec, _ = families.random_legendre_curve(np.random.default_rng(seed), r)
    ts = sample_grid(spec, 32)
    _assert_bitwise(spec.point(ts), coordinate_jets(spec, ts, 3).value)
    # a single parameter: z integrates the one gap from 0, not the grid's gaps
    _assert_bitwise(spec.point(ts[5]), coordinate_jets(spec, ts[5], 3).value[:, 0])


@pytest.mark.parametrize("spec", [families.rational_turn(), families.orthogonal_helix()])
def test_stock_curve_positions_are_the_jet_value_slot(spec):
    ts = np.linspace(-1.0, 2.0 * np.pi, 41)
    _assert_bitwise(spec.point(ts), coordinate_jets(spec, ts, 3).value)
