"""Adaptive Gauss-Legendre panels against scipy's QUADPACK."""

import numpy as np
import pytest
from scipy.integrate import quad

from boundcount.errors import NonFiniteError, QuadratureError
from boundcount.quadrature import adaptive_integral, angular_nodes
from helpers import reference_adaptive_integral

QUADPACK_CASES = [
    (lambda x: np.exp(-x * x), -6.0, 6.0),
    (lambda x: np.cos(13.0 * x) * np.exp(-0.3 * x), 0.0, 10.0),
    (lambda x: 1.0 / (1.0 + x * x), -50.0, 50.0),
    (lambda x: np.exp(-np.abs(x - 1.234) * 40.0), -2.0, 4.0),
]


@pytest.mark.parametrize("f,a,b", QUADPACK_CASES)
def test_matches_quadpack(f, a, b):
    val, = adaptive_integral(f, [a], [b], rel_tol=1e-10)
    ref, _ = quad(lambda x: float(f(np.array([x]))[0]), a, b, limit=400)
    assert val == pytest.approx(ref, rel=1e-8)


def test_zero_integrand():
    assert adaptive_integral(lambda x: np.zeros_like(x), [0.0], [1.0]).tolist() == [0.0]


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: x, [1.0], [1.0])


def test_nonfinite_sample_reports_location():
    def f(x):
        with np.errstate(divide="ignore"):
            return np.where(np.abs(x - 0.5) < 1e-9, np.inf, 1.0 / (x - 0.5))

    with pytest.raises(NonFiniteError):
        adaptive_integral(f, [0.0], [1.0])


def test_divergent_integral_raises_with_partial():
    with pytest.raises(QuadratureError) as info:
        adaptive_integral(lambda x: 1.0 / x, [0.0], [1.0], rel_tol=1e-10, max_depth=30)
    assert info.value.partial is not None


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("f,a,b", QUADPACK_CASES)
def test_each_interval_of_a_batch_matches_the_scalar_bisection_bit_for_bit(f, a, b):
    lo = np.linspace(a, b, 7)
    spans = [(a, b), *zip(lo[:-1], lo[1:]), (a, 0.5 * (a + b))]
    calls = []

    def g(x):
        calls.append(x.size)
        return f(x)

    values = adaptive_integral(g, [s[0] for s in spans], [s[1] for s in spans], rel_tol=1e-10)
    ref = [reference_adaptive_integral(f, s[0], s[1], rel_tol=1e-10) for s in spans]
    assert bits(values) == bits(ref)
    # the coarse panels in one call, then one call per round, each
    # evaluating both halves of a panel from every open interval
    assert calls[0] == 15 * len(spans)
    assert all(n % 30 == 0 and n <= 30 * len(spans) for n in calls[1:])


def test_a_failed_interval_raises_the_first_failure_only_after_the_batch():
    # interval 1 cannot converge, interval 3 has a non-finite sample, and
    # interval 0 stays finite: the error is interval 1's, with its id
    def f(x):
        with np.errstate(divide="ignore"):
            return np.where(x > 3.0, np.nan, 1.0 / np.abs(x - 1.0))

    with pytest.raises(QuadratureError) as info:
        adaptive_integral(f, [0.0, 1.0, 2.0, 3.0], [0.9, 2.0, 3.0, 4.0],
                          max_depth=30, interval_id=["a", "b", "c", "d"])
    with pytest.raises(QuadratureError) as ref:
        reference_adaptive_integral(f, 1.0, 2.0, max_depth=30, interval_id="b")
    assert info.value.interval == "b"
    assert str(info.value) == str(ref.value)
    assert bits(info.value.partial) == bits(ref.value.partial)
    with pytest.raises(NonFiniteError) as info:
        adaptive_integral(f, [2.0, 3.0], [3.0, 4.0])
    with pytest.raises(NonFiniteError) as ref:
        reference_adaptive_integral(f, 3.0, 4.0)
    assert str(info.value) == str(ref.value)
    assert info.value.where == ref.value.where


def test_empty_interval_in_a_batch_rejected():
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: x, [0.0, 1.0], [1.0, 1.0])


def test_angular_rule_exact_for_trig_polynomials():
    theta, w = angular_nodes(32)
    # degree < node count integrates exactly
    for k in (0, 1, 5, 15):
        vals = np.cos(k * theta)
        integral = w * np.sum(vals)
        expected = 2.0 * np.pi if k == 0 else 0.0
        assert integral == pytest.approx(expected, abs=1e-12)
    mixed = 2.0 + np.sin(3 * theta) - 0.25 * np.cos(7 * theta)
    assert w * np.sum(mixed) == pytest.approx(4.0 * np.pi, rel=1e-14)


def test_angular_rule_minimum_nodes():
    with pytest.raises(ValueError):
        angular_nodes(4)
