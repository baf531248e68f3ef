import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest

from qsmooth import smoothing
from qsmooth.qgaussian import QKernel, sample_standard_many
from qsmooth.rng import RngStream
from qsmooth.smoothing import (
    InvalidRhoError,
    sf_term_one_batch,
    sf_term_two_batch,
    smoothed_gradient_mc,
    smoothed_value,
)


def _pert(eta, q, n):
    """One draw as a batch of one: its (1, n) eta and (1,) rho."""
    eta = np.asarray(eta, dtype=float)
    r = 1.0 if q == 1.0 else 1.0 - (1.0 - q) / (n + 2 - n * q) * float(eta @ eta)
    return eta[None, :], np.array([r])


def _one(pert, cost, kernel):
    """The Gq-SF1 term of one draw."""
    return sf_term_one_batch(*pert, np.array([cost]), kernel)[0]


def _two(pert, cost_plus, cost_minus, kernel):
    """The Gq-SF2 term of one draw."""
    return sf_term_two_batch(*pert, np.array([cost_plus]), np.array([cost_minus]), kernel)[0]


def test_sf_term_one_zero_cost():
    kernel = QKernel(q=0.5, beta=0.1, dim=2)
    term = _one(_pert([0.3, -0.4], 0.5, 2), 0.0, kernel)
    np.testing.assert_array_equal(term, np.zeros(2))


def test_sf_term_one_direct_arithmetic():
    # N=2, q=0, beta=0.1, eta=(1,1), cost=3: rho=0.5, term = (30, 30)
    kernel = QKernel(q=0.0, beta=0.1, dim=2)
    np.testing.assert_allclose(
        _one(_pert([1.0, 1.0], 0.0, 2), 3.0, kernel), [30.0, 30.0], rtol=1e-13
    )


def test_sf_term_two_direct_arithmetic():
    kernel = QKernel(q=0.0, beta=0.1, dim=2)
    np.testing.assert_allclose(
        _two(_pert([1.0, 1.0], 0.0, 2), 3.0, 1.0, kernel), [10.0, 10.0], rtol=1e-13
    )


def test_sf_term_two_equal_costs():
    kernel = QKernel(q=0.8, beta=0.05, dim=3)
    term = _two(_pert([0.2, 0.1, -0.5], 0.8, 3), 2.5, 2.5, kernel)
    np.testing.assert_array_equal(term, np.zeros(3))


def test_gaussian_reduction_exact():
    # q = 1 collapses to eta*h/beta and eta*(h+ - h-)/(2 beta), bit for bit
    stream = RngStream(40, 0)
    for _ in range(200):
        n = int(stream.uniform01() * 4) + 1
        beta = 0.001 + stream.uniform01()
        kernel = QKernel(q=1.0, beta=beta, dim=n)
        eta = stream.standard_normal(n)
        h = stream.uniform01() * 10
        hp, hm = stream.uniform01() * 10, stream.uniform01() * 10
        pert = eta[None, :], np.ones(1)
        one = _one(pert, h, kernel)
        two = _two(pert, hp, hm, kernel)
        assert np.array_equal(one, eta * (h / beta))
        assert np.array_equal(two, eta * ((hp - hm) / (2 * beta)))
        # the other association order differs by at most one rounding step
        np.testing.assert_allclose(one, eta * h / beta, rtol=5e-16)
        np.testing.assert_allclose(two, eta * (hp - hm) / (2 * beta), rtol=5e-16)


def test_antisymmetry():
    kernel = QKernel(q=0.5, beta=0.02, dim=2)
    pert = _pert([0.7, -0.2], 0.5, 2)
    fwd = _two(pert, 4.0, 1.0, kernel)
    rev = _two(pert, 1.0, 4.0, kernel)
    np.testing.assert_array_equal(fwd, -rev)


def test_linearity_and_beta_scaling():
    pert = _pert([0.4, 0.9], 0.3, 2)
    k1 = QKernel(q=0.3, beta=0.1, dim=2)
    k2 = QKernel(q=0.3, beta=0.2, dim=2)
    t1 = _one(pert, 1.5, k1)
    t3 = _one(pert, 4.5, k1)
    np.testing.assert_allclose(t3, 3.0 * t1, rtol=1e-13)
    np.testing.assert_allclose(_one(pert, 1.5, k2), t1 / 2.0, rtol=1e-13)


def test_invalid_rho_raises():
    kernel = QKernel(q=0.5, beta=0.1, dim=1)
    bad = np.array([[1.0]]), np.array([-0.25])
    with pytest.raises(InvalidRhoError):
        _one(bad, 1.0, kernel)
    with pytest.raises(InvalidRhoError):
        sf_term_one_batch(np.ones((2, 1)), np.array([0.5, 0.0]), np.ones(2), kernel)


def test_cost_validation():
    # every cost is checked before any term, on either side of Gq-SF2
    kernel = QKernel(q=0.5, beta=0.1, dim=1)
    pert = _pert([0.1], 0.5, 1)
    with pytest.raises(ValueError, match="finite and >= 0, got -1.0$"):
        _one(pert, -1.0, kernel)
    with pytest.raises(ValueError, match="got inf$"):
        _one(pert, float("inf"), kernel)
    with pytest.raises(ValueError, match="got nan$"):
        _two(pert, 1.0, float("nan"), kernel)
    with pytest.raises(ValueError, match="got -2.0$"):
        _two(pert, -2.0, 1.0, kernel)
    # a bad cost is refused before a bad rho is seen
    with pytest.raises(ValueError):
        sf_term_one_batch(np.ones((2, 1)), np.array([0.0, 0.5]), np.array([1.0, -1.0]), kernel)


@pytest.mark.parametrize(
    "term, arrays",
    [
        # 5 draws and one cost, which numpy spread over all 5
        (sf_term_one_batch, (np.ones((5, 2)), np.full(5, 0.5), np.array([1.0]))),
        (sf_term_one_batch, (np.ones((5, 2)), np.array([0.5]), np.ones(5))),
        (sf_term_one_batch, (np.ones((1, 2)), np.full(3, 0.5), np.ones(3))),
        # 3 draws and one rho, which numpy spread over all 3
        (sf_term_two_batch, (np.ones((3, 2)), np.array([0.5]), np.array([1.0, 2, 3]),
                             np.array([0.0]))),
        (sf_term_two_batch, (np.ones((3, 2)), np.full(3, 0.5), np.ones(3), np.array([0.0]))),
        (sf_term_two_batch, (np.ones((3, 2)), np.full(3, 0.5), np.ones(2), np.ones(3))),
    ],
)
def test_batch_terms_need_one_row_per_draw_in_every_array(term, arrays, monkeypatch):
    # refused before any term is weighed
    weigh = mock.Mock(side_effect=AssertionError("a term was computed"))
    monkeypatch.setattr(smoothing, "_term_weight", weigh)
    with pytest.raises(ValueError, match="^etas, rhos and costs must have one row per draw, got "):
        term(*arrays, QKernel(q=0.5, beta=0.1, dim=2))
    assert weigh.call_count == 0


def test_batch_matches_scalar_terms():
    # a draw's term does not depend on the batch around it, bit for bit
    kernel = QKernel(q=0.7, beta=0.03, dim=3)
    etas, rhos = sample_standard_many(0.7, 3, 50, RngStream(2, 2))
    costs_p = np.abs(np.sin(np.arange(50.0))) + 0.5
    costs_m = np.abs(np.cos(np.arange(50.0)))
    b1 = sf_term_one_batch(etas, rhos, costs_p, kernel)
    b2 = sf_term_two_batch(etas, rhos, costs_p, costs_m, kernel)
    for i in (0, 17, 49):
        pert = etas[i : i + 1], rhos[i : i + 1]
        np.testing.assert_allclose(b1[i], _one(pert, costs_p[i], kernel), rtol=1e-13)
        np.testing.assert_allclose(b2[i], _two(pert, costs_p[i], costs_m[i], kernel), rtol=1e-13)


# -- smoothed functional -----------------------------------------------------

def test_smoothed_value_constant():
    kernel = QKernel(q=0.5, beta=0.1, dim=2)
    val = smoothed_value(lambda x: 4.25, np.zeros(2), kernel, 100, RngStream(1, 1))
    assert val == pytest.approx(4.25, abs=1e-12)


def test_smoothed_value_adds_the_f_values_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so each cycle of plain float adds
    # ends at 0.0; a compensated sum (the built-in sum from CPython 3.12
    # on) keeps the 1.0s and gives 1/3
    values = itertools.cycle([1e16, 1.0, -1e16])
    kernel = QKernel(q=0.5, beta=0.1, dim=2)
    val = smoothed_value(lambda x: next(values), np.zeros(2), kernel, 3 * 50, RngStream(1, 1))
    assert val == 0.0


def test_smoothed_value_linear():
    # odd moments vanish, so a linear function smooths to itself
    kernel = QKernel(q=0.5, beta=0.5, dim=2)
    theta = np.array([0.7, -0.2])
    f = lambda x: 2.0 * x[0] - 3.0 * x[1] + 1.0
    val = smoothed_value(f, theta, kernel, 200_000, RngStream(6, 0))
    assert val == pytest.approx(f(theta), abs=0.02)


def test_smoothed_value_converges_as_beta_shrinks():
    theta = np.array([1.0])
    f = lambda x: float(x[0] ** 2)
    errs = []
    for beta in (0.5, 0.05, 0.005):
        kernel = QKernel(q=0.5, beta=beta, dim=1)
        val = smoothed_value(f, theta, kernel, 200_000, RngStream(14, 3))
        errs.append(abs(val - f(theta)))
    assert errs[0] > errs[1] > errs[2]


def test_smoothed_gradient_constant_f():
    kernel = QKernel(q=0.8, beta=0.1, dim=2)
    grad = smoothed_gradient_mc(lambda x: 3.0, np.zeros(2), kernel, 100_000, RngStream(5, 5))
    assert np.all(np.abs(grad) < 0.2)


def _untouched(stream):
    """Whether ``stream`` has drawn nothing yet."""
    return stream._buf.size == 0 and stream.spare_normal is None


@pytest.mark.parametrize("estimate", [smoothed_value, smoothed_gradient_mc])
@pytest.mark.parametrize("n_samples", [0, -5, 2.5, 3.0, True])
def test_monte_carlo_estimates_need_a_sample(estimate, n_samples):
    # 0 samples divided by zero, or averaged to NaN under a warning, -5
    # returned zeros, a float failed inside numpy and True ran one sample;
    # each fails now, naming the argument, before any draw
    stream = RngStream(3, 1)
    with pytest.raises(ValueError, match=f"n_samples must be an integer >= 1, got {n_samples}"):
        estimate(lambda x: 1.0, np.zeros(2), QKernel(0.5, 0.1, 2), n_samples, stream)
    assert _untouched(stream)


@pytest.mark.parametrize("estimate", [smoothed_value, smoothed_gradient_mc])
@pytest.mark.parametrize("theta", [np.zeros(3), np.zeros((2, 1)), 0.0, np.zeros(1)])
def test_monte_carlo_estimates_need_theta_of_the_kernel_dimension(estimate, theta):
    stream = RngStream(3, 1)
    shape = np.shape(theta)
    with pytest.raises(ValueError, match=re.escape(f"theta must have shape (2,), got {shape}")):
        estimate(lambda x: 1.0, theta, QKernel(0.5, 0.1, 2), 10, stream)
    assert _untouched(stream)


@pytest.mark.parametrize("estimate", [smoothed_value, smoothed_gradient_mc])
@pytest.mark.parametrize("theta", [["0.3", "0.3"], [0.3, True]])
def test_monte_carlo_estimates_need_a_theta_of_numbers(estimate, theta):
    # smoothed_value(f, ["0.3", "0.3"], ...) estimated at (0.3, 0.3)
    stream = RngStream(3, 1)
    with pytest.raises(ValueError, match="^theta entry must be a number, got"):
        estimate(lambda x: 1.0, theta, QKernel(0.5, 0.1, 2), 10, stream)
    assert _untouched(stream)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.2])
def test_smoothed_gradient_unbiased_on_quadratic(q):
    # quadratic objective: the Taylor expansion terminates and the second
    # moment E[eta_i^2/rho] = (N+2-Nq)/2 cancels the prefactor exactly
    n = 2
    a_mat = np.array([[2.0, 0.3], [0.3, 1.0]])
    b_vec = np.array([0.5, -1.0])
    theta = np.array([0.4, 0.1])

    def f(x):
        return float(x @ a_mat @ x + b_vec @ x + 5.0)

    grad_true = 2.0 * a_mat @ theta + b_vec
    kernel = QKernel(q=q, beta=0.05, dim=n)
    count = 400_000
    stream = RngStream(23, int(q * 10))
    etas, rhos = sample_standard_many(q, n, count, stream)
    pts = theta[None, :] + kernel.beta * etas
    costs = np.einsum("ij,jk,ik->i", pts, a_mat, pts) + pts @ b_vec + 5.0
    terms = sf_term_one_batch(etas, rhos, costs, kernel)
    se = terms.std(axis=0, ddof=1) / math.sqrt(count)
    assert np.all(np.abs(terms.mean(axis=0) - grad_true) < 4.0 * se)


def test_two_sided_variance_dominates_one_sided():
    # on a quartic, the antithetic form cancels the zeroth-order noise
    theta = np.array([0.8, -0.6])
    q, beta, count = 0.5, 0.05, 100_000
    kernel = QKernel(q=q, beta=beta, dim=2)
    etas, rhos = sample_standard_many(q, 2, count, RngStream(3, 9))
    fp = ((theta[None, :] + beta * etas) ** 4).sum(axis=1)
    fm = ((theta[None, :] - beta * etas) ** 4).sum(axis=1)
    var_one = sf_term_one_batch(etas, rhos, fp, kernel).var(axis=0).sum()
    var_two = sf_term_two_batch(etas, rhos, fp, fm, kernel).var(axis=0).sum()
    assert var_two < var_one
