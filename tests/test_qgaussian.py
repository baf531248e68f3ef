import math
import re

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betainc

from qsmooth.qgaussian import (
    MomentDoesNotExistError,
    MomentSpec,
    QGaussianDomainError,
    QKernel,
    analytic_moment,
    density,
    moment_exists,
    normalizing_constant,
    rho,
    sample,
    sample_standard,
    sample_standard_many,
    support_contains,
    support_radius_sq,
    _transform_constants,
)
from qsmooth.rng import RngStream

from conftest import stream_state


# -- independent oracles, built from the defining integrals -------------------

def _pdf_1d_unnormalized(q):
    """Standard 1-D shape written out from its definition."""
    c = 3.0 - q

    def f(x):
        if q == 1.0:
            return math.exp(-0.5 * x * x)
        base = 1.0 - (1.0 - q) * x * x / c
        if base <= 0.0:
            return 0.0
        return base ** (1.0 / (1.0 - q))

    return f


def _support_1d(q):
    if q < 1.0:
        r = math.sqrt((3.0 - q) / (1.0 - q))
        return -r, r
    return -np.inf, np.inf


def quad_normalizer_1d(q):
    lo, hi = _support_1d(q)
    val, err = integrate.quad(_pdf_1d_unnormalized(q), lo, hi, limit=200)
    assert err < 1e-7 * max(1.0, val)
    return val


def quad_moment_1d(q, b, power):
    """E[x^power / rho(x)^b] by numerical integration of the definition."""
    c = 3.0 - q
    shape = _pdf_1d_unnormalized(q)
    norm = quad_normalizer_1d(q)

    def integrand(x):
        base = 1.0 - (1.0 - q) * x * x / c
        return shape(x) * x**power / base**b

    lo, hi = _support_1d(q)
    val, err = integrate.quad(integrand, lo, hi, limit=400)
    assert err < 1e-6 * max(1.0, abs(val))
    return val / norm


def quadrature_cdf_1d(q, n_core=4001):
    """Tabulated CDF of the standard 1-D density, for KS testing."""
    kernel = QKernel(q=q, beta=1.0, dim=1)

    def pdf(x):
        return density(np.array([x]), kernel)

    if q < 1.0:
        r = math.sqrt(support_radius_sq(q, 1))
        nodes = np.linspace(-r * (1 - 1e-12), r * (1 - 1e-12), n_core)
        start = 0.0
    else:
        x_max = 20.0
        while integrate.quad(pdf, x_max, np.inf, limit=200)[0] > 1e-10:
            x_max *= 2.0
        core = np.linspace(-20.0, 20.0, n_core)
        if x_max > 20.0:
            tail = np.geomspace(20.0, x_max, 200)[1:]
            nodes = np.concatenate([-tail[::-1], core, tail])
        else:
            nodes = core
        start = integrate.quad(pdf, -np.inf, nodes[0], limit=200)[0]

    segs = [
        integrate.quad(pdf, a, b_)[0] for a, b_ in zip(nodes[:-1], nodes[1:])
    ]
    cdf_vals = start + np.concatenate([[0.0], np.cumsum(segs)])
    cdf_vals = np.minimum(np.maximum.accumulate(cdf_vals), 1.0)

    def cdf(x):
        return np.interp(x, nodes, cdf_vals, left=0.0, right=1.0)

    return cdf


def closed_form_cdf_1d(q):
    """Cross-oracle: Beta law of x^2 for q<1, scaled Student-t for q>1."""
    c = 3.0 - q
    if q < 1.0:
        r2 = c / (1.0 - q)
        shape2 = (2.0 - q) / (1.0 - q)

        def cdf(x):
            x = np.asarray(x, dtype=float)
            frac = np.clip(x * x / r2, 0.0, 1.0)
            return 0.5 * (1.0 + np.sign(x) * betainc(0.5, shape2, frac))

        return cdf
    if q == 1.0:
        return stats.norm.cdf
    dof = c / (q - 1.0)
    return stats.t(df=dof).cdf


# -- normalizing constant ------------------------------------------------------

def test_normalizing_constant_q0():
    assert normalizing_constant(0.0, 1) == pytest.approx(4 * math.sqrt(3) / 3, rel=1e-12)
    assert normalizing_constant(0.0, 2) == pytest.approx(2 * math.pi, rel=1e-12)


@pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 1.2, 1.4])
def test_normalizing_constant_matches_quadrature(q):
    assert normalizing_constant(q, 1) == pytest.approx(quad_normalizer_1d(q), rel=1e-8)


def test_normalizing_constant_gaussian_limit():
    assert normalizing_constant(1.0 - 1e-6, 1) == pytest.approx(
        math.sqrt(2 * math.pi), rel=1e-4
    )
    assert normalizing_constant(1.0, 3) == pytest.approx((2 * math.pi) ** 1.5, rel=1e-12)


def test_normalizing_constant_domain_error():
    with pytest.raises(QGaussianDomainError):
        normalizing_constant(1.5, 4)  # boundary q = 1 + 2/4
    with pytest.raises(QGaussianDomainError):
        normalizing_constant(3.1, 1)


@pytest.mark.parametrize(
    "q, beta, name",
    [(True, True, "q"), (0.8, True, "beta"), ("0.8", 0.005, "q"), (0.8, "0.005", "beta"),
     (None, 0.005, "q"), (0.8, 10**400, "beta")],
)
def test_kernel_refuses_a_q_or_beta_that_is_no_number(q, beta, name):
    # QKernel(True, True, 4) was the Gaussian kernel with beta = 1, and "0.8"
    # raised TypeError from the domain test
    value = {"q": q, "beta": beta}[name]
    refused = "is too large" if value == 10**400 else "must be a number"
    with pytest.raises(ValueError, match=f"^{name} {refused}, got {re.escape(repr(value))}$"):
        QKernel(q, beta, 4)


def test_kernel_keeps_numpy_scalars_as_given():
    # a float32 beta computes in float32, so a conversion would change numbers
    kernel = QKernel(np.float64(0.8), np.float32(0.005), np.int64(4))
    assert [type(v) for v in (kernel.q, kernel.beta, kernel.dim)] == [
        np.float64, np.float32, np.int64
    ]


# -- density -------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(3,), (1,), (2, 2), ()])
def test_density_and_sample_refuse_a_point_of_another_shape(shape):
    kernel = QKernel(q=0.8, beta=0.1, dim=2)
    stream = RngStream(3, 3)
    before = stream_state(stream)
    with pytest.raises(ValueError, match=re.escape(f"x must have shape (2,), got {shape}")):
        density(np.zeros(shape), kernel)
    with pytest.raises(ValueError, match=re.escape(f"mean must have shape (2,), got {shape}")):
        sample(kernel, np.zeros(shape), stream)
    # rho(np.ones(3), 0.5, 2) read 0.5, and support_contains read False
    for q in (0.8, 1.0, 1.3):
        with pytest.raises(ValueError, match=re.escape(f"eta must have shape (2,), got {shape}")):
            rho(np.ones(shape), q, 2)
        with pytest.raises(ValueError, match=re.escape(f"x must have shape (2,), got {shape}")):
            support_contains(np.ones(shape), QKernel(q, 0.1, 2))
    assert stream_state(stream) == before


@pytest.mark.parametrize("point", [["0.1", "0.2"], [0.1, True], "0.1", np.array([True, False])])
def test_a_point_is_a_number_array_or_list_of_numbers(point):
    # density(["0.1", True]) read 0.0, and a string mean was drawn around
    kernel = QKernel(q=0.5, beta=0.1, dim=2)
    stream = RngStream(3, 3)
    before = stream_state(stream)
    for call in (lambda: density(point, kernel), lambda: support_contains(point, kernel),
                 lambda: rho(point, 0.5, 2), lambda: sample(kernel, point, stream)):
        with pytest.raises(ValueError, match="must be a number, got"):
            call()
    assert stream_state(stream) == before


@pytest.mark.parametrize("q", [1.0, 1.3])
def test_the_support_is_unbounded_from_q_1_on(q):
    assert support_radius_sq(q, 2) == math.inf
    assert support_contains(np.array([1e300, -1e300]), QKernel(q, 0.1, 2))


def test_density_cutoff_outside_support():
    kernel = QKernel(q=0.5, beta=1.0, dim=2)
    r = math.sqrt(support_radius_sq(0.5, 2))
    assert density(np.array([r + 0.1, 0.0]), kernel) == 0.0


@pytest.mark.parametrize("q,n", [(0.0, 1), (1.2, 3), (1.0, 2)])
def test_density_at_mode(q, n):
    beta = 0.31
    kernel = QKernel(q=q, beta=beta, dim=n)
    expected = 1.0 / (normalizing_constant(q, n) * beta**n)
    assert density(np.zeros(n), kernel) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 1.0, 1.2])
def test_density_integrates_to_one_1d(q):
    kernel = QKernel(q=q, beta=1.0, dim=1)
    lo, hi = _support_1d(q)
    val, _ = integrate.quad(lambda x: density(np.array([x]), kernel), lo, hi, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_density_scale_property():
    # G_beta(x) = beta^-N G_1(x / beta)
    q, n, beta = 0.6, 3, 0.17
    x = np.array([0.05, -0.03, 0.08])
    scaled = QKernel(q=q, beta=beta, dim=n)
    unit = QKernel(q=q, beta=1.0, dim=n)
    assert density(x, scaled) == pytest.approx(
        density(x / beta, unit) / beta**n, rel=1e-12
    )


def test_density_continuity_at_q1():
    x = np.array([0.4, -0.2])
    for q in (1.0 - 1e-5, 1.0 + 1e-5):
        a = density(x, QKernel(q=q, beta=0.7, dim=2))
        b = density(x, QKernel(q=1.0, beta=0.7, dim=2))
        assert abs(a - b) / b < 1e-3


# -- rho and support -------------------------------------------------------------

def test_rho_values():
    assert rho(np.zeros(3), 0.4, 3) == 1.0
    assert rho(np.array([5.0, -2.0]), 1.0, 2) == 1.0
    assert rho(np.array([1.0, 1.0]), 0.0, 2) == pytest.approx(0.5)
    eta = np.array([0.3, -1.1, 0.7, 2.0])
    assert rho(eta, 0.8, 4) == 1.0 - ((1.0 - 0.8) / (6.0 - 4 * 0.8)) * np.dot(eta, eta)
    # rho takes the sampler's constants, so it rejects what the sampler does
    for q in (1.5, math.nan, -math.inf, -1e308):
        with pytest.raises(QGaussianDomainError):
            rho(eta, q, 4)


def test_support_contains():
    assert support_contains(np.array([100.0, -50.0]), QKernel(q=1.2, beta=0.1, dim=2))
    assert not support_contains(np.array([2.0]), QKernel(q=0.0, beta=1.0, dim=1))
    assert support_contains(np.array([1.7]), QKernel(q=0.0, beta=1.0, dim=1))
    for q in (-1.0, 0.5, 1.0, 1.2):
        assert support_contains(np.zeros(2), QKernel(q=q, beta=0.01, dim=2))


def test_qkernel_validation():
    with pytest.raises(QGaussianDomainError):
        QKernel(q=1.5, beta=0.1, dim=4)
    with pytest.raises(ValueError):
        QKernel(q=0.5, beta=0.0, dim=2)
    with pytest.raises(ValueError):
        QKernel(q=0.5, beta=0.1, dim=0)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            QKernel(q=0.5, beta=beta, dim=2)
    # constants that are not finite: the mixing chi-squared never accepts
    for q in (-math.inf, -1e308):
        with pytest.raises(QGaussianDomainError):
            QKernel(q=q, beta=0.1, dim=4)
    # the check is on the constants, not on a bound for q
    assert _transform_constants(-1e300, 4) == (2.0, 2.0, 0.25)
    QKernel(q=-1e300, beta=0.1, dim=4)
    # an integer of numpy's is a dim
    assert QKernel(q=0.5, beta=0.1, dim=np.int64(3)).tail_coefficient == 3.5
    assert sample_standard(0.5, np.int32(3), RngStream(1))[0].shape == (3,)


@pytest.mark.parametrize("dim", [2.5, 3.0, True, "3"])
def test_a_dim_that_is_not_an_integer_is_refused(dim):
    # warm the caches with the integer that 3.0 and True equal, which an
    # untyped cache would hand back without a check
    for warm in (1, 3):
        QKernel(q=0.5, beta=0.1, dim=warm)
        sample_standard_many(0.5, warm, 2, RngStream(0))
        normalizing_constant(0.5, warm)
    stream = RngStream(0)
    for call in (
        lambda: QKernel(q=0.5, beta=0.1, dim=dim),
        lambda: sample_standard(0.5, dim, stream),
        lambda: sample_standard_many(0.5, dim, 2, stream),
        lambda: normalizing_constant(0.5, dim),
    ):
        with pytest.raises(QGaussianDomainError, match="dim must be an integer"):
            call()
    assert stream.uniform01(4).tolist() == RngStream(0).uniform01(4).tolist()  # no draw made


# -- sampler ---------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 1.0, 1.2])
@pytest.mark.parametrize("count", [-1, 2.5, 3.0, True, "3"])
def test_many_draws_refuse_a_count_that_is_no_count_before_they_draw(q, count):
    # 2.5 failed inside numpy with the size 5.0, and True drew one sample
    stream = RngStream(6, 1)
    stream.standard_normal()
    before = stream_state(stream)
    with pytest.raises(ValueError, match=re.escape(f"count must be an integer >= 0, got {count!r}")):
        sample_standard_many(q, 2, count, stream)
    assert stream_state(stream) == before


def test_sample_standard_gaussian_branch_consumes_no_chi2():
    s1 = RngStream(3, 1)
    s2 = RngStream(3, 1)
    eta, rho = sample_standard(1.0, 3, s1)
    np.testing.assert_array_equal(eta, s2.standard_normal(3))
    assert rho == 1.0
    # both streams must now be in the same state
    assert s1.uniform01() == s2.uniform01()


def test_sample_standard_support_bound():
    q, n = 0.3, 2
    bound = support_radius_sq(q, n)
    s = RngStream(8, 0)
    for _ in range(2000):
        eta, rho = sample_standard(q, n, s)
        assert eta.shape == (n,) and type(rho) is float
        assert float(eta @ eta) < bound
        assert 0.0 < rho <= 1.0


def test_sample_standard_rho_sign_for_heavy_tails():
    _, rhos = sample_standard_many(1.2, 2, 5000, RngStream(9, 0))
    assert np.all(rhos >= 1.0)


def test_sample_standard_many_matches_density_ks():
    # spec-level bound for 1e6 draws is 1.95/sqrt(n); module test uses a
    # smaller n with the same form
    n = 200_000
    draws, _ = sample_standard_many(0.5, 1, n, RngStream(31, 4))
    cdf = quadrature_cdf_1d(0.5)
    d = stats.kstest(draws[:, 0], cdf).statistic
    assert d < 1.95 / math.sqrt(n)


@pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 1.2, 1.4])
def test_quadrature_cdf_agrees_with_closed_form(q):
    # the KS oracle itself is cross-checked against the Beta / Student-t laws
    xs = np.linspace(-4.0, 4.0, 41)
    got = quadrature_cdf_1d(q)(xs)
    expected = closed_form_cdf_1d(q)(xs)
    np.testing.assert_allclose(got, expected, atol=5e-7)


def test_sample_shift_and_scale():
    kernel = QKernel(q=0.5, beta=0.2, dim=3)
    mean = np.array([1.0, -2.0, 0.5])
    s1 = RngStream(12, 0)
    s2 = RngStream(12, 0)
    x = sample(kernel, mean, s1)
    eta, _ = sample_standard(0.5, 3, s2)
    np.testing.assert_allclose(x, mean + 0.2 * eta, rtol=0, atol=0)
    # affine image of the support ellipsoid
    r2 = support_radius_sq(0.5, 3) * 0.2**2
    for _ in range(1000):
        d = sample(kernel, mean, s1) - mean
        assert float(d @ d) < r2


def test_sample_mean_clt():
    kernel = QKernel(q=0.5, beta=1.0, dim=2)
    s = RngStream(77, 1)
    draws, _ = sample_standard_many(0.5, 2, 1_000_000, s)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.005)


# -- analytic moments --------------------------------------------------------------

def test_moment_odd_is_zero():
    assert analytic_moment(MomentSpec(b=1, powers=(1, 2)), 0.5, 2) == 0.0
    assert analytic_moment(MomentSpec(b=0, powers=(3,)), 1.1, 1) == 0.0


@pytest.mark.parametrize("q,n", [(0.0, 2), (0.5, 2), (0.5, 4), (1.1, 3), (1.3, 1)])
def test_moment_second_over_rho_closed_form(q, n):
    # E[x_j^2 / rho] = (N + 2 - N q) / 2, exactly
    powers = tuple(2 if i == 0 else 0 for i in range(n))
    expected = (n + 2 - n * q) / 2.0
    assert analytic_moment(MomentSpec(b=1, powers=powers), q, n) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize("b,powers", [
    (0, (2.7, 0.0)),  # was truncated to (2, 0)
    (0.5, (2, 0)),  # was accepted, and answered
    (0, (2.0, 0)),
    (True, (2, 0)),
    (0, (True, 0)),
    (-1, (2, 0)),
    (0, (2, -2)),
])
def test_moment_spec_refuses_powers_that_are_not_nonnegative_integers(b, powers):
    with pytest.raises(ValueError, match="^(b|powers entry) must be an integer >= 0, got "):
        MomentSpec(b=b, powers=powers)


def test_moment_spec_takes_numpy_integers_as_ints():
    spec = MomentSpec(b=np.int64(1), powers=(np.int64(2), np.int32(0)))
    assert spec == MomentSpec(1, (2, 0))
    assert all(type(p) is int for p in (spec.b, *spec.powers))


@pytest.mark.parametrize("powers", [(2,), (2, 0, 0), ()])
def test_analytic_moment_refuses_powers_of_another_length(powers):
    # unchecked, each would be answered with a number for the wrong law
    with pytest.raises(ValueError, match=re.escape(f"powers must have length dim=2, got {len(powers)}")):
        analytic_moment(MomentSpec(b=0, powers=powers), 0.8, 2)


def test_moment_total_probability():
    assert analytic_moment(MomentSpec(b=0, powers=(0, 0, 0)), 0.7, 3) == 1.0


@pytest.mark.parametrize("powers", [(0, 0), (2, 0), (4, 0), (1, 0)])
def test_moment_refuses_a_q_whose_sampler_constants_are_not_finite(powers):
    # q = -1e308 passes the q < 1 + 2/N bound, but its tail coefficient
    # overflows: even moments used to come out inf, as no sampler gives them
    with pytest.raises(QGaussianDomainError, match="too far below 1"):
        analytic_moment(MomentSpec(b=0, powers=powers), -1e308, 2)


@pytest.mark.parametrize(
    "q,b,power",
    [(0.5, 0, 2), (0.5, 1, 2), (0.5, 2, 4), (0.0, 1, 2), (-1.0, 0, 4), (1.2, 1, 4), (1.1, 2, 2)],
)
def test_moment_matches_quadrature_1d(q, b, power):
    spec = MomentSpec(b=b, powers=(power,))
    assert analytic_moment(spec, q, 1) == pytest.approx(
        quad_moment_1d(q, b, power), rel=1e-7
    )


def test_moment_existence_boundary():
    # q < 1 requires b < 1 + 1/(1-q); at q = 0 that bound is exactly 2
    assert not moment_exists(MomentSpec(b=2, powers=(2, 2)), 0.0, 2)
    with pytest.raises(MomentDoesNotExistError):
        analytic_moment(MomentSpec(b=2, powers=(2, 2)), 0.0, 2)
    # q > 1 requires 1/(q-1) - N/2 > sum(b_i)/2 - b
    assert not moment_exists(MomentSpec(b=0, powers=(8, 0)), 1.4, 2)
    with pytest.raises(MomentDoesNotExistError):
        analytic_moment(MomentSpec(b=0, powers=(8, 0)), 1.4, 2)
    # the same spec can be fine at another shape
    assert moment_exists(MomentSpec(b=2, powers=(2, 2)), 0.5, 2)
    assert moment_exists(MomentSpec(b=2, powers=(2, 2)), 1.0, 2)


def test_moment_gaussian_limit_continuity():
    spec = MomentSpec(b=2, powers=(2, 0, 2))
    at_one = analytic_moment(spec, 1.0, 3)
    assert at_one == pytest.approx(1.0)  # product of two second moments
    for q in (1.0 - 1e-5, 1.0 + 1e-5):
        val = analytic_moment(spec, q, 3)
        assert abs(val - at_one) / at_one < 1e-3


def moment_values(draws, rhos, most=4):
    """The per-draw values of E[prod_i X_i^{powers[i]} / rho^b], as a
    function of a MomentSpec of powers up to ``most``: the draws' powers
    come from a table of draws**k built once by multiplication, not from a
    float pow per element per moment, and multiply column by column, as
    np.prod(draws ** powers, axis=1) does."""
    table = [np.ones_like(draws), draws]
    while len(table) <= most:
        table.append(table[-1] * draws)

    def values(spec):
        product = table[spec.powers[0]][:, 0].copy()
        for i, power in enumerate(spec.powers[1:], 1):
            product *= table[power][:, i]
        return product / rhos**spec.b

    return values


def test_moment_vs_monte_carlo_quick():
    q, n, count = 1.1, 2, 300_000
    draws, rhos = sample_standard_many(q, n, count, RngStream(15, 6))
    values = moment_values(draws, rhos)
    for spec in (MomentSpec(1, (2, 0)), MomentSpec(0, (2, 2)), MomentSpec(2, (0, 2))):
        vals = values(spec)
        se = vals.std(ddof=1) / math.sqrt(count)
        assert abs(vals.mean() - analytic_moment(spec, q, n)) < 5 * se


@pytest.mark.parametrize("q", [0.0, 0.5, 1.1])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_moment_grid_full_mc(q, n):
    # every b <= 2, total power <= 4 moment that exists, against 2e5 draws
    import itertools

    count = 200_000
    draws, rhos = sample_standard_many(q, n, count, RngStream(16, n * 10 + int(q * 10)))
    values = moment_values(draws, rhos)
    checked = 0
    for b in range(3):
        for powers in itertools.product(range(5), repeat=n):
            if sum(powers) > 4:
                continue
            spec = MomentSpec(b, powers)
            if not moment_exists(spec, q, n):
                with pytest.raises(MomentDoesNotExistError):
                    analytic_moment(spec, q, n)
                continue
            ref = analytic_moment(spec, q, n)
            vals = values(spec)
            se = vals.std(ddof=1) / math.sqrt(count)
            if se == 0.0:  # the constant b=0, all-zero-powers case
                assert vals.mean() == ref == 1.0
            else:
                assert abs(vals.mean() - ref) < 5 * se, (spec, vals.mean(), ref)
            checked += 1
    assert checked >= 10


def test_sampler_rejects_bad_domain():
    with pytest.raises(QGaussianDomainError):
        sample_standard(1.6, 4, RngStream(0, 0))
    with pytest.raises(QGaussianDomainError):
        sample_standard_many(-1e308, 4, 3, RngStream(0, 0))
