"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria are asserted at
their stated tolerances; the full queueing benchmark (criterion 7) runs once
in a shared fixture and its sub-criteria are asserted individually.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from qsmooth.bench import config_from_dict, emit_csv, run_experiment
from qsmooth.optimizer import (
    BoxConstraint,
    QuadraticCostSimulator,
    StepSchedule,
    run_gqsf1,
    run_gqsf2,
)
from qsmooth.qgaussian import (
    MomentDoesNotExistError,
    MomentSpec,
    QKernel,
    analytic_moment,
    density,
    moment_exists,
    sample_standard_many,
    support_radius_sq,
)
from qsmooth.rng import RngStream
from qsmooth.smoothing import sf_term_one_batch, sf_term_two_batch

from test_qgaussian import moment_values, quadrature_cdf_1d


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")


# -- 1. moment oracle agreement -------------------------------------------------

def _criterion1_specs(n):
    second = tuple(2 if i == 0 else 0 for i in range(n))
    double = (4,) if n == 1 else tuple(2 if i < 2 else 0 for i in range(n))
    odd1 = tuple(1 if i == 0 else 0 for i in range(n))
    odd2 = (3,) if n == 1 else (1, 2) + (0,) * (n - 2)
    return [
        MomentSpec(0, second),
        MomentSpec(1, second),
        MomentSpec(2, double),
        MomentSpec(0, odd1),
        MomentSpec(1, odd2),
    ]


def test_criterion_1_moment_oracle_agreement():
    t0 = time.monotonic()
    count = 1_000_000
    failures = []
    checked = 0
    for q in (0.0, 0.5, 1.1):
        for n in (1, 2, 4):
            # closed-form spot value, exact
            second = tuple(2 if i == 0 else 0 for i in range(n))
            got = analytic_moment(MomentSpec(1, second), q, n)
            assert got == pytest.approx((n + 2 - n * q) / 2.0, rel=1e-12)

            draws, rhos = sample_standard_many(
                q, n, count, RngStream(101, int(q * 10) * 10 + n)
            )
            values = moment_values(draws, rhos)
            for spec in _criterion1_specs(n):
                if not moment_exists(spec, q, n):
                    with pytest.raises(MomentDoesNotExistError):
                        analytic_moment(spec, q, n)
                    continue
                ref = analytic_moment(spec, q, n)
                vals = values(spec)
                se = vals.std(ddof=1) / math.sqrt(count)
                dev = abs(vals.mean() - ref)
                checked += 1
                if dev > 4.0 * se:
                    failures.append((q, n, spec, dev / se))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    report(1, "moment oracle agreement", ok,
           f"{checked} existing cells within 4 SE, {elapsed:.0f}s")
    assert not failures, failures
    assert elapsed < 120.0


# -- 2. density normalization ----------------------------------------------------

def test_criterion_2_density_normalization():
    worst1 = 0.0
    for q in (-1.0, 0.0, 0.5, 1.0, 1.2, 1.4):
        kernel = QKernel(q=q, beta=1.0, dim=1)
        if q < 1.0:
            r = math.sqrt(support_radius_sq(q, 1))
            lo, hi = -r, r
        else:
            lo, hi = -np.inf, np.inf
        val, _ = integrate.quad(
            lambda x: density(np.array([x]), kernel), lo, hi, limit=300
        )
        worst1 = max(worst1, abs(val - 1.0))
    worst2 = 0.0
    for q in (0.0, 1.2):
        kernel = QKernel(q=q, beta=1.0, dim=2)
        hi = math.sqrt(support_radius_sq(q, 2)) if q < 1.0 else np.inf
        val, _ = integrate.quad(
            lambda r: 2.0 * math.pi * r * density(np.array([r, 0.0]), kernel),
            0.0, hi, limit=300,
        )
        worst2 = max(worst2, abs(val - 1.0))
    ok = worst1 <= 1e-6 and worst2 <= 1e-4
    report(2, "density normalization", ok,
           f"N=1 worst |int-1|={worst1:.2e} (tol 1e-6), N=2 worst={worst2:.2e} (tol 1e-4)")
    assert worst1 <= 1e-6
    assert worst2 <= 1e-4


# -- 3. sampler law ---------------------------------------------------------------

def test_criterion_3_sampler_ks():
    count = 1_000_000
    pvals = {}
    for q in (-1.0, 0.0, 0.5, 1.0, 1.2, 1.4):
        draws, _ = sample_standard_many(q, 1, count, RngStream(103, int((q + 2) * 10)))
        cdf = quadrature_cdf_1d(q)
        pvals[q] = stats.kstest(draws[:, 0], cdf).pvalue
    ok = all(p > 0.01 for p in pvals.values())
    report(3, "sampler law (KS vs quadrature CDF)", ok,
           " ".join(f"q={q}:p={p:.3f}" for q, p in pvals.items()))
    for q, p in pvals.items():
        assert p > 0.01, f"KS rejected at q={q}: p={p}"


# -- 4. estimator unbiasedness on quadratics --------------------------------------

A_MAT = np.array(
    [
        [1.2, 0.3, 0.0, 0.1],
        [0.3, 0.8, 0.2, 0.0],
        [0.0, 0.2, 1.5, 0.4],
        [0.1, 0.0, 0.4, 0.9],
    ]
)
C_VEC = np.array([0.2, -0.1, 0.3, 0.0])
THETA4 = np.array([0.5, 0.2, -0.3, 0.4])


def test_criterion_4_quadratic_unbiasedness():
    assert np.min(np.linalg.eigvalsh(A_MAT)) > 0  # J >= 0 everywhere
    count, beta = 1_000_000, 0.01
    grad_true = 2.0 * A_MAT @ (THETA4 - C_VEC)

    def j_of(pts):
        d = pts - C_VEC[None, :]
        return np.einsum("ij,jk,ik->i", d, A_MAT, d)

    worst = 0.0
    for q in (0.0, 0.5, 1.0, 1.2):
        kernel = QKernel(q=q, beta=beta, dim=4)
        etas, rhos = sample_standard_many(q, 4, count, RngStream(104, int(q * 10)))
        costs_p = j_of(THETA4[None, :] + beta * etas)
        costs_m = j_of(THETA4[None, :] - beta * etas)
        for terms in (
            sf_term_one_batch(etas, rhos, costs_p, kernel),
            sf_term_two_batch(etas, rhos, costs_p, costs_m, kernel),
        ):
            se = terms.std(axis=0, ddof=1) / math.sqrt(count)
            z = np.abs(terms.mean(axis=0) - grad_true) / se
            worst = max(worst, float(z.max()))
            assert np.all(z < 4.0), (q, z)
    report(4, "quadratic unbiasedness", True,
           f"both estimators, q in (0,0.5,1,1.2): worst |z| = {worst:.2f} < 4")


# -- 5. bias scaling --------------------------------------------------------------

def test_criterion_5_bias_scaling():
    # J(t) = t^4 in one dimension; the measured statistic subtracts the
    # zeroth- and first-order terms whose expectations are known exactly
    # (E[eta/rho] = 0, E[eta^2/rho] = c/2), so its mean IS the estimator
    # bias, measurable at 1e7 draws without the J(theta)/beta noise.
    q, theta, count = 0.5, 0.5, 10_000_000
    c = 3.0 - q
    biases = {}
    for beta in (0.05, 0.025):
        etas, rhos = sample_standard_many(q, 1, count, RngStream(105, int(beta * 1000)))
        e = etas[:, 0]
        v = (2.0 / (beta * c)) * (e / rhos) * (
            (theta + beta * e) ** 4 - theta**4 - 4.0 * theta**3 * beta * e
        )
        se = v.std(ddof=1) / math.sqrt(count)
        biases[beta] = (abs(float(v.mean())), se)
    ratio = biases[0.05][0] / biases[0.025][0]
    ok = ratio >= 1.8
    report(5, "bias scaling o(beta)", ok,
           f"|bias(0.05)|={biases[0.05][0]:.5f}, |bias(0.025)|={biases[0.025][0]:.5f}, "
           f"ratio={ratio:.2f} >= 1.8")
    assert ratio >= 1.8
    # sanity: each measured bias agrees with the closed-form expansion term
    exact = analytic_moment(MomentSpec(1, (4,)), q, 1)
    for beta, (bias, se) in biases.items():
        assert abs(bias - 8.0 * theta * beta**2 / c * exact) < 6.0 * se


# -- 6. synthetic end-to-end ------------------------------------------------------

def test_criterion_6_synthetic_end_to_end():
    t0 = time.monotonic()
    box = BoxConstraint.cube(0.1, 0.6, 4)
    target = np.full(4, 0.3)
    kernel = QKernel(q=0.8, beta=0.005, dim=4)
    schedule = StepSchedule(0.75)
    distances = []
    for rep in range(20):
        res = run_gqsf2(
            QuadraticCostSimulator(target), QuadraticCostSimulator(target),
            kernel, box, schedule, 10_000, 10, np.array([0.1, 0.1, 0.6, 0.6]),
            RngStream(106, rep), target=target,
        )
        distances.append(res.distance)
    elapsed = time.monotonic() - t0
    ok = all(d < 0.02 for d in distances) and elapsed < 60.0
    report(6, "synthetic end-to-end", ok,
           f"20/20 runs, max distance {max(distances):.4f} < 0.02, {elapsed:.0f}s < 60s")
    assert all(d < 0.02 for d in distances), distances
    assert elapsed < 60.0


# -- 7. paper benchmark, desk scale ------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_results():
    base = dict(beta_grid=[0.005], gamma=0.75, M=10_000, L=100,
                replications=20, base_seed=20260810, system="mg1-4d")
    t0 = time.monotonic()
    sf2 = run_experiment(
        config_from_dict(dict(algorithm="gqsf2", q_grid=[0.8, 1.49], **base)),
        workers=2,
    )
    sf1 = run_experiment(
        config_from_dict(dict(algorithm="gqsf1", q_grid=[0.8], **base)), workers=2
    )
    elapsed = time.monotonic() - t0
    return {"sf2_08": sf2[0], "sf2_149": sf2[1], "sf1_08": sf1[0], "seconds": elapsed}


def test_criterion_7a_benchmark_gqsf2_mean(benchmark_results):
    cell = benchmark_results["sf2_08"]
    ok = cell.mean_distance < 5e-3
    report("7a", "benchmark Gq-SF2 q=0.8", ok,
           f"mean distance {cell.mean_distance:.5f} (required < 0.005). "
           "Known limitation: per-observation cost noise (std ~ cost level) "
           "is amplified by 1/beta = 200 into the fast iterate, whose "
           "measured std ~ 2/coordinate bounds the attainable distance near "
           "0.02-0.1 under the 1/n, 1/n^0.75 schedules; see README.")
    assert cell.mean_distance < 5e-3


def test_criterion_7b_benchmark_gqsf1_mean(benchmark_results):
    cell = benchmark_results["sf1_08"]
    ok = cell.mean_distance < 2e-2
    report("7b", "benchmark Gq-SF1 q=0.8", ok,
           f"mean distance {cell.mean_distance:.5f} (required < 0.02). "
           "Known limitation: the one-simulation estimator carries the full "
           "cost level in its noise (measured fast-iterate std ~ 10/coordinate "
           "at the target); see README.")
    assert cell.mean_distance < 2e-2


def test_criterion_7c_benchmark_ordering(benchmark_results):
    sf2, sf1 = benchmark_results["sf2_08"], benchmark_results["sf1_08"]
    ok = sf2.mean_distance <= sf1.mean_distance
    report("7c", "benchmark ordering SF2 <= SF1", ok,
           f"{sf2.mean_distance:.5f} <= {sf1.mean_distance:.5f}")
    assert sf2.mean_distance <= sf1.mean_distance


def test_criterion_7d_benchmark_degradation(benchmark_results):
    good, bad = benchmark_results["sf2_08"], benchmark_results["sf2_149"]
    ratio = bad.mean_distance / good.mean_distance
    ok = ratio > 5.0
    report("7d", "benchmark degradation at q=1.49", ok,
           f"mean {bad.mean_distance:.5f} vs {good.mean_distance:.5f}, "
           f"ratio {ratio:.2f} (required > 5). The q=0.8 baseline sits on the "
           "noise floor described under 7a, which compresses the ratio; the "
           "absolute degradation at q=1.49 is still present; see README.")
    assert ratio > 5.0


def test_criterion_7e_benchmark_runtime(benchmark_results):
    elapsed = benchmark_results["seconds"]
    ok = elapsed < 900.0
    report("7e", "benchmark runtime budget", ok, f"{elapsed:.0f}s < 900s")
    assert elapsed < 900.0


# -- 8. Gaussian reduction ----------------------------------------------------------

def test_criterion_8_gaussian_reduction():
    stream = RngStream(108, 0)
    for _ in range(1000):
        n = int(stream.uniform01() * 6) + 1
        beta = 0.001 + stream.uniform01()
        kernel = QKernel(q=1.0, beta=beta, dim=n)
        eta = stream.standard_normal(n)
        h = stream.uniform01() * 100
        hp, hm = stream.uniform01() * 100, stream.uniform01() * 100
        etas, rhos = eta[None, :], np.ones(1)
        one = sf_term_one_batch(etas, rhos, np.array([h]), kernel)[0]
        two = sf_term_two_batch(etas, rhos, np.array([hp]), np.array([hm]), kernel)[0]
        assert np.array_equal(one, eta * (h / beta))
        assert np.array_equal(two, eta * ((hp - hm) / (2.0 * beta)))
        np.testing.assert_allclose(one, eta * h / beta, rtol=5e-16)
        np.testing.assert_allclose(two, eta * (hp - hm) / (2.0 * beta), rtol=5e-16)
    report(8, "Gaussian reduction at q=1", True,
           "1000 random inputs bit-equal to eta*h/beta and eta*(h+-h-)/(2beta)")


# -- 9. feasibility and determinism ---------------------------------------------------

class _Unit:
    def step(self, control):
        return 1.0


def test_criterion_9_feasibility_and_determinism():
    box = BoxConstraint.cube(0.1, 0.6, 4)
    violations = 0
    for q, beta in ((0.5, 5.0), (1.2, 2.0), (-1.0, 10.0)):
        kernel = QKernel(q=q, beta=beta, dim=4)
        res = run_gqsf1(
            _Unit(), kernel, box, StepSchedule(0.51), 1000, 2,
            np.full(4, 0.3), RngStream(109, int(q * 10)), record_every=1,
        )
        for point in res.trajectory:
            if not (np.all(point.theta >= 0.1) and np.all(point.theta <= 0.6)):
                violations += 1

    cfg = config_from_dict(
        dict(algorithm="gqsf2", q_grid=[0.5, 1.2], beta_grid=[0.01], gamma=0.75,
             M=150, L=5, replications=2, base_seed=11, system="mg1-4d")
    )
    csv_a = emit_csv(run_experiment(cfg, workers=1), include_timing=False)
    csv_b = emit_csv(run_experiment(cfg, workers=2), include_timing=False)
    identical = csv_a.encode() == csv_b.encode()
    ok = violations == 0 and identical
    report(9, "feasibility & determinism", ok,
           f"{violations} box violations in 3x1000-iteration fuzz; CSV byte-identical={identical}")
    assert violations == 0
    assert identical
