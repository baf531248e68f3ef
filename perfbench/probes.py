"""Per-call costs of single layers, timed in tight loops outside any workload.

The probes reproduce the ad-hoc baseline the roadmap recorded before this
benchmark existed (``BASELINE``), so a drift in the harness or the machine
shows up against known figures.
"""

from __future__ import annotations

import statistics
import time

from workloads import qgaussian, queueing, rng

# metric -> (low, high) of the earlier ad-hoc measurement on a 2-core host
BASELINE = {
    "rng.uniform01_ns": (210.0, 210.0),
    "rng.chi_squared_ns": (1240.0, 1240.0),
    "qgaussian.sample_q08_n4_us": (17.9, 17.9),
    "queueing.obs_probe_us": (2.2, 2.7),
}
# a probe agrees with the baseline within this share of the baseline range
AGREEMENT = 0.25
REPEATS = 5


def _per_call(fn, calls: int) -> float:
    """Median seconds per call of ``fn()`` over REPEATS timed loops."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def run_probes(scale: float = 1.0) -> dict[str, float]:
    def n(calls):
        return max(10, int(calls * scale))

    stream = rng.RngStream(1, rng.derive_stream_id("probe"))
    batch = n(1 << 16)
    out = {
        "rng.uniform01_ns": 1e9 * _per_call(stream.uniform01, n(200_000)),
        "rng.standard_normal_ns": 1e9 * _per_call(stream.standard_normal, n(100_000)),
        "rng.chi_squared_ns": 1e9 * _per_call(lambda: stream.chi_squared(12.0), n(30_000)),
        "rng.chi_squared_batch_ns_per_draw": 1e9
        * _per_call(lambda: stream.chi_squared(12.0, size=batch), 3)
        / batch,
        "qgaussian.many_ns_per_draw": 1e9
        * _per_call(lambda: qgaussian.sample_standard_many(0.5, 2, batch, stream), 3)
        / batch,
        "qgaussian.sample_q08_n4_us": 1e6
        * _per_call(lambda: qgaussian.sample_standard(0.8, 4, stream), n(5000)),
    }
    # As in a replication: a new control every L = 100 observations, on
    # mg1-4d between its start and its target.
    loaded = queueing.preset("mg1-4d")
    sim = queueing.make_simulator(loaded.network, rng.RngStream(1, rng.derive_stream_id("queue")))
    controls = [loaded.theta0, 0.5 * (loaded.theta0 + loaded.network.theta_target)]

    def observe_100():
        controls.reverse()
        for _ in range(100):
            sim.step(controls[0])

    for _ in range(n(200)):  # leave the empty start-up state
        observe_100()
    out["queueing.obs_probe_us"] = 1e4 * _per_call(observe_100, n(500))
    return out


def compare_to_baseline(probes: dict[str, float]) -> list[str]:
    """One line per baselined probe, flagging those that now disagree."""
    lines = []
    for name, (low, high) in BASELINE.items():
        value = probes[name]
        ok = low * (1 - AGREEMENT) <= value <= high * (1 + AGREEMENT)
        span = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        verdict = "agrees" if ok else "DISAGREES"
        lines.append(f"{name}: {value:.4g} vs baseline {span} -> {verdict}")
    return lines
