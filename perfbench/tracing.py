"""Spans and counts around qsmooth's public entry points, recorded from
outside the package.

A :class:`Tracer` replaces each entry point, as its callers look it up, with
a wrapper that adds the call's duration and count to per-key totals, and puts
every original back on exit.  Random streams are replaced by a subclass that
counts the uniforms drawn, and simulators are remembered so their event
counters can be read.  Totals cover the calls since the last :meth:`reset`.
"""

from __future__ import annotations

import time
from collections import defaultdict

import workloads
from workloads import bench, cli, optimizer, queueing, rng, smoothing


class Tracer:
    """``full=False`` wraps only the parent-side grid entry points
    (``cli.main`` and ``bench.run_experiment``), so pool workers forked
    while it is active run untraced code."""

    def __init__(self, full: bool = True):
        self.full = full
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.streams = []
        self.simulators = []
        self.cell_results = []

    # -- installing wrappers ---------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, key, fn):
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ns[key] += clock() - t0
                tracer.calls[key] += 1

        return wrapper

    def _wrap(self, owner, attr, key) -> None:
        self._patch(owner, attr, self._timed(key, owner.__dict__[attr]))

    def __enter__(self):
        tracer = self
        self._wrap(cli, "main", "cli.main")
        run_experiment = bench.run_experiment

        def recording_run_experiment(*args, **kwargs):
            results = run_experiment(*args, **kwargs)
            tracer.cell_results.extend(results)
            return results

        self._patch(bench, "run_experiment", self._timed("bench.run_experiment", recording_run_experiment))
        if not self.full:
            return self

        self._wrap(queueing.QueueSimulator, "step", "queueing.step")
        self._wrap(optimizer.QuadraticCostSimulator, "step", "optimizer.quadratic_step")
        self._wrap(optimizer, "sample_standard", "qgaussian.sample_standard")
        self._wrap(smoothing, "sample_standard_many", "qgaussian.sample_standard_many")
        self._wrap(optimizer, "run_gqsf2", "optimizer.run_gqsf2")
        self._wrap(bench, "run_gqsf2", "optimizer.run_gqsf2")
        self._wrap(smoothing, "smoothed_gradient_mc", "smoothing.smoothed")
        self._wrap(smoothing, "smoothed_value", "smoothing.smoothed")
        self._wrap(workloads, "sq_norm", "f")

        make_simulator = bench.make_simulator

        def remembering_make_simulator(*args, **kwargs):
            sim = make_simulator(*args, **kwargs)
            tracer.simulators.append(sim)
            return sim

        self._patch(bench, "make_simulator", remembering_make_simulator)

        base = rng.RngStream

        class CountingStream(base):
            __slots__ = ("uniforms",)

            def __init__(self, seed, stream_id=0):
                super().__init__(seed, stream_id)
                self.uniforms = 0
                tracer.streams.append(self)

            def uniform01(self, size=None):
                self.uniforms += 1 if size is None else size
                return base.uniform01(self, size)

        self._patch(rng, "RngStream", CountingStream)
        self._patch(bench, "RngStream", CountingStream)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- reading the totals ----------------------------------------------------

    def seconds(self, key: str) -> float:
        return self.ns[key] * 1e-9

    def uniforms(self) -> int:
        return sum(s.uniforms for s in self.streams)

    def arrivals(self) -> int:
        return sum(sim.state.arrivals_seen for sim in self.simulators)
