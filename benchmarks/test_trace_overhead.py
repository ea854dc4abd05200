"""Observability overhead budget: < 5% of flow wall time.

The instrumentation contract (see ``repro.obs``) is that hot loops
never touch the tracer, so a fully observed flow run should be
indistinguishable from an unobserved one.  "Fully observed" means the
whole stack the CLI turns on: spans, the per-stage resource profiler
(``obs.metrics.profiled`` -- CPU time + peak RSS per stage) and QoR
metric collection into an ambient :class:`~repro.obs.metrics.
MetricSet`.  The disabled arm still collects metrics (the flow always
publishes QoR) but skips spans and profiling, exactly like a CLI run
without ``--trace``.

This bench runs the same uncached flow repeatedly with observability
enabled and disabled, alternating which arm goes first so clock/cache
drift cancels, and compares the per-arm minima (the standard low-noise
estimator: the minimum is the run least disturbed by the machine).

The same budget applies to the live telemetry bus (``repro.obs.live``):
a persistent-pool sweep whose workers stream heartbeats, spans and
metric deltas over their job pipes into the parent hub must stay
within 5% of the identical sweep with ``REPRO_TELEMETRY`` unset.
"""

import os
import time

from conftest import save_results
from repro import obs
from repro.bench import mcnc_class_suite
from repro.exp.jobspec import JobSpec
from repro.exp.pool import shutdown_pools
from repro.exp.runner import ParallelRunner
from repro.flow import DesignFlow, FlowOptions
from repro.obs import live

ROUNDS = 7
MAX_OVERHEAD = 1.05


def _one_run(nets) -> float:
    t0 = time.perf_counter()
    for net in nets:
        DesignFlow(FlowOptions(seed=1, use_cache=False)).run(net)
    return time.perf_counter() - t0


def test_trace_overhead_under_five_percent():
    # A few seconds of flow work per sample, so scheduler jitter is
    # small relative to what is being measured.
    nets = mcnc_class_suite()[:3]
    _one_run(nets)  # warm imports and allocator before timing

    def timed(enabled: bool) -> float:
        obs.set_enabled(enabled)
        with obs.capture() as tr, obs.metrics.collect() as ms:
            seconds = _one_run(nets)
        assert bool(len(tr)) == enabled
        assert ms.get("flow.luts") is not None   # QoR always published
        # Profiling must ride with spans: present when traced only.
        assert (ms.get("flow.cpu_s", stage="place_route")
                is not None) == enabled
        return seconds

    traced, untraced = [], []
    try:
        for i in range(ROUNDS):
            first_enabled = i % 2 == 0
            for enabled in (first_enabled, not first_enabled):
                (traced if enabled else untraced).append(timed(enabled))
    finally:
        obs.set_enabled(True)

    ratio = min(traced) / min(untraced)
    save_results("trace_overhead", {
        "traced_s": traced, "untraced_s": untraced,
        "min_ratio": round(ratio, 4)})
    print(f"\ntraced min   {min(traced):.3f}s\n"
          f"untraced min {min(untraced):.3f}s\n"
          f"ratio        {ratio:.3f}")
    assert ratio < MAX_OVERHEAD, (
        f"tracing overhead {100 * (ratio - 1):.1f}% exceeds "
        f"{100 * (MAX_OVERHEAD - 1):.0f}% budget")


def test_live_streaming_overhead_under_five_percent(tmp_path):
    # A pooled sweep of compute-bound selftest jobs, sized so each arm
    # takes a second or two.  Enablement rides each dispatch's worker
    # settings (the parent's hub decides whether its workers report),
    # so one warm pool serves both arms and worker start-up cost
    # cancels out.
    specs = [JobSpec(kind="selftest",
                     params={"x": float(i), "array_len": 1_500_000})
             for i in range(60)]
    runner = ParallelRunner(jobs=4, use_cache=False)

    def timed(enabled: bool) -> float:
        if enabled:
            os.environ[live.ENV_TELEMETRY] = str(tmp_path / "live")
        else:
            os.environ.pop(live.ENV_TELEMETRY, None)
        t0 = time.perf_counter()
        results = runner.run(specs)
        seconds = time.perf_counter() - t0
        assert all(r.ok for r in results)
        return seconds

    streaming, quiet = [], []
    try:
        timed(True)       # warm the pool, hub and emitter threads
        timed(False)
        for i in range(ROUNDS):
            first_enabled = i % 2 == 0
            for enabled in (first_enabled, not first_enabled):
                (streaming if enabled else quiet).append(timed(enabled))
        # The streaming arm really streamed: its session snapshot saw
        # every job of the last enabled batch.
        snap = live.load_sessions(tmp_path / "live")[0]
        assert snap["batch"]["completed"] == len(specs)
    finally:
        os.environ.pop(live.ENV_TELEMETRY, None)
        live.shutdown()
        shutdown_pools()

    ratio = min(streaming) / min(quiet)
    save_results("live_streaming_overhead", {
        "streaming_s": streaming, "quiet_s": quiet,
        "min_ratio": round(ratio, 4)})
    print(f"\nstreaming min {min(streaming):.3f}s\n"
          f"quiet min     {min(quiet):.3f}s\n"
          f"ratio         {ratio:.3f}")
    assert ratio < MAX_OVERHEAD, (
        f"live streaming overhead {100 * (ratio - 1):.1f}% exceeds "
        f"{100 * (MAX_OVERHEAD - 1):.0f}% budget")
