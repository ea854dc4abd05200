"""Registered job kinds the engine knows how to execute.

Each task is a thin, picklable adapter from a flat parameter dict to
one library call.  Imports happen inside the task bodies so this module
stays import-cycle free (the experiment modules import the engine, the
engine only reaches back at execution time) and so spawned workers can
rebuild the registry from a bare interpreter.

Kinds
-----
``detff_batch``       Table 1 flip-flops, one batched transient
``clock_cells_batch`` Table 2/3 clock-network energies (J), one batched run
``fig_sweep_batch``   a Fig. 8-10 / tri-state sizing grid (or any subset
                      of its points), one batched run
``flow``              one complete VHDL-to-bitstream flow (condensed)
``selftest``          trivial built-in probe for engine tests
"""

from __future__ import annotations

from typing import Any, Callable

from .jobspec import JobSpec

__all__ = ["task", "execute", "registered_kinds"]

_REGISTRY: dict[str, Callable[..., Any]] = {}


def task(kind: str):
    """Register ``fn`` as the implementation of job kind ``kind``."""
    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        _REGISTRY[kind] = fn
        return fn
    return decorate


def registered_kinds() -> list[str]:
    return sorted(_REGISTRY)


def execute(spec: JobSpec) -> Any:
    """Run the task a spec names, with its parameters."""
    try:
        fn = _REGISTRY[spec.kind]
    except KeyError:
        raise KeyError(f"unknown job kind {spec.kind!r}; "
                       f"registered: {registered_kinds()}") from None
    return fn(**spec.params)


# ---------------------------------------------------------------------------
# Engine self-test
# ---------------------------------------------------------------------------

@task("selftest")
def _selftest(x: float = 1.0, fail: bool = False,
              array_len: int = 0, sleep_s: float = 0.0):
    """Built-in probe: doubles ``x`` inside a traced, metered span.

    Registered here (not in a test module) so it exists in ``spawn``
    workers, which import only :mod:`repro.exp.tasks` -- test-module
    registrations never reach them.  Emits one ``selftest.work`` span
    and one ``exp.selftest`` counter tick so engine tests can assert
    that worker observability survives any start method.

    With ``array_len > 0`` the result is a float64 array of that length
    (scaled by ``x``) instead of a scalar, giving engine tests a
    deterministic large payload to push through the pool's
    shared-memory transport.  ``sleep_s`` pads the job's wall time --
    live-telemetry tests and the CI smoke sweep use it to keep jobs
    observably in flight (sleeping keeps heartbeats coming, so it
    models a *slow* job, never a hung worker).
    """
    import time
    from .. import obs
    with obs.span("selftest.work", x=x):
        if fail:
            raise RuntimeError("selftest asked to fail")
        if sleep_s > 0:
            time.sleep(sleep_s)
        obs.metrics.metric_set().counter("exp.selftest")
        if array_len:
            import numpy as np
            return np.arange(array_len, dtype=np.float64) * x
        return 2.0 * x


# ---------------------------------------------------------------------------
# Platform-side experiments (tables and figures)
# ---------------------------------------------------------------------------

@task("detff_batch")
def _detff_batch(names, tech=None, dt: float = 1e-12) -> list:
    """All requested DETFFs, one batched transient run."""
    from ..circuit.experiments import characterize_detff_batch
    from ..circuit.technology import STM018
    return characterize_detff_batch(list(names), tech=tech or STM018,
                                    dt=dt)


@task("clock_cells_batch")
def _clock_cells_batch(configs, dt: float = 1e-12) -> list:
    """Several clock-network configurations, one batched run."""
    from ..circuit.experiments import clock_cell_energies_batch
    return clock_cell_energies_batch([dict(cfg) for cfg in configs],
                                     dt=dt)


@task("fig_sweep_batch")
def _fig_sweep_batch(points, *, metal_width: float = 1.0,
                     metal_spacing: float = 1.0,
                     switch_type: str = "pass", tech=None,
                     dt: float = 2e-12) -> list:
    """A whole (width, wire-length) sizing grid, one batched run."""
    from ..circuit.interconnect import measure_routing_batch
    from ..circuit.technology import STM018
    return measure_routing_batch(
        [(w, int(length)) for w, length in points],
        metal_width=metal_width, metal_spacing=metal_spacing,
        switch_type=switch_type, tech=tech or STM018, dt=dt)


# ---------------------------------------------------------------------------
# CAD-flow benchmarks
# ---------------------------------------------------------------------------

@task("flow")
def _flow(vhdl: str, *, seed: int = 1, place_effort: float = 1.0,
          min_channel_width: bool = False, gated_clock: bool = True,
          f_clk_hz: float | None = None, arch=None,
          use_cache: bool = True) -> dict[str, Any]:
    """Run the full flow; return a condensed, picklable QoR record."""
    from ..arch import DEFAULT_ARCH
    from ..flow.flow import FlowOptions, _run_flow
    options = FlowOptions(arch=arch or DEFAULT_ARCH, seed=seed,
                          place_effort=place_effort,
                          min_channel_width=min_channel_width,
                          gated_clock=gated_clock, f_clk_hz=f_clk_hz,
                          use_cache=use_cache)
    res = _run_flow(vhdl, options)
    return {
        "summary": res.summary(),
        "bitstream": res.bitstream,
        "placement": {block: (site.x, site.y, site.sub)
                      for block, site in res.placement.loc.items()},
        "stage_seconds": dict(res.stage_seconds),
    }
