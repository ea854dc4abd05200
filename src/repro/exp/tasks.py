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
``submit``            one job-server request through :func:`repro.api.
                      submit`; returns ``Result.to_json()``
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
    deterministic large payload to push through a worker's result
    pipe.  ``sleep_s`` pads the job's wall time --
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
# The job server's requests
# ---------------------------------------------------------------------------

@task("submit")
def _submit(request, config) -> dict:
    """One service job: ``api.submit`` on a :class:`~repro.api.JobRequest`.

    Runs in a pool worker of the job server with the server's
    :class:`~repro.api.Config`, minus its pool settings: experiments
    run inline (``jobs=1``), since a daemonic pool worker cannot have
    children, and the server's scheduler already holds the job to
    ``job_timeout_s``.
    """
    from dataclasses import replace
    from .. import api
    cfg = replace(config, jobs=1, job_timeout_s=None)
    return api.submit(request, config=cfg).to_json()
