"""Typed QoR metric registry and ambient metric collection.

Spans (:mod:`repro.obs.trace`) answer *where the time went*; this
module answers *how good the result was*.  Every flow stage, the
placer/router, the timing/power models and the experiment engine
publish into an ambient :class:`MetricSet`:

* a :class:`MetricSpec` declares a metric once -- kind (``counter`` /
  ``gauge`` / ``dist``), unit, which direction is better, and the
  relative tolerance inside which run-to-run drift is noise;
* :func:`publish` validates a value against its spec and accumulates
  it (counters sum, gauges keep the last write, distributions keep
  count/min/max/total);
* :func:`collect` installs a fresh set for a block, mirroring
  :func:`repro.obs.trace.capture`, so one CLI invocation gathers one
  coherent metric set to persist into the run DB.

The registry is the single source of truth for regression gating: the
``compare`` engine (:mod:`repro.obs.compare`) reads ``direction`` /
``rel_tol`` / ``gate`` off the spec, so adding a metric here makes it
tracked, rendered and gated everywhere at once.

Resource profiling
------------------
:func:`profiled` is the lightweight per-stage profiler: two clock
reads plus one ``getrusage`` call per stage, attaching ``cpu_s`` and
``peak_rss_kb`` to the stage's span and publishing them as metrics.
It deliberately no-ops when tracing is disabled so the whole
observability layer stays inside the flow's <5 % overhead budget
(``benchmarks/test_trace_overhead.py`` measures spans and profiling
together).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .trace import NOOP_SPAN

__all__ = [
    "COUNTER", "DIST", "GAUGE", "FLOW_SUMMARY_METRICS", "MetricRegistry",
    "MetricSet", "MetricSpec", "REGISTRY", "annotate", "collect",
    "counter", "gauge", "metric_set", "peak_rss_kb", "profiled",
    "publish", "publish_many",
]

#: Metric kinds.  ``counter`` accumulates non-negative increments,
#: ``gauge`` keeps the last written value, ``dist`` summarises many
#: samples (count / min / max / total).
COUNTER, GAUGE, DIST = "counter", "gauge", "dist"
_KINDS = (COUNTER, GAUGE, DIST)

#: Directions: which way is *better* for regression classification.
_DIRECTIONS = ("lower", "higher", "none")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: type, unit and regression policy.

    ``gate`` marks the metric as regression-gating: ``repro-flow
    compare`` exits non-zero when a gated metric moves in its bad
    direction by more than ``rel_tol``.  Timing/resource metrics stay
    ungated (machine-dependent noise); QoR metrics gate.
    """

    name: str
    kind: str = GAUGE
    unit: str = ""
    description: str = ""
    direction: str = "none"   # "lower" | "higher" | "none"
    rel_tol: float = 0.05
    gate: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("metric name must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(f"metric {self.name!r}: unknown kind "
                             f"{self.kind!r} (expected one of {_KINDS})")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"metric {self.name!r}: unknown direction "
                             f"{self.direction!r}")
        if self.rel_tol < 0:
            raise ValueError(f"metric {self.name!r}: negative rel_tol")


class MetricRegistry:
    """Name -> :class:`MetricSpec`; the typed vocabulary of the flow."""

    def __init__(self):
        self._specs: dict[str, MetricSpec] = {}

    def register(self, spec: MetricSpec | None = None,
                 **kwargs: Any) -> MetricSpec:
        """Add a spec (idempotent for identical re-registration)."""
        if spec is None:
            spec = MetricSpec(**kwargs)
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise ValueError(
                f"metric {spec.name!r} already registered with a "
                f"different definition: {existing} != {spec}")
        self._specs[spec.name] = spec
        return spec

    def spec_for(self, name: str) -> MetricSpec | None:
        return self._specs.get(name)

    def specs(self, prefix: str = "") -> list[MetricSpec]:
        return [s for n, s in sorted(self._specs.items())
                if n.startswith(prefix)]

    def names(self, prefix: str = "") -> list[str]:
        return [s.name for s in self.specs(prefix)]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


@dataclass
class _Sample:
    """Accumulated state of one (name, stage) metric."""

    name: str
    stage: str
    kind: str
    unit: str
    last: float = 0.0
    n: int = 0
    total: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf

    def add(self, value: float) -> None:
        self.last = value
        self.n += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    @property
    def value(self) -> float:
        """The representative scalar: counters sum, gauges keep the
        last write, distributions report the mean."""
        if self.kind == COUNTER:
            return self.total
        if self.kind == DIST:
            return self.total / self.n if self.n else 0.0
        return self.last

    def row(self) -> dict[str, Any]:
        return {"name": self.name, "stage": self.stage,
                "kind": self.kind, "unit": self.unit,
                "value": self.value, "last": self.last, "n": self.n,
                "total": self.total,
                "min": self.vmin if self.n else 0.0,
                "max": self.vmax if self.n else 0.0}


def metric_key(name: str, stage: str = "") -> str:
    """Display/storage key: ``name`` or ``name[stage]``."""
    return f"{name}[{stage}]" if stage else name


class MetricSet:
    """One run's worth of published metrics, keyed by (name, stage)."""

    def __init__(self, registry: "MetricRegistry | None" = None):
        # Resolved lazily: the module-level default set is constructed
        # before the REGISTRY vocabulary below exists.
        self._registry = registry
        self._samples: dict[tuple[str, str], _Sample] = {}
        #: Free-form run context (circuit, seed, label, ...) set by
        #: :func:`annotate`; persisted alongside the metrics.
        self.context: dict[str, Any] = {}

    @property
    def registry(self) -> "MetricRegistry":
        return self._registry if self._registry is not None else REGISTRY

    # -- publishing ----------------------------------------------------
    def publish(self, name: str, value: float, *, stage: str = "",
                kind: str | None = None, unit: str | None = None) -> None:
        """Record one observation, validated against the registry.

        Unregistered names are accepted as implicit gauges (or the
        explicit ``kind``); registered names must not contradict their
        spec -- publishing a counter value into a gauge is a bug worth
        failing loudly on.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"metric {name!r}: value must be numeric, "
                            f"got {type(value).__name__}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r}: non-finite value {value!r}")
        spec = self.registry.spec_for(name)
        if spec is not None:
            if kind is not None and kind != spec.kind:
                raise ValueError(
                    f"metric {name!r} is registered as {spec.kind!r}, "
                    f"published as {kind!r}")
            kind = spec.kind
            unit = spec.unit if unit is None else unit
        kind = kind or GAUGE
        if kind not in _KINDS:
            raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
        if kind == COUNTER and value < 0:
            raise ValueError(f"counter {name!r}: negative increment "
                             f"{value!r}")
        key = (name, stage)
        sample = self._samples.get(key)
        if sample is None:
            sample = self._samples[key] = _Sample(
                name=name, stage=stage, kind=kind, unit=unit or "")
        sample.add(value)

    def counter(self, name: str, n: float = 1, *, stage: str = "") -> None:
        self.publish(name, n, stage=stage, kind=COUNTER)

    def gauge(self, name: str, value: float, *, stage: str = "") -> None:
        self.publish(name, value, stage=stage, kind=GAUGE)

    def dist(self, name: str, value: float, *, stage: str = "") -> None:
        self.publish(name, value, stage=stage, kind=DIST)

    # -- access / merge ------------------------------------------------
    def export(self) -> list[dict[str, Any]]:
        """JSONL/DB-ready rows, sorted by (name, stage)."""
        return [self._samples[k].row()
                for k in sorted(self._samples)]

    def merge(self, rows: Iterable[dict[str, Any]]) -> None:
        """Fold exported rows from another set (e.g. a worker process).

        Counters and distribution aggregates add; gauges last-write-win.
        """
        for row in rows:
            key = (row["name"], row.get("stage", ""))
            sample = self._samples.get(key)
            if sample is None:
                sample = self._samples[key] = _Sample(
                    name=row["name"], stage=row.get("stage", ""),
                    kind=row.get("kind", GAUGE),
                    unit=row.get("unit", ""))
            n = int(row.get("n", 1))
            if n <= 0:
                continue
            sample.last = float(row.get("last", row.get("value", 0.0)))
            sample.n += n
            sample.total += float(row.get("total", row.get("value", 0.0)))
            sample.vmin = min(sample.vmin, float(row.get("min", 0.0)))
            sample.vmax = max(sample.vmax, float(row.get("max", 0.0)))

    def value(self, name: str, stage: str = "") -> float:
        return self._samples[(name, stage)].value

    def get(self, name: str, stage: str = "",
            default: float | None = None) -> float | None:
        sample = self._samples.get((name, stage))
        return sample.value if sample is not None else default

    def as_dict(self) -> dict[str, float]:
        """``{key: representative value}`` for comparison/reporting."""
        return {metric_key(s.name, s.stage): s.value
                for s in self._samples.values()}

    def clear(self) -> None:
        self._samples.clear()
        self.context.clear()

    def __len__(self) -> int:
        return len(self._samples)

    def __contains__(self, name: str) -> bool:
        return any(k[0] == name for k in self._samples)


# ---------------------------------------------------------------------------
# The ambient metric set (mirrors trace.capture / trace.tracer)
# ---------------------------------------------------------------------------

_current_metrics: contextvars.ContextVar["MetricSet | None"] = \
    contextvars.ContextVar("repro_obs_metrics", default=None)
_default_metrics = MetricSet()


def metric_set() -> MetricSet:
    """The ambient set: the installed one, else the process global."""
    ms = _current_metrics.get()
    return ms if ms is not None else _default_metrics


@contextlib.contextmanager
def collect(ms: MetricSet | None = None) -> Iterator[MetricSet]:
    """Install ``ms`` (or a fresh set) as ambient for the block."""
    ms = ms if ms is not None else MetricSet()
    token = _current_metrics.set(ms)
    try:
        yield ms
    finally:
        _current_metrics.reset(token)


def publish(name: str, value: float, *, stage: str = "",
            kind: str | None = None, unit: str | None = None) -> None:
    """Publish one observation into the ambient metric set."""
    metric_set().publish(name, value, stage=stage, kind=kind, unit=unit)


def publish_many(values: dict[str, float], *, stage: str = "") -> None:
    """Publish a dict of (registered) metric name -> value."""
    ms = metric_set()
    for name, value in values.items():
        ms.publish(name, value, stage=stage)


def counter(name: str, n: float = 1, *, stage: str = "") -> None:
    metric_set().counter(name, n, stage=stage)


def gauge(name: str, value: float, *, stage: str = "") -> None:
    metric_set().gauge(name, value, stage=stage)


def annotate(**context: Any) -> None:
    """Attach run context (circuit, seed, ...) to the ambient set."""
    metric_set().context.update(context)


# ---------------------------------------------------------------------------
# Resource profiling
# ---------------------------------------------------------------------------

def peak_rss_kb() -> float:
    """Peak resident set size of this process in KiB (0 if unknown)."""
    try:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:          # pragma: no cover - non-POSIX fallback
        return 0.0
    if sys.platform == "darwin":   # ru_maxrss is bytes on macOS
        peak /= 1024.0
    return float(peak)


@contextlib.contextmanager
def profiled(sp, name: str, *, stage: str = "") -> Iterator[None]:
    """Attach CPU time / peak RSS to a span and publish them as metrics.

    ``sp`` is the open span of the region; when tracing is disabled
    (``sp is NOOP_SPAN``) profiling is skipped entirely so the
    disabled path stays free.  ``name`` prefixes the published metrics
    (``<name>.cpu_s`` as a distribution, ``<name>.peak_rss_kb`` as a
    gauge), ``stage`` tags them.
    """
    if sp is NOOP_SPAN:
        yield
        return
    cpu0 = time.process_time()
    try:
        yield
    finally:
        cpu = time.process_time() - cpu0
        rss = peak_rss_kb()
        sp.set_attr(cpu_s=round(cpu, 6), peak_rss_kb=rss)
        try:
            import tracemalloc
            if tracemalloc.is_tracing():
                sp.set_attr(py_heap_kb=round(
                    tracemalloc.get_traced_memory()[1] / 1024.0, 1))
        except Exception:      # pragma: no cover - tracemalloc broken
            pass
        ms = metric_set()
        ms.dist(f"{name}.cpu_s", cpu, stage=stage)
        ms.gauge(f"{name}.peak_rss_kb", rss, stage=stage)


# ---------------------------------------------------------------------------
# The flow's registered vocabulary
# ---------------------------------------------------------------------------

REGISTRY = MetricRegistry()

#: FlowResult.summary() field -> registered metric name.  The same
#: mapping reads the frozen golden rows (``benchmarks/results/
#: flow_qor.json``) back as a baseline metric set, so the golden file
#: format never needs to change.
FLOW_SUMMARY_METRICS = {
    "luts": "flow.luts",
    "ffs": "flow.ffs",
    "clbs": "flow.clbs",
    "grid": "flow.grid",
    "bbox_cost": "flow.bbox_cost",
    "channel_width": "flow.channel_width",
    "wirelength": "flow.wirelength",
    "critical_path_ns": "flow.critical_path_ns",
    "fmax_MHz": "flow.fmax_MHz",
    "data_rate_MHz": "flow.data_rate_MHz",
    "total_mW": "flow.total_mW",
    "bitstream_bytes": "flow.bitstream_bytes",
}

for _spec in [
    # -- flow QoR (gated: these ARE the paper's numbers) ---------------
    MetricSpec("flow.luts", GAUGE, "LUTs", "4-LUTs after tech mapping",
               direction="lower", rel_tol=0.0, gate=True),
    MetricSpec("flow.ffs", GAUGE, "FFs", "flip-flops in the mapped "
               "netlist", direction="none", rel_tol=0.0),
    MetricSpec("flow.clbs", GAUGE, "CLBs", "clusters after packing",
               direction="lower", rel_tol=0.0, gate=True),
    MetricSpec("flow.grid", GAUGE, "tiles", "FPGA grid side length",
               direction="lower", rel_tol=0.0, gate=True),
    MetricSpec("flow.bbox_cost", GAUGE, "bb", "placement bounding-box "
               "cost", direction="lower", rel_tol=0.02, gate=True),
    MetricSpec("flow.channel_width", GAUGE, "tracks", "routed channel "
               "width", direction="lower", rel_tol=0.0, gate=True),
    MetricSpec("flow.wirelength", GAUGE, "segs", "total routed wire "
               "segments", direction="lower", rel_tol=0.02, gate=True),
    MetricSpec("flow.critical_path_ns", GAUGE, "ns", "STA critical "
               "path", direction="lower", rel_tol=0.05, gate=True),
    MetricSpec("flow.fmax_MHz", GAUGE, "MHz", "maximum clock frequency",
               direction="higher", rel_tol=0.05, gate=True),
    MetricSpec("flow.data_rate_MHz", GAUGE, "MHz", "DETFF data "
               "throughput", direction="higher", rel_tol=0.05, gate=True),
    MetricSpec("flow.total_mW", GAUGE, "mW", "total estimated power",
               direction="lower", rel_tol=0.05, gate=True),
    MetricSpec("flow.routing_mW", GAUGE, "mW", "routing dynamic power",
               direction="lower", rel_tol=0.05),
    MetricSpec("flow.logic_mW", GAUGE, "mW", "logic dynamic power",
               direction="lower", rel_tol=0.05),
    MetricSpec("flow.clock_mW", GAUGE, "mW", "clock network power",
               direction="lower", rel_tol=0.05),
    MetricSpec("flow.leakage_mW", GAUGE, "mW", "leakage power",
               direction="lower", rel_tol=0.05),
    MetricSpec("flow.bitstream_bytes", GAUGE, "B", "configuration "
               "bitstream size", direction="lower", rel_tol=0.0,
               gate=True),
    MetricSpec("flow.chipdb_bits", GAUGE, "bits", "configuration body "
               "bits in the chip database layout", direction="lower",
               rel_tol=0.0, gate=True),
    # -- bitstream disassembler ----------------------------------------
    MetricSpec("disasm.bles", GAUGE, "BLEs", "active BLEs recovered "
               "from a bitstream", direction="none", rel_tol=0.0),
    MetricSpec("disasm.nets", GAUGE, "nets", "routed nets recovered "
               "from a bitstream", direction="none", rel_tol=0.0),
    MetricSpec("disasm.errors", COUNTER, "streams", "bitstreams "
               "rejected by the disassembler as malformed or "
               "inconsistent", direction="none"),
    # -- flow resources (history only, never gated: machine noise) -----
    MetricSpec("flow.seconds", DIST, "s", "wall time per flow stage",
               direction="lower"),
    MetricSpec("flow.cpu_s", DIST, "s", "CPU time per flow stage",
               direction="lower"),
    MetricSpec("flow.peak_rss_kb", GAUGE, "KiB", "peak RSS at stage "
               "exit", direction="lower"),
    MetricSpec("flow.cache_hits", COUNTER, "stages", "flow stages "
               "served from the result cache"),
    # -- batched transient engine --------------------------------------
    MetricSpec("sim.batch_size", DIST, "circuits", "independent circuits "
               "stacked per batched transient run", direction="higher"),
    MetricSpec("sim.batch_speedup", GAUGE, "x", "measured wall-clock "
               "speedup of the batched engine over the scalar oracle",
               direction="higher"),
    # -- placer / router internals -------------------------------------
    MetricSpec("place.moves", COUNTER, "moves", "annealing moves "
               "attempted"),
    MetricSpec("place.bbox_cost", GAUGE, "bb", "final placement cost",
               direction="lower", rel_tol=0.02, gate=True),
    MetricSpec("place.incremental_evals", COUNTER, "evals", "net "
               "bounding boxes recomputed to score annealing moves"),
    MetricSpec("route.iterations", COUNTER, "iters", "PathFinder "
               "rip-up/re-route iterations", direction="lower"),
    MetricSpec("route.overused", GAUGE, "nodes", "overused rr-nodes at "
               "exit", direction="lower", rel_tol=0.0, gate=True),
    MetricSpec("route.heap_reuse", COUNTER, "heaps", "Dijkstra "
               "expansions served from persistent router cost "
               "structures instead of full rebuilds"),
    # -- experiment engine ---------------------------------------------
    MetricSpec("exp.jobs", COUNTER, "jobs", "jobs submitted"),
    MetricSpec("exp.cache_hits", COUNTER, "jobs", "jobs served from "
               "cache"),
    MetricSpec("exp.failures", COUNTER, "jobs", "jobs that failed "
               "(error, timeout or crash)", direction="lower"),
    MetricSpec("exp.job_seconds", DIST, "s", "per-job wall time",
               direction="lower"),
    MetricSpec("exp.cache.lru_hits", COUNTER, "hits", "cache reads "
               "served by the in-process LRU layer (no disk I/O)"),
    # -- persistent worker pool ----------------------------------------
    MetricSpec("exp.pool.workers", GAUGE, "procs", "warm pooled "
               "workers serving the batch"),
    MetricSpec("exp.pool.spawns", COUNTER, "procs", "pooled worker "
               "processes spawned (pool creation plus crash/timeout "
               "replacements)", direction="lower"),
    MetricSpec("exp.pool.reuse", DIST, "jobs", "jobs served per pooled "
               "worker over its lifetime", direction="higher"),
    MetricSpec("exp.pool.dispatch_s", DIST, "s", "latency from job "
               "send to worker acknowledgement", direction="lower"),
    MetricSpec("exp.pool.stalled", GAUGE, "procs", "busy pooled "
               "workers whose live-telemetry heartbeats have gone "
               "stale (hung-worker suspects)", direction="lower"),
]:
    REGISTRY.register(_spec)
del _spec
