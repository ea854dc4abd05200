"""repro.obs -- flow-wide tracing, QoR metrics and run history.

Three layers, lightest first:

**Spans** (:mod:`.trace`): every :class:`~repro.flow.flow.DesignFlow`
stage, the experiment engine's job lifecycle and the placer/router top
loops open spans on the ambient :class:`Tracer`.  Traces export as
JSONL and render as a per-run summary tree (wall time, cache
hit/miss, QoR numbers such as LUT count and channel width) or as
per-stage aggregates::

    from repro import api, obs

    with obs.capture() as tr:          # stages trace themselves
        api.submit(api.JobRequest(kind="flow", vhdl=vhdl))
    tr.write_jsonl("run.jsonl")
    print(obs.render_tree(tr.export()))

**Metrics** (:mod:`.metrics`): a typed registry (counter / gauge /
distribution, with units, stage tags, better-direction and tolerance
bands) that the same instrumentation points publish QoR into; one
:func:`metrics.collect` block gathers one run's full metric set.
Per-stage CPU time and peak RSS ride along via :func:`metrics.profiled`.

**Run history** (:mod:`.rundb`, :mod:`.compare`, :mod:`.dashboard`):
every CLI flow/vpr/exp invocation appends its metric set to a SQLite
run DB (``--run-db``, ``$REPRO_RUN_DB`` or ``~/.cache/repro/runs.db``)
together with git revision, code digest, seed and architecture;
``repro-flow history`` lists it, ``repro-flow compare A B`` /
``--against-golden`` classifies per-metric deltas against tolerance
bands (non-zero exit on gated regressions), and ``repro-flow report
--html`` renders a sparkline dashboard.

From the command line::

    repro-flow flow design.vhd --trace run.jsonl
    repro-flow trace run.jsonl       # span tree
    repro-flow stats run.jsonl       # per-stage aggregates
    repro-flow history               # recent runs + key QoR
    repro-flow compare latest latest~1
    repro-flow compare --against-golden
    repro-flow report --html qor.html

Setting ``REPRO_TRACE=/path/run.jsonl`` traces any CLI invocation
without flags; :func:`set_enabled` turns the span layer off entirely
(spans become shared no-ops).
"""

from . import chrometrace, compare as compare_mod
from . import dashboard, live, metrics, rundb
from .chrometrace import chrome_trace_events, write_chrome_trace
from .compare import (MetricDelta, compare_rows, default_golden_path,
                      gated_regressions, golden_flow_rows,
                      render_compare)
from .dashboard import render_report
from .live import (ENV_TELEMETRY, TelemetryEmitter, TelemetryHub,
                   session_hub)
from .metrics import (MetricRegistry, MetricSet, MetricSpec, REGISTRY,
                      profiled)
from .report import (TraceReadError, aggregate, build_tree,
                     format_seconds, load_jsonl, render_stats,
                     render_tree)
from .rundb import RunDB, RunRow, default_db_path
from .trace import (NOOP_SPAN, Span, Tracer, adopt, capture,
                    current_span, default_tracer, emit, enabled,
                    set_enabled, span, tracer)

__all__ = [
    "ENV_TELEMETRY", "NOOP_SPAN",
    "MetricDelta", "MetricRegistry", "MetricSet", "MetricSpec",
    "REGISTRY", "RunDB", "RunRow", "Span", "TelemetryEmitter",
    "TelemetryHub", "TraceReadError", "Tracer",
    "adopt", "aggregate", "build_tree", "capture",
    "chrome_trace_events", "chrometrace", "compare_rows",
    "current_span", "dashboard", "default_db_path",
    "default_golden_path", "default_tracer", "emit", "enabled",
    "format_seconds", "gated_regressions", "golden_flow_rows",
    "live", "load_jsonl", "metrics", "profiled",
    "render_compare", "render_report", "render_stats", "render_tree",
    "rundb", "session_hub", "set_enabled", "span", "tracer",
    "write_chrome_trace",
]
