"""Live telemetry bus: streamed worker state, aggregated out-of-band.

Everything else in :mod:`repro.obs` is post-hoc -- spans and metrics
are captured *inside* a worker and grafted back only when the job's
result message arrives, so a running sweep is a black box until it
finishes.  This module closes that gap with an out-of-band channel:

**Worker side** -- a :class:`TelemetryEmitter` (one daemon thread per
pooled worker) streams events through a ``multiprocessing`` queue that
never touches the result pipe:

* periodic *heartbeats*: worker pid, the job id currently executing,
  how long it has been running, jobs served and peak RSS;
* *span open/close* events (via the :func:`repro.obs.trace.
  set_span_listener` hook), so per-stage progress is visible while the
  stage runs;
* *metric-delta* rows: the increment of the in-flight job's ambient
  :class:`~repro.obs.metrics.MetricSet` since the last beat.

**Parent side** -- the :class:`TelemetryHub` drains the queue, folds
events into a consistent live picture (queue depth, per-worker state,
per-stage throughput, completed/failed/retried/cached counts, ETA) and
publishes it two ways:

* an atomically-replaced JSON *snapshot file* under :func:`live_dir`,
  which ``repro-flow top`` and ``repro-flow serve-metrics`` read from
  any other process;
* heartbeat *staleness*: a worker whose beats stop while a job is
  executing is a hung-worker suspect (its emitter thread would keep
  beating through a merely slow job), surfaced as the
  ``exp.pool.stalled`` gauge by the pool supervisor **before** any job
  timeout fires.

The whole bus is opt-in via ``REPRO_TELEMETRY`` (truthy, or a
directory path for the snapshots) and zero-cost when off: no hub, no
queue reads, no emitter threads, no snapshot files -- workers check
one forwarded environment flag per job and the span hook is a single
global ``None`` test.  ``benchmarks/test_trace_overhead.py`` holds the
enabled path to the same <5 % budget as the rest of the stack.
"""

from __future__ import annotations

import http.server
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from . import metrics as metrics_mod
from . import trace as trace_mod

__all__ = [
    "ENV_HB_INTERVAL", "ENV_TELEMETRY", "STALL_FACTOR", "TelemetryHub",
    "TelemetryEmitter", "enabled", "hb_interval", "job_id",
    "live_dir", "load_sessions", "prometheus_text", "render_top",
    "serve_metrics", "session_hub", "shutdown", "snapshot_exposition",
]

#: Truthy enables the bus; a path value also relocates the live dir.
ENV_TELEMETRY = "REPRO_TELEMETRY"
#: Heartbeat period in seconds (default 0.5).
ENV_HB_INTERVAL = "REPRO_HB_INTERVAL"

DEFAULT_HB_INTERVAL = 0.5
#: A busy worker is *stalled* once its last heartbeat is older than
#: ``STALL_FACTOR`` periods -- several beats of slack so one slow
#: queue drain never false-positives.
STALL_FACTOR = 4.0
#: ``top``/``serve-metrics`` treat snapshots older than this as dead.
FRESH_S = 30.0

_FALSY = ("", "0", "false", "no", "off")
_ENABLED_LITERALS = ("1", "true", "yes", "on")


def enabled() -> bool:
    """Is the live telemetry bus switched on for this process?"""
    return os.environ.get(ENV_TELEMETRY, "").strip().lower() \
        not in _FALSY


def live_dir() -> Path:
    """Directory holding one snapshot file per live session."""
    raw = os.environ.get(ENV_TELEMETRY, "").strip()
    if raw and raw.lower() not in _ENABLED_LITERALS + _FALSY:
        return Path(raw).expanduser()
    return Path(os.environ.get("XDG_CACHE_HOME",
                               Path.home() / ".cache")) / "repro" / "live"


def hb_interval() -> float:
    try:
        value = float(os.environ[ENV_HB_INTERVAL])
    except (KeyError, ValueError):
        return DEFAULT_HB_INTERVAL
    return value if value > 0 else DEFAULT_HB_INTERVAL


def job_id(spec) -> str:
    """Short content id of a job spec, computable on either side of
    the pipe (no code-version digest, unlike the full cache key)."""
    import hashlib
    return hashlib.sha256(
        spec.canonical_json().encode()).hexdigest()[:12]


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Worker side: the emitter
# ---------------------------------------------------------------------------

class TelemetryEmitter:
    """Streams one worker's live state through the telemetry queue.

    Owned by the pooled-worker main loop: :meth:`job_started` /
    :meth:`job_finished` bracket each job, a daemon thread beats every
    :func:`hb_interval` seconds, and :meth:`span_event` (installed as
    the trace listener) forwards span opens/closes as they happen.
    Every send is best-effort -- telemetry must never break or block a
    job -- so queue failures are swallowed.
    """

    def __init__(self, queue, *, interval: float | None = None,
                 pid: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time):
        self.queue = queue
        self.interval = interval if interval is not None else hb_interval()
        self.pid = pid if pid is not None else os.getpid()
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._job: tuple[str, str, float] | None = None  # id, kind, t0
        self._ms = None
        self._last_rows: dict[tuple[str, str], dict[str, Any]] = {}
        self._served = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        # Keep the exact bound-method object we register: each
        # ``self.span_event`` access builds a fresh one, so an ``is``
        # check against a later access would never match.
        self._listener = self.span_event
        trace_mod.set_span_listener(self._listener)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-telemetry")
        self._thread.start()

    def stop(self) -> None:
        if trace_mod.span_listener() is getattr(self, "_listener", None):
            trace_mod.set_span_listener(None)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    # -- job bracketing (called by the worker main loop) ----------------
    def job_started(self, jid: str, kind: str, metric_set=None) -> None:
        with self._lock:
            self._job = (jid, kind, self._clock())
            self._ms = metric_set
            self._last_rows = {}
        self.beat()

    def job_finished(self) -> None:
        self._send_metric_delta()
        with self._lock:
            self._job = None
            self._ms = None
            self._served += 1
        self.beat()

    # -- event producers -------------------------------------------------
    def _put(self, event: tuple) -> None:
        try:
            self.queue.put_nowait(event)
        except Exception:
            pass

    def beat(self) -> None:
        with self._lock:
            job = self._job
            served = self._served
        if job is None:
            jid, kind, age = None, None, 0.0
        else:
            jid, kind, t0 = job
            age = max(0.0, self._clock() - t0)
        self._put(("hb", self.pid, jid, kind, age,
                   metrics_mod.peak_rss_kb(), served, self._wall()))

    def span_event(self, phase: str, span) -> None:
        self._put(("span", self.pid, phase, span.name, self._wall(),
                   span.seconds if phase == "close" else 0.0))

    def _send_metric_delta(self) -> None:
        with self._lock:
            ms = self._ms
            last = self._last_rows
        if ms is None:
            return
        try:
            rows = ms.export()
        except RuntimeError:    # set mutated mid-export; skip this beat
            return
        delta: list[dict[str, Any]] = []
        cur: dict[tuple[str, str], dict[str, Any]] = {}
        for row in rows:
            key = (row["name"], row.get("stage", ""))
            cur[key] = row
            prev = last.get(key)
            if row["kind"] == metrics_mod.GAUGE:
                if prev is None or prev.get("last") != row.get("last"):
                    delta.append(dict(row, n=1))
                continue
            prev_n = int(prev.get("n", 0)) if prev else 0
            prev_total = float(prev.get("total", 0.0)) if prev else 0.0
            d_n = int(row.get("n", 0)) - prev_n
            if d_n <= 0:
                continue
            delta.append(dict(row, n=d_n,
                              total=float(row.get("total", 0.0))
                              - prev_total))
        with self._lock:
            if self._ms is ms:
                self._last_rows = cur
        if delta:
            self._put(("mrows", self.pid, delta))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()
            self._send_metric_delta()


# ---------------------------------------------------------------------------
# Parent side: the hub
# ---------------------------------------------------------------------------

class TelemetryHub:
    """Folds telemetry events into one consistent live snapshot.

    The scheduler reports batch lifecycle directly (authoritative
    counts); workers stream heartbeats, spans and metric deltas through
    attached queues.  All state lives behind one lock, so
    :meth:`snapshot` is consistent no matter which thread asks.
    ``clock``/``wall`` are injectable for deterministic tests.
    """

    def __init__(self, path: Path | str | None = None, *,
                 hb_interval_s: float | None = None,
                 stall_factor: float = STALL_FACTOR,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time):
        self.path = Path(path) if path is not None else None
        self.hb_interval_s = (hb_interval_s if hb_interval_s is not None
                              else hb_interval())
        self.stall_factor = stall_factor
        self._clock = clock
        self._wall = wall
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._queues: list[Any] = []
        self._workers: dict[int, dict[str, Any]] = {}
        self._stages: dict[str, dict[str, float]] = {}
        self._metrics = metrics_mod.MetricSet()
        self._batch: dict[str, Any] | None = None
        self._totals = {"batches": 0, "jobs": 0, "completed": 0,
                        "failed": 0, "retried": 0, "cached": 0}
        self._state = "idle"
        self._started_wall = wall()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- scheduler-facing lifecycle --------------------------------------
    def attach(self, queue) -> None:
        """Start draining a worker->parent telemetry queue (idempotent)."""
        if queue is None:
            return
        with self._lock:
            if any(q is queue for q in self._queues):
                return
            self._queues.append(queue)

    def batch_started(self, n_jobs: int, *, workers: int = 1,
                      cached: int = 0) -> None:
        with self._lock:
            self._state = "running"
            self._batch = {
                "n_jobs": n_jobs, "workers": workers, "cached": cached,
                "completed": 0, "failed": 0, "retried": 0,
                "queued": n_jobs - cached, "running": 0,
                "started": self._clock(), "started_wall": self._wall(),
            }
            self._totals["batches"] += 1
            self._totals["jobs"] += n_jobs
            self._totals["cached"] += cached

    def job_finished(self, kind: str, ok: bool, seconds: float) -> None:
        with self._lock:
            if self._batch is not None:
                self._batch["completed" if ok else "failed"] += 1
            self._totals["completed" if ok else "failed"] += 1

    def job_retried(self, kind: str) -> None:
        with self._lock:
            if self._batch is not None:
                self._batch["retried"] += 1
            self._totals["retried"] += 1

    def progress(self, queued: int, running: int) -> None:
        """Scheduler's live queue depth / in-flight count."""
        with self._lock:
            if self._batch is not None:
                self._batch["queued"] = queued
                self._batch["running"] = running

    def batch_finished(self) -> None:
        with self._lock:
            if self._batch is not None:
                self._batch["queued"] = 0
                self._batch["running"] = 0
            self._state = "idle"
        self.write_snapshot()

    # -- worker events ---------------------------------------------------
    def record_event(self, event: tuple) -> None:
        """Fold one worker event (tolerates malformed tuples)."""
        try:
            op = event[0]
            if op == "hb":
                _, pid, jid, kind, age, rss_kb, served, t_wall = event
                with self._lock:
                    self._workers[pid] = {
                        "pid": pid, "job": jid, "kind": kind,
                        "job_age_s": float(age),
                        "rss_kb": float(rss_kb), "done": int(served),
                        "last_hb": self._clock(),
                        "last_hb_wall": float(t_wall),
                    }
            elif op == "span":
                _, _pid, phase, name, _t_wall, seconds = event
                with self._lock:
                    row = self._stages.setdefault(
                        name, {"open": 0, "closed": 0, "seconds": 0.0})
                    if phase == "open":
                        row["open"] += 1
                    else:
                        row["open"] = max(0, row["open"] - 1)
                        row["closed"] += 1
                        row["seconds"] += float(seconds)
            elif op == "mrows":
                _, _pid, rows = event
                with self._lock:
                    self._metrics.merge(rows)
        except (ValueError, TypeError, KeyError, IndexError):
            pass

    def forget_worker(self, pid: int) -> None:
        """Drop a worker the supervisor killed/replaced."""
        with self._lock:
            self._workers.pop(pid, None)

    # -- staleness -------------------------------------------------------
    def stalled_pids(self, now: float | None = None) -> list[int]:
        """Workers mid-job whose heartbeats have gone stale.

        A slow job keeps beating (the emitter is its own thread); a
        worker that stops beating while a job is open is hung --
        deadlocked, swap-thrashing or SIGSTOPped -- and is worth
        surfacing *before* its job timeout (if any) fires.
        """
        now = self._clock() if now is None else now
        horizon = self.stall_factor * self.hb_interval_s
        with self._lock:
            return sorted(
                pid for pid, w in self._workers.items()
                if w["job"] is not None and now - w["last_hb"] > horizon)

    # -- snapshot --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """One consistent, JSON-ready view of the whole session."""
        now = self._clock()
        stalled = set(self.stalled_pids(now))
        with self._lock:
            batch: dict[str, Any] = {}
            if self._batch is not None:
                b = self._batch
                done = b["completed"] + b["failed"]
                elapsed = max(1e-9, now - b["started"])
                rate = done / elapsed
                remaining = max(
                    0, b["n_jobs"] - b["cached"] - done)
                batch = {
                    "n_jobs": b["n_jobs"], "workers": b["workers"],
                    "cached": b["cached"], "completed": b["completed"],
                    "failed": b["failed"], "retried": b["retried"],
                    "queue_depth": b["queued"], "running": b["running"],
                    "elapsed_s": round(now - b["started"], 3),
                    "throughput_jps": round(rate, 4),
                    "eta_s": (round(remaining / rate, 1) if rate > 0
                              and remaining else 0.0),
                }
            workers = []
            for pid in sorted(self._workers):
                w = self._workers[pid]
                busy = w["job"] is not None
                workers.append({
                    "pid": pid,
                    "state": ("stalled" if pid in stalled
                              else "busy" if busy else "idle"),
                    "job": w["job"], "kind": w["kind"],
                    "job_age_s": round(w["job_age_s"], 3),
                    "rss_kb": round(w["rss_kb"], 1),
                    "done": w["done"],
                    "hb_age_s": round(max(0.0, now - w["last_hb"]), 3),
                })
            stages = {name: {"open": int(row["open"]),
                             "closed": int(row["closed"]),
                             "seconds": round(row["seconds"], 4)}
                      for name, row in sorted(self._stages.items())}
            return {
                "v": 1,
                "pid": self.pid,
                "state": self._state,
                "started_wall": self._started_wall,
                "updated_wall": self._wall(),
                "hb_interval_s": self.hb_interval_s,
                "batch": batch,
                "totals": dict(self._totals),
                "workers": workers,
                "stalled": sorted(stalled),
                "stages": stages,
                "metrics": self._metrics.export(),
            }

    def write_snapshot(self) -> None:
        if self.path is None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(
                self.path, json.dumps(self.snapshot(), sort_keys=True))
        except OSError:
            pass

    # -- background drain/publish thread ---------------------------------
    def drain(self) -> int:
        """Pull every queued event right now; returns events folded."""
        import queue as queue_mod
        n = 0
        with self._lock:
            queues = list(self._queues)
        for q in queues:
            while True:
                try:
                    event = q.get_nowait()
                except (queue_mod.Empty, OSError, EOFError,
                        ValueError):   # ValueError: queue closed
                    break
                self.record_event(event)
                n += 1
        return n

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-telemetry-hub")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.drain()
        with self._lock:
            self._state = "done"
        self.write_snapshot()

    def _loop(self) -> None:
        tick = min(0.5, max(0.05, self.hb_interval_s / 2.0))
        next_write = 0.0
        while not self._stop.wait(tick):
            self.drain()
            now = self._clock()
            if now >= next_write:
                self.write_snapshot()
                next_write = now + self.hb_interval_s


# ---------------------------------------------------------------------------
# Session singleton (one hub per live dir, created on first use)
# ---------------------------------------------------------------------------

_HUBS: dict[str, TelemetryHub] = {}
_hubs_lock = threading.Lock()
_atexit_registered = False


def session_hub() -> TelemetryHub | None:
    """This process's hub, or ``None`` while telemetry is disabled."""
    if not enabled():
        return None
    d = live_dir()
    key = str(d)
    with _hubs_lock:
        hub = _HUBS.get(key)
        if hub is None:
            hub = TelemetryHub(d / f"live-{os.getpid()}.json")
            hub.start()
            _HUBS[key] = hub
            global _atexit_registered
            if not _atexit_registered:
                import atexit
                atexit.register(shutdown)
                _atexit_registered = True
    return hub


def shutdown() -> None:
    """Stop every session hub, writing final ``done`` snapshots."""
    with _hubs_lock:
        hubs = list(_HUBS.values())
        _HUBS.clear()
    for hub in hubs:
        hub.stop()


# ---------------------------------------------------------------------------
# Readers: session discovery, terminal top view
# ---------------------------------------------------------------------------

def load_sessions(directory: Path | str | None = None
                  ) -> list[dict[str, Any]]:
    """All parseable snapshots in the live dir, newest-updated first."""
    d = Path(directory) if directory is not None else live_dir()
    sessions = []
    if d.is_dir():
        for path in d.glob("live-*.json"):
            try:
                snap = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(snap, dict) and snap.get("v") == 1:
                sessions.append(snap)
    sessions.sort(key=lambda s: (-float(s.get("updated_wall", 0.0)),
                                 int(s.get("pid", 0))))
    return sessions


def _fmt_age(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_top(snap: dict[str, Any], *,
               now_wall: float | None = None) -> str:
    """The ``repro-flow top`` terminal view of one session snapshot."""
    now_wall = time.time() if now_wall is None else now_wall
    age = max(0.0, now_wall - float(snap.get("updated_wall", now_wall)))
    lines = [f"repro-flow top -- session {snap.get('pid')} "
             f"({snap.get('state')}), updated {_fmt_age(age)} ago"]
    b = snap.get("batch") or {}
    if b:
        lines.append(
            f"batch: {b.get('n_jobs', 0)} jobs   "
            f"queued {b.get('queue_depth', 0)}  "
            f"running {b.get('running', 0)}  "
            f"done {b.get('completed', 0)} "
            f"(+{b.get('cached', 0)} cached, {b.get('failed', 0)} "
            f"failed, {b.get('retried', 0)} retried)   "
            f"{b.get('throughput_jps', 0.0):.2f} jobs/s   "
            f"eta {_fmt_age(float(b.get('eta_s', 0.0)))}")
    t = snap.get("totals") or {}
    lines.append(f"session: {t.get('batches', 0)} batches, "
                 f"{t.get('jobs', 0)} jobs "
                 f"({t.get('cached', 0)} cached, "
                 f"{t.get('failed', 0)} failed)")
    workers = snap.get("workers") or []
    if workers:
        lines.append("")
        lines.append(f"{'PID':>8} {'STATE':<8} {'JOB':<13} "
                     f"{'KIND':<18} {'AGE':>8} {'RSS':>10} "
                     f"{'DONE':>5} {'HB':>6}")
        for w in workers:
            rss_mib = float(w.get("rss_kb", 0.0)) / 1024.0
            lines.append(
                f"{w.get('pid', 0):>8} {w.get('state', '?'):<8} "
                f"{(w.get('job') or '-'):<13} "
                f"{(w.get('kind') or '-'):<18} "
                f"{_fmt_age(float(w.get('job_age_s', 0.0))):>8} "
                f"{rss_mib:>7.1f}MiB {w.get('done', 0):>5} "
                f"{_fmt_age(float(w.get('hb_age_s', 0.0))):>6}")
    stages = snap.get("stages") or {}
    active = [(n, r) for n, r in stages.items()
              if r.get("open") or r.get("closed")]
    if active:
        lines.append("")
        lines.append(f"{'STAGE':<28} {'OPEN':>5} {'CLOSED':>7} "
                     f"{'TOTAL':>9}")
        by_time = sorted(active,
                         key=lambda kv: -float(kv[1].get("seconds", 0)))
        for name, row in by_time[:12]:
            lines.append(f"{name:<28} {row.get('open', 0):>5} "
                         f"{row.get('closed', 0):>7} "
                         f"{row.get('seconds', 0.0):>8.2f}s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    out = _NAME_SANITIZE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return f"repro_{out}"


def _prom_escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _prom_escape_label(text: str) -> str:
    return (text.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _prom_number(value: float) -> str:
    return repr(float(value))


def prometheus_text(rows: Iterable[dict[str, Any]], *,
                    registry: metrics_mod.MetricRegistry | None = None,
                    extra_gauges: dict[str, tuple[float, str]] | None
                    = None) -> str:
    """Render metric rows as Prometheus text exposition format 0.0.4.

    Counters map to ``<name>_total`` counters, gauges to gauges and
    distributions to summaries (``_sum``/``_count``).  The ``stage``
    tag becomes a label; HELP strings come from the registered
    :class:`~repro.obs.metrics.MetricSpec`.  ``extra_gauges`` maps an
    *unprefixed* metric name to ``(value, help)`` for synthetic series
    (queue depth, stalled workers, ...).
    """
    registry = registry if registry is not None else metrics_mod.REGISTRY
    by_name: dict[str, list[dict[str, Any]]] = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row)
    out: list[str] = []
    for name in sorted(by_name):
        group = sorted(by_name[name],
                       key=lambda r: r.get("stage", ""))
        kind = group[0].get("kind", metrics_mod.GAUGE)
        spec = registry.spec_for(name)
        help_text = (spec.description if spec and spec.description
                     else name)
        pname = _prom_name(name)
        if kind == metrics_mod.COUNTER:
            pname += "_total"
            ptype = "counter"
        elif kind == metrics_mod.DIST:
            ptype = "summary"
        else:
            ptype = "gauge"
        out.append(f"# HELP {pname} {_prom_escape_help(help_text)}")
        out.append(f"# TYPE {pname} {ptype}")
        for row in group:
            stage = row.get("stage", "")
            labels = (f'{{stage="{_prom_escape_label(stage)}"}}'
                      if stage else "")
            if kind == metrics_mod.COUNTER:
                out.append(f"{pname}{labels} "
                           f"{_prom_number(row.get('total', 0.0))}")
            elif kind == metrics_mod.DIST:
                out.append(f"{pname}_sum{labels} "
                           f"{_prom_number(row.get('total', 0.0))}")
                out.append(f"{pname}_count{labels} "
                           f"{_prom_number(row.get('n', 0))}")
            else:
                out.append(f"{pname}{labels} "
                           f"{_prom_number(row.get('value', 0.0))}")
    for name in sorted(extra_gauges or {}):
        value, help_text = extra_gauges[name]
        pname = _prom_name(name)
        out.append(f"# HELP {pname} {_prom_escape_help(help_text)}")
        out.append(f"# TYPE {pname} gauge")
        out.append(f"{pname} {_prom_number(value)}")
    out.append("")
    return "\n".join(out)


def snapshot_exposition(snap: dict[str, Any]) -> str:
    """Prometheus exposition of one session snapshot: the streamed
    metric rows plus synthetic gauges for the live batch/pool state."""
    b = snap.get("batch") or {}
    extra: dict[str, tuple[float, str]] = {
        "live.session_pid": (float(snap.get("pid", 0)),
                             "pid of the observed repro session"),
        "live.updated_wall": (float(snap.get("updated_wall", 0.0)),
                              "unix time of the last snapshot write"),
        "live.workers": (float(len(snap.get("workers") or [])),
                         "pool workers reporting heartbeats"),
        "live.stalled_workers": (float(len(snap.get("stalled") or [])),
                                 "busy workers with stale heartbeats"),
    }
    for field, help_text in (
            ("n_jobs", "jobs in the current batch"),
            ("queue_depth", "jobs waiting for a worker"),
            ("running", "jobs executing right now"),
            ("completed", "batch jobs finished ok"),
            ("failed", "batch jobs that exhausted retries"),
            ("retried", "batch retry attempts"),
            ("cached", "batch jobs served from cache"),
            ("throughput_jps", "completed jobs per second"),
            ("eta_s", "estimated seconds to batch completion")):
        if field in b:
            extra[f"live.batch.{field}"] = (float(b[field]), help_text)
    return prometheus_text(snap.get("metrics") or [],
                           extra_gauges=extra)


# ---------------------------------------------------------------------------
# The serve-metrics HTTP endpoint
# ---------------------------------------------------------------------------

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def latest_exposition(directory: Path | str | None = None,
                      *, fresh_s: float = FRESH_S) -> str:
    """Exposition of the freshest live session (empty-series comment
    when none is live -- a scrape must never 500 on an idle box)."""
    now = time.time()
    for snap in load_sessions(directory):
        if now - float(snap.get("updated_wall", 0.0)) <= fresh_s \
                or snap.get("state") == "running":
            return snapshot_exposition(snap)
    return "# no live repro session\n"


def serve_metrics(directory: Path | str | None = None, *,
                  addr: str = "127.0.0.1", port: int = 0,
                  fresh_s: float = FRESH_S):
    """Build (not start) the Prometheus scrape server; returns it.

    The caller runs ``server.serve_forever()`` (the CLI) or drives it
    from a thread (tests).  ``port=0`` binds an ephemeral port,
    reported via ``server.server_address``.
    """
    directory = Path(directory) if directory is not None else live_dir()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):           # noqa: N802  (http.server API)
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404, "try /metrics")
                return
            body = latest_exposition(directory,
                                     fresh_s=fresh_s).encode()
            self.send_response(200)
            self.send_header("Content-Type", PROM_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):  # quiet by default
            pass

    return http.server.ThreadingHTTPServer((addr, port), Handler)
