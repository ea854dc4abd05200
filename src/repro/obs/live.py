"""Live telemetry bus: worker state streamed over the job pipe.

Everything else in :mod:`repro.obs` is post-hoc -- spans and metrics
are captured *inside* a worker and grafted back only when the job's
result message arrives, so a running sweep is a black box until it
finishes.  This module closes that gap.

**Worker side** -- while a job runs, a pooled worker sends its live
state on the pipe that carries the job's result, ahead of the result
(:mod:`repro.exp.pool` documents the protocol):

* *span open/close* events (via the :func:`repro.obs.trace.
  set_span_listener` hook), so per-stage progress is visible while the
  stage runs;
* periodic *heartbeats* from a :class:`TelemetryEmitter` thread:
  worker pid, the job id currently executing, how long it has been
  running, jobs served and peak RSS;
* *metric-delta* rows: the increment of the in-flight job's ambient
  :class:`~repro.obs.metrics.MetricSet` since the last beat.

**Parent side** -- the pooled scheduler (``ParallelRunner._serve``)
folds those events and the batch lifecycle into a
:class:`TelemetryHub`: queue depth, per-worker state, per-stage
throughput, completed/failed/cached counts, ETA.  The hub
publishes them:

* as an atomically-replaced JSON *snapshot file* under
  :func:`live_dir`, which ``repro-flow top`` reads from any other
  process;
* as Prometheus text (:func:`snapshot_exposition`), which the job
  server answers ``GET /metrics`` with;
* as heartbeat *staleness*: a worker whose beats stop while a job is
  executing is a hung-worker suspect (its emitter thread would keep
  beating through a merely slow job), surfaced as the
  ``exp.pool.stalled`` gauge by the pool supervisor **before** any job
  timeout fires.

The whole bus is opt-in via ``REPRO_TELEMETRY`` (truthy, or a
directory path for the snapshots) or ``Config.telemetry``, and
zero-cost when off: no hub, no snapshot files, and no emitter
thread or span hook in the workers of a sweep -- each dispatch tells
its worker whether the parent listens.
``benchmarks/test_trace_overhead.py`` holds the enabled path to the
same <5 % budget as the rest of the stack.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from . import metrics as metrics_mod

__all__ = [
    "ENV_HB_INTERVAL", "ENV_TELEMETRY", "STALL_FACTOR", "TelemetryHub",
    "TelemetryEmitter", "hb_interval", "job_id",
    "live_dir", "load_sessions", "prometheus_text", "render_top",
    "session_hub", "shutdown", "snapshot_exposition",
]

#: Truthy enables the bus; a path value also relocates the live dir.
ENV_TELEMETRY = "REPRO_TELEMETRY"
#: Heartbeat period in seconds (default 0.5).
ENV_HB_INTERVAL = "REPRO_HB_INTERVAL"

#: A busy worker is *stalled* once its last heartbeat is older than
#: ``STALL_FACTOR`` periods -- several beats of slack so one slow
#: scheduler pass never false-positives.
STALL_FACTOR = 4.0


def _config():
    # Late import: repro.api imports repro.obs.
    from ..api.config import Config
    return Config.from_env()


def live_dir() -> Path:
    """Directory holding one snapshot file per live session."""
    return _live_dir(_config().telemetry_dir)


def _live_dir(telemetry_dir: str | None) -> Path:
    if telemetry_dir:
        return Path(telemetry_dir).expanduser()
    return Path(os.environ.get("XDG_CACHE_HOME",
                               Path.home() / ".cache")) / "repro" / "live"


def hb_interval() -> float:
    return _config().hb_interval_s


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
    """One worker's heartbeats and metric deltas, sent through ``send``.

    Owned by the pooled-worker main loop, which passes its locked pipe
    send.  :meth:`job_started` beats, then starts a thread that beats
    and sends metric deltas every ``interval`` seconds while the job
    runs.  :meth:`job_finished` stops and joins that thread before it
    sends the job's last delta and the idle beat, so no beat naming a
    job can follow the job's result, and an idle worker sends nothing.
    Every send is best-effort -- telemetry must never break a job -- so
    a send to a pipe the parent has closed is dropped.
    """

    def __init__(self, send: Callable[[tuple], None], *,
                 pid: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time):
        self._send = send
        self.pid = pid if pid is not None else os.getpid()
        self._clock = clock
        self._wall = wall
        self._job: tuple[str, str, float] | None = None  # id, kind, t0
        self._ms = None
        self._last_rows: dict[tuple[str, str], dict[str, Any]] = {}
        self._served = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- job bracketing (called by the worker main loop) ----------------
    def job_started(self, jid: str, kind: str, metric_set=None, *,
                    interval: float) -> None:
        self._job = (jid, kind, self._clock())
        self._ms = metric_set
        self._last_rows = {}
        self.beat()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        args=(interval,), daemon=True,
                                        name="repro-heartbeat")
        self._thread.start()

    def job_finished(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._send_metric_delta()
        self._job = None
        self._ms = None
        self._served += 1
        self.beat()

    # -- event producers -------------------------------------------------
    def _emit(self, event: tuple) -> None:
        try:
            self._send(event)
        except OSError:
            pass

    def beat(self) -> None:
        if self._job is None:
            jid, kind, age = None, None, 0.0
        else:
            jid, kind, t0 = self._job
            age = max(0.0, self._clock() - t0)
        self._emit(("hb", self.pid, jid, kind, age,
                    metrics_mod.peak_rss_kb(), self._served, self._wall()))

    def _send_metric_delta(self) -> None:
        ms = self._ms
        if ms is None:
            return
        try:
            rows = ms.export()
        except RuntimeError:    # set mutated mid-export; skip this beat
            return
        last = self._last_rows
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
        self._last_rows = cur
        if delta:
            self._emit(("mrows", self.pid, delta))

    def _loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.beat()
            self._send_metric_delta()


# ---------------------------------------------------------------------------
# Parent side: the hub
# ---------------------------------------------------------------------------

class TelemetryHub:
    """Folds telemetry events into one consistent live snapshot.

    The scheduler reports batch lifecycle directly (authoritative
    counts) and folds in the heartbeats, spans and metric deltas its
    workers send (:meth:`record_event`).  All state lives behind one
    lock, so :meth:`snapshot` is consistent no matter which thread
    asks.  ``clock``/``wall`` are injectable for deterministic tests.
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
        self._workers: dict[int, dict[str, Any]] = {}
        self._stages: dict[str, dict[str, float]] = {}
        self._metrics = metrics_mod.MetricSet()
        self._batch: dict[str, Any] | None = None
        self._totals = {"batches": 0, "jobs": 0, "completed": 0,
                        "failed": 0, "cached": 0}
        self._state = "idle"
        self._started_wall = wall()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @classmethod
    def for_config(cls, config) -> "TelemetryHub":
        """This process's hub as a :class:`~repro.api.Config` sets it
        up: publishing ``live-<pid>.json`` under the live dir when
        telemetry is on, and nowhere when it is off."""
        path = None
        if config.telemetry:
            path = (_live_dir(config.telemetry_dir)
                    / f"live-{os.getpid()}.json")
        return cls(path, hb_interval_s=config.hb_interval_s)

    # -- scheduler-facing lifecycle --------------------------------------
    def batch_started(self, n_jobs: int, *, workers: int = 1,
                      cached: int = 0) -> None:
        with self._lock:
            self._state = "running"
            self._batch = {
                "n_jobs": n_jobs, "workers": workers, "cached": cached,
                "completed": 0, "failed": 0,
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
                    "failed": b["failed"],
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

    # -- background publish thread ---------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-telemetry-hub")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            self._state = "done"
        self.write_snapshot()

    def _loop(self) -> None:
        while not self._stop.wait(self.hb_interval_s):
            self.write_snapshot()


# ---------------------------------------------------------------------------
# Session singleton (one hub per live dir, created on first use)
# ---------------------------------------------------------------------------

_HUBS: dict[str, TelemetryHub] = {}
_hubs_lock = threading.Lock()
_atexit_registered = False


def session_hub() -> TelemetryHub | None:
    """This process's hub, or ``None`` while telemetry is disabled."""
    config = _config()
    if not config.telemetry:
        return None
    key = str(_live_dir(config.telemetry_dir))
    with _hubs_lock:
        hub = _HUBS.get(key)
        if hub is None:
            hub = TelemetryHub.for_config(config)
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
            f"(+{b.get('cached', 0)} cached, "
            f"{b.get('failed', 0)} failed)   "
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

#: Content type of :func:`snapshot_exposition` over HTTP.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

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
            ("failed", "batch jobs that failed"),
            ("cached", "batch jobs served from cache"),
            ("throughput_jps", "completed jobs per second"),
            ("eta_s", "estimated seconds to batch completion")):
        if field in b:
            extra[f"live.batch.{field}"] = (float(b[field]), help_text)
    return prometheus_text(snap.get("metrics") or [],
                           extra_gauges=extra)

