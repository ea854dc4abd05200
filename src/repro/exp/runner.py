"""The batch experiment engine: fan jobs over worker processes.

:class:`ParallelRunner` takes a list of :class:`~repro.exp.jobspec.JobSpec`
and returns one :class:`JobResult` per spec **in submission order**,
regardless of how many worker processes computed them or in which order
they finished.  Each result carries wall-clock seconds, a cached flag
and, for failed jobs, a structured :class:`JobError` (exception type,
message, traceback, and whether the failure was a task error, a
timeout or a worker crash) -- one bad sweep point never takes down the
batch.  Every job runs once.

Execution
---------
A batch runs inline, in this process, when ``jobs == 1`` and the
runner has no timeout.  Otherwise it runs on the shared warm worker
pool (:mod:`repro.exp.pool`): long-lived workers that outlive batches,
each sent one job at a time, with results pickled back over its pipe.
The runner's ``timeout_s`` is every job's deadline: an overdue worker
is killed and replaced and its job reports ``error.kind ==
"timeout"``; a worker that dies mid-job is replaced and its job
reports ``error.kind == "crash"``.

The pooled scheduler (``ParallelRunner._serve``) takes its jobs from a
source (``_JobSource``) as they arrive.  :meth:`ParallelRunner.run`
feeds it a batch's uncached specs; the job server (:mod:`repro.serve`)
feeds it its tenant queue, on a pool it owns, so every service job
runs in a worker under the same deadlines and crash supervision.  Both
names are internal to the engine and the job server.  Each names the
live telemetry hub (:mod:`repro.obs.live`) that the scheduler folds
its workers' spans, heartbeats and metric deltas into: ``run`` the
session hub, the job server its own.

Checkpointing
-------------
Cache lookups happen in the parent before any work is dispatched, so a
warm cache never spawns a worker at all; each completed result is
written back **as it finishes**, so an interrupted sweep resumes from
the cache on the next run instead of recomputing finished points.

Every batch and job is traced through :mod:`repro.obs`: the parent
records ``exp.batch`` / ``exp.job`` spans and grafts the spans each
worker produced (flow stages, annealing, routing) under its job.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from .. import obs
from .cache import ResultCache
from .jobspec import JobSpec

__all__ = ["JobError", "JobFailedError", "JobResult", "ParallelRunner",
           "default_runner"]


@dataclass(frozen=True)
class JobError:
    """Structured failure record: what failed, and how.

    ``kind`` distinguishes the three failure classes callers react to
    differently: ``"error"`` (the task raised), ``"timeout"`` (the
    worker exceeded its deadline and was terminated) and ``"crash"``
    (the worker process died without reporting -- killed, OOM'd or
    ``os._exit``).
    """

    exc_type: str
    message: str
    traceback: str = ""
    kind: str = "error"

    def __str__(self) -> str:
        return self.traceback or f"{self.exc_type}: {self.message}"


class JobFailedError(RuntimeError):
    """Raised by :meth:`JobResult.unwrap`; carries the failed result."""

    def __init__(self, result: "JobResult"):
        self.result = result
        self.error = result.error
        super().__init__(
            f"job {result.spec} failed [{result.error.kind}: "
            f"{result.error.exc_type}]:\n{result.error}")


@dataclass
class JobResult:
    """Outcome of one job: value or captured failure, plus accounting."""

    spec: JobSpec
    key: str
    value: Any = None
    seconds: float = 0.0
    cached: bool = False
    error: JobError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        if self.error is not None:
            raise JobFailedError(self)
        return self.value


def _execute_spec(spec: JobSpec) -> tuple[Any, float, JobError | None]:
    """Run one job; never raises (top-level so workers can pickle it)."""
    from . import tasks  # late import: breaks import cycles, and under
    # spawn it (re)populates the registry inside the worker process
    t0 = time.perf_counter()
    try:
        value = tasks.execute(spec)
        return value, time.perf_counter() - t0, None
    except Exception as exc:
        err = JobError(exc_type=type(exc).__name__, message=str(exc),
                       traceback=traceback.format_exc())
        return None, time.perf_counter() - t0, err


@dataclass(frozen=True)
class _WorkerSettings:
    """Observability state a worker must replicate, start-method safe.

    Forked workers inherit module globals, but ``spawn`` workers import
    :mod:`repro` afresh and would silently fall back to defaults --
    dropping spans when the parent enabled tracing programmatically.
    The parent snapshots its state here and the child applies it first
    thing, so worker spans and metrics are never dropped by the start
    method.  Nothing is read from the environment: a task gets every
    path and knob it needs in its spec.
    """

    trace_enabled: bool = True
    #: Send each span open/close over the pipe while the job runs: the
    #: parent listens (:attr:`_JobSource.live_spans`, or a live hub).
    live_spans: bool = False
    #: Beat, and send metric deltas, at this period while the job
    #: runs; ``None`` while the live telemetry bus is off.
    heartbeat_s: float | None = None

    @classmethod
    def snapshot(cls, *, live_spans: bool = False,
                 heartbeat_s: float | None = None) -> "_WorkerSettings":
        return cls(trace_enabled=obs.enabled(), live_spans=live_spans,
                   heartbeat_s=heartbeat_s)

    def apply(self) -> None:
        """Make the worker's state match the snapshot."""
        obs.set_enabled(self.trace_enabled)


@dataclass
class _Pending:
    """One job, waiting for a worker or running on one."""

    handle: Any         # the source's own reference to the job
    spec: JobSpec


class _JobSource:
    """Where the pooled scheduler takes its jobs and sends their outcomes.

    :meth:`take` hands out the next job as ``(handle, spec)``; the
    scheduler (:meth:`ParallelRunner._serve`) runs it once and passes
    its outcome to :meth:`finish`.  The scheduler returns once
    :meth:`closed` holds and no job is in flight or waiting to be
    sent.  If it raises instead (say a replacement worker cannot be
    forked), the jobs taken and not finished are the source's to
    account for.

    ``wake``        a connection that turns readable when a job arrives
                    or the source closes; ``None`` for a source that
                    never grows while the scheduler waits (a batch).
    ``live_spans``  forward each running job's span opens and closes
                    to :meth:`span` as they happen.
    """

    wake = None
    live_spans = False

    def take(self) -> tuple[Any, JobSpec] | None:
        """The next job to start, or ``None`` if none is ready."""
        raise NotImplementedError

    def closed(self) -> bool:
        """True once :meth:`take` will never return a job again."""
        raise NotImplementedError

    def queued(self) -> int:
        """Jobs waiting in the source (live progress only)."""
        return 0

    def clear_wake(self) -> None:
        """Consume the signal that made ``wake`` readable."""

    def span(self, item: _Pending, pid: int, phase: str, name: str,
             t_wall: float, seconds: float) -> None:
        """One span open/close of a running job (``live_spans``)."""

    def finish(self, item: _Pending, value: Any, seconds: float,
               err: JobError | None, spans: list | None,
               metric_rows: list | None) -> None:
        """The outcome of ``item``."""
        raise NotImplementedError


class _Batch(_JobSource):
    """The uncached specs of one :meth:`ParallelRunner.run` call.

    Results land in submission order; each is cached as it arrives,
    and its worker's spans and metrics are grafted under its
    ``exp.job`` span.
    """

    def __init__(self, specs: Sequence[JobSpec], keys: Sequence[str],
                 results: list, pending_idx: list[int], cache) -> None:
        self._specs = specs
        self._keys = keys
        self._results = results
        self._todo = deque(pending_idx)
        self._cache = cache

    def take(self) -> tuple[int, JobSpec] | None:
        if not self._todo:
            return None
        i = self._todo.popleft()
        return i, self._specs[i]

    def closed(self) -> bool:
        return not self._todo

    def queued(self) -> int:
        return len(self._todo)

    def finish(self, item, value, seconds, err, spans, metric_rows):
        i = item.handle
        self._results[i] = JobResult(
            spec=item.spec, key=self._keys[i], value=value,
            seconds=seconds, error=err)
        job_id = obs.emit(
            "exp.job", seconds=seconds, kind=item.spec.kind,
            outcome="ok" if err is None else err.kind)
        if spans:
            obs.adopt(spans, parent_id=job_id)
        if err is None:
            if metric_rows:
                obs.metrics.metric_set().merge(metric_rows)
            self._cache.put(self._keys[i], value)


class ParallelRunner:
    """Run independent jobs over worker processes with result caching.

    ``jobs``          concurrent workers; ``<= 0`` means ``os.cpu_count()``.
    ``cache``         the result cache; ``None`` builds a default
                      :class:`ResultCache`, ``NullCache()`` caches
                      nothing.
    ``timeout_s``     every job's deadline in seconds; ``None`` or
                      non-positive means unlimited.
    ``start_method``  multiprocessing start method for worker processes
                      (``"fork"``, ``"spawn"``, ``"forkserver"``);
                      ``None`` uses the platform default.  Observability
                      state is forwarded explicitly (see
                      :class:`_WorkerSettings`), so spans and metrics
                      survive any start method.

    Execution is inline (in-process) only when ``jobs == 1`` and
    ``timeout_s`` is unset; otherwise the warm pool keeps crashes and
    timeouts isolated in worker processes.  The runner parses no
    environment variables; :func:`default_runner` builds one from them.
    """

    def __init__(self, jobs: int = 1, *,
                 cache: ResultCache | None = None,
                 timeout_s: float | None = None,
                 start_method: str | None = None):
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache()
        # An explicit 0 lets callers disable a timeout.
        if timeout_s is not None and timeout_s <= 0:
            timeout_s = None
        self.timeout_s = timeout_s
        self.start_method = start_method

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Execute all jobs; results align one-to-one with ``specs``."""
        keys = [spec.key() for spec in specs]
        results: list[JobResult | None] = [None] * len(specs)
        lru_hits_before = getattr(self.cache, "lru_hits", 0)

        with obs.span("exp.batch", n_jobs=len(specs),
                      workers=self.jobs) as bsp:
            pending: list[int] = []
            for i, (spec, key) in enumerate(zip(specs, keys)):
                hit, value = self.cache.get(key)
                if hit:
                    results[i] = JobResult(spec=spec, key=key,
                                           value=value, cached=True)
                    obs.emit("exp.job", kind=spec.kind, cached=True,
                             outcome="cached")
                else:
                    pending.append(i)

            hub = obs.live.session_hub()
            if hub is not None:
                hub.batch_started(len(specs), workers=self.jobs,
                                  cached=len(specs) - len(pending))
            try:
                if pending:
                    if self.jobs == 1 and self.timeout_s is None:
                        for i in pending:
                            results[i] = self._run_inline(
                                specs[i], keys[i], hub)
                    else:
                        from .pool import get_pool
                        self._serve(_Batch(specs, keys, results, pending,
                                           self.cache),
                                    get_pool(self.jobs, self.start_method),
                                    hub, heartbeats=hub is not None)
            finally:
                if hub is not None:
                    hub.batch_finished()

            bsp.set_attr(
                cache_hits=len(specs) - len(pending),
                failures=sum(1 for r in results
                             if r is not None and not r.ok))
        ms = obs.metrics.metric_set()
        ms.counter("exp.jobs", len(specs))
        ms.counter("exp.cache_hits", len(specs) - len(pending))
        lru_delta = getattr(self.cache, "lru_hits", 0) - lru_hits_before
        if lru_delta > 0:
            ms.counter("exp.cache.lru_hits", lru_delta)
        for r in results:
            if r is None:
                continue
            if not r.ok:
                ms.counter("exp.failures")
            if not r.cached:
                ms.dist("exp.job_seconds", r.seconds)
        return results  # type: ignore[return-value]

    def run_values(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Like :meth:`run` but unwraps values, raising on any failure."""
        return [r.unwrap() for r in self.run(specs)]

    # -- inline path (serial, no timeout) -------------------------------
    def _run_inline(self, spec: JobSpec, key: str, hub) -> JobResult:
        with obs.span("exp.job", kind=spec.kind) as sp:
            value, seconds, err = _execute_spec(spec)
            sp.set_attr(outcome="ok" if err is None else err.kind)
        if err is None:
            self.cache.put(key, value)
        if hub is not None:
            hub.job_finished(spec.kind, err is None, seconds)
        return JobResult(spec=spec, key=key, value=value,
                         seconds=seconds, error=err)

    # -- pooled path (warm workers, one job per dispatch) ---------------
    def _serve(self, source: _JobSource, pl, hub=None, *,
               heartbeats: bool = False) -> None:
        """The pooled scheduler: run jobs from ``source`` on the warm
        pool ``pl`` (a :class:`~repro.exp.pool.PersistentPool`) as they
        arrive.

        Each idle worker is sent the next job from ``source``; its
        result streams back as soon as it finishes and goes to
        ``source.finish``.  A worker that dies or overruns the runner's
        deadline is killed and replaced, and that job is charged with
        the failure.  A job whose dispatch fails, because its idle
        worker died between jobs, goes to the replacement worker at
        once: the one re-send.  The loop sleeps in one
        ``connection.wait`` on the busy workers' pipes and the source's
        ``wake`` connection, and returns once the source has closed and
        every job taken from it has finished.  The caller owns ``pl``.

        ``hub`` (a :class:`~repro.obs.live.TelemetryHub`) gets the job
        lifecycle and every span the running jobs open or close.  With
        ``heartbeats`` the workers also beat and send metric deltas at
        the hub's period, and a worker whose beats stop mid-job raises
        the ``exp.pool.stalled`` gauge.
        """
        from multiprocessing.connection import wait as conn_wait
        from . import pool as pool_mod

        ms = obs.metrics.metric_set()
        spawned_before = pool_mod.spawn_count()
        heartbeat_s = hub.hb_interval_s if heartbeats else None
        settings = _WorkerSettings.snapshot(
            live_spans=source.live_spans or hub is not None,
            heartbeat_s=heartbeat_s)
        #: jobs a dead worker never received; they go before new jobs.
        unsent: deque[_Pending] = deque()
        ms.gauge("exp.pool.workers", len(pl.workers))
        stalled_prev: list[int] | None = None

        def next_job() -> _Pending | None:
            if unsent:
                return unsent.popleft()
            job = source.take()
            return None if job is None else _Pending(*job)

        def finalize(item: _Pending, value: Any, seconds: float,
                     err: JobError | None, spans: list | None = None,
                     metric_rows: list | None = None) -> None:
            if hub is not None:
                hub.job_finished(item.spec.kind, err is None, seconds)
            source.finish(item, value, seconds, err, spans, metric_rows)

        def fail(w, kind: str) -> None:
            """Charge the worker's job, then replace the worker."""
            item, w.inflight = w.inflight, None
            elapsed = time.monotonic() - w.started_at
            if kind == "timeout":
                err = JobError(
                    exc_type="TimeoutError",
                    message=f"job exceeded timeout of {self.timeout_s}s",
                    kind="timeout")
            else:
                err = JobError(
                    exc_type="WorkerCrashed",
                    message=(f"pooled worker exited with code "
                             f"{w.proc.exitcode} before returning "
                             f"a result"),
                    kind="crash")
            finalize(item, None, elapsed, err)
            pl.replace(w)
            if hub is not None:
                hub.forget_worker(w.proc.pid)

        def on_message(w, msg) -> None:
            op = msg[0]
            if op == "ack":
                ms.dist("exp.pool.dispatch_s",
                        max(0.0, msg[1] - w.sent_at))
                w.started_at = msg[1]
            elif op == "res":
                _, value, seconds, err, spans, metric_rows = msg
                item, w.inflight = w.inflight, None
                w.served += 1
                finalize(item, value, seconds, err, spans, metric_rows)
            else:               # span, hb, mrows: live telemetry
                if op == "span":
                    source.span(w.inflight, *msg[1:])
                if hub is not None:
                    hub.record_event(msg)

        def drain(w) -> None:
            """Handle every message the worker has sent so far."""
            try:
                while w.inflight is not None and w.conn.poll():
                    on_message(w, w.conn.recv())
            except (EOFError, OSError):
                fail(w, "crash")

        def deadline(w) -> float | None:
            if w.inflight is None or self.timeout_s is None:
                return None
            return w.started_at + self.timeout_s

        while True:
            now = time.monotonic()
            for w in [w for w in pl.workers if w.inflight is None]:
                item = next_job()
                if item is None:
                    break
                try:
                    pl.dispatch(w, settings, item.spec)
                except Exception:
                    unsent.appendleft(item)
                    pl.replace(w)
                    continue
                w.inflight = item
                w.sent_at = w.started_at = now
            busy = [w for w in pl.workers if w.inflight is not None]
            if hub is not None:
                hub.progress(len(unsent) + source.queued(), len(busy))
            if not busy and not unsent and source.closed():
                break
            now = time.monotonic()
            waits = [d - now for w in busy
                     if (d := deadline(w)) is not None]
            if unsent:
                # The failed worker's idle replacement takes it now.
                waits.append(0.0)
            timeout = max(0.0, min(waits)) if waits else None
            if heartbeat_s is not None:
                # Wake at heartbeat granularity so a hung worker is
                # noticed (and the stalled gauge raised) well before
                # any job timeout fires -- or when there is none.
                cap = 2.0 * heartbeat_s
                timeout = cap if timeout is None else min(timeout, cap)
            conns = [w.conn for w in busy]
            if source.wake is not None:
                conns.append(source.wake)
            ready_conns = conn_wait(conns, timeout)
            if source.wake is not None and source.wake in ready_conns:
                source.clear_wake()
            for w in busy:
                if w.conn in ready_conns:
                    drain(w)
            now = time.monotonic()
            for w in list(pl.workers):
                d = deadline(w)
                if d is None or d > now:
                    continue
                # Handle a result that raced the deadline before
                # declaring the timeout.
                drain(w)
                d = deadline(w)
                if d is not None and d <= now:
                    fail(w, "timeout")
            if heartbeat_s is not None:
                stalled = hub.stalled_pids()
                if stalled != stalled_prev:
                    ms.gauge("exp.pool.stalled", len(stalled))
                    stalled_prev = stalled

        for w in pl.workers:
            if w.served:
                ms.dist("exp.pool.reuse", w.served)
        spawned = pool_mod.spawn_count() - spawned_before
        if spawned:
            ms.counter("exp.pool.spawns", spawned)


def default_runner() -> ParallelRunner:
    """Runner configured from the environment.

    ``REPRO_JOBS``         worker count (default 1; ``0`` = all cores)
    ``REPRO_NO_CACHE``     truthy disables the result cache
    ``REPRO_CACHE_DIR``    relocates the cache (see :mod:`repro.exp.cache`)
    ``REPRO_JOB_TIMEOUT``  every job's deadline in seconds (unset,
                           empty or invalid means no timeout)

    Invalid values fall back to the defaults rather than raising, so a
    stray environment variable can never break a batch.
    """
    # All knobs resolve through repro.api.Config, the one place the
    # `explicit arg > env > default` rule lives.
    from ..api.config import Config
    return Config.from_env().runner()
