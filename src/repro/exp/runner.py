"""The batch experiment engine: fan jobs over worker processes.

:class:`ParallelRunner` takes a list of :class:`~repro.exp.jobspec.JobSpec`
and returns one :class:`JobResult` per spec **in submission order**,
regardless of how many worker processes computed them or in which order
they finished.  Each result carries wall-clock seconds, a cached flag,
the attempt count and, for failed jobs, a structured :class:`JobError`
(exception type, message, traceback, and whether the failure was a task
error, a timeout or a worker crash) -- one bad sweep point never takes
down the batch.

Execution
---------
A batch runs inline, in this process, when ``jobs == 1`` and no job
has a timeout.  Otherwise it runs on the shared warm worker pool
(:mod:`repro.exp.pool`): long-lived workers that outlive batches, each
sent one job at a time, with results pickled back over its pipe.  A
per-job ``timeout_s`` (on the spec or the runner) kills and replaces
an overdue worker and reports ``error.kind == "timeout"``; a worker
that dies mid-job is replaced and its job reports ``error.kind ==
"crash"``; ``JobSpec.retries`` re-runs a failed job with exponential
backoff before giving up.

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
from .cache import NullCache, ResultCache
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

    @property
    def is_timeout(self) -> bool:
        return self.kind == "timeout"

    @property
    def is_crash(self) -> bool:
        return self.kind == "crash"


class JobFailedError(RuntimeError):
    """Raised by :meth:`JobResult.unwrap`; carries the failed result."""

    def __init__(self, result: "JobResult"):
        self.result = result
        self.error = result.error
        super().__init__(
            f"job {result.spec} failed after {result.attempts} "
            f"attempt(s) [{result.error.kind}: "
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
    attempts: int = 1

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
    dropping spans when the parent enabled tracing programmatically and
    losing ``REPRO_*`` knobs set after interpreter start.  The parent
    snapshots its state here and the child applies it first thing, so
    worker spans and metrics are never dropped by the start method.
    """

    trace_enabled: bool = True
    env: dict[str, str] | None = None

    #: Environment knobs snapshotted into every worker.
    FORWARDED = (obs.ENV_TRACE, obs.ENV_RUN_DB, "REPRO_CACHE_DIR",
                 obs.live.ENV_TELEMETRY, obs.live.ENV_HB_INTERVAL)

    @classmethod
    def snapshot(cls) -> "_WorkerSettings":
        return cls(trace_enabled=obs.enabled(),
                   env={k: os.environ[k] for k in cls.FORWARDED
                        if k in os.environ})

    def apply(self) -> None:
        """Make the worker's state match the snapshot exactly.

        Forwarded keys are overwritten (and removed when absent from
        the snapshot) rather than defaulted: a persistent pool worker
        outlives many batches, so leftovers from an earlier batch must
        not shadow the parent's current environment.
        """
        obs.set_enabled(self.trace_enabled)
        env = self.env or {}
        for k in self.FORWARDED:
            if k in env:
                os.environ[k] = env[k]
            else:
                os.environ.pop(k, None)


@dataclass
class _Pending:
    """A job attempt waiting for a worker slot."""

    index: int
    attempt: int
    ready_at: float     # monotonic time before which it must not start


class ParallelRunner:
    """Run independent jobs over worker processes with result caching.

    ``jobs``          concurrent workers; ``<= 0`` means ``os.cpu_count()``.
    ``cache``         a :class:`ResultCache` to share, or ``None`` to build
                      one from ``use_cache`` (``NullCache`` when false).
    ``code_version``  override the package digest in cache keys (tests).
    ``timeout_s``     default per-job timeout for specs that set none;
                      ``None`` or non-positive means unlimited.
    ``backoff_s``     base of the exponential retry backoff: attempt
                      ``n`` waits ``backoff_s * 2**(n-1)`` before
                      re-running.
    ``start_method``  multiprocessing start method for worker processes
                      (``"fork"``, ``"spawn"``, ``"forkserver"``);
                      ``None`` uses the platform default.  Observability
                      state is forwarded explicitly (see
                      :class:`_WorkerSettings`), so spans and metrics
                      survive any start method.

    Execution is inline (in-process) only when ``jobs == 1`` and no job
    has a timeout; otherwise the warm pool keeps crashes and timeouts
    isolated in worker processes.  The runner parses no environment
    variables; :func:`default_runner` builds one from them.
    """

    def __init__(self, jobs: int = 1, *,
                 cache: ResultCache | None = None,
                 use_cache: bool = True,
                 code_version: str | None = None,
                 timeout_s: float | None = None,
                 backoff_s: float = 0.25,
                 start_method: str | None = None):
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        if cache is None:
            cache = ResultCache() if use_cache else NullCache()
        self.cache = cache
        self.code_version = code_version
        # An explicit 0 lets callers disable a timeout.
        if timeout_s is not None and timeout_s <= 0:
            timeout_s = None
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s
        self.start_method = start_method

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Execute all jobs; results align one-to-one with ``specs``."""
        keys = [spec.key(self.code_version) for spec in specs]
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
                    inline = (self.jobs == 1
                              and all(self._timeout_for(specs[i]) is None
                                      for i in pending))
                    if inline:
                        for i in pending:
                            results[i] = self._run_inline(specs[i],
                                                          keys[i])
                    else:
                        self._run_persistent(specs, keys, results,
                                             pending)
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
            if r.attempts > 1:
                ms.counter("exp.retries", r.attempts - 1)
            if not r.cached:
                ms.dist("exp.job_seconds", r.seconds)
        return results  # type: ignore[return-value]

    def run_values(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Like :meth:`run` but unwraps values, raising on any failure."""
        return [r.unwrap() for r in self.run(specs)]

    # -- policy helpers -------------------------------------------------
    def _timeout_for(self, spec: JobSpec) -> float | None:
        return spec.timeout_s if spec.timeout_s is not None \
            else self.timeout_s

    def _backoff(self, failed_attempt: int) -> float:
        return self.backoff_s * (2 ** (failed_attempt - 1))

    # -- inline path (serial, no timeouts) ------------------------------
    def _run_inline(self, spec: JobSpec, key: str) -> JobResult:
        hub = obs.live.session_hub()
        attempt = 0
        while True:
            attempt += 1
            with obs.span("exp.job", kind=spec.kind,
                          attempt=attempt) as sp:
                value, seconds, err = _execute_spec(spec)
                sp.set_attr(outcome="ok" if err is None else err.kind)
            if err is None or attempt > spec.retries:
                break
            if hub is not None:
                hub.job_retried(spec.kind)
            backoff = self._backoff(attempt)
            obs.metrics.metric_set().dist("exp.retry_wait_s", backoff)
            time.sleep(backoff)
        if err is None:
            self.cache.put(key, value)
        if hub is not None:
            hub.job_finished(spec.kind, err is None, seconds)
        return JobResult(spec=spec, key=key, value=value,
                         seconds=seconds, error=err, attempts=attempt)

    # -- pooled path (warm workers, one job per dispatch) ---------------
    def _run_persistent(self, specs: Sequence[JobSpec],
                        keys: Sequence[str],
                        results: list[JobResult | None],
                        pending_idx: list[int]) -> None:
        """Schedule the batch over the shared warm pool.

        Each idle worker is sent one job; its result streams back as
        soon as it finishes, so results are cached and spans grafted
        as they arrive.  A worker that dies or overruns its job's
        deadline is killed and replaced, and that job is charged with
        the failure (and retried if its spec allows).
        """
        from multiprocessing.connection import wait as conn_wait
        from . import pool as pool_mod

        ms = obs.metrics.metric_set()
        spawned_before = pool_mod.spawn_count()
        pl = pool_mod.get_pool(self.jobs, self.start_method)
        settings = _WorkerSettings.snapshot()
        queue: deque[_Pending] = deque(
            _Pending(i, 1, 0.0) for i in pending_idx)
        ms.gauge("exp.pool.workers", len(pl.workers))
        hub = obs.live.session_hub()
        stalled_prev: list[int] | None = None
        if hub is not None:
            hub.attach(pl.telemetry)

        def finalize(item: _Pending, value: Any, seconds: float,
                     err: JobError | None, spans: list | None = None,
                     metric_rows: list | None = None) -> None:
            spec = specs[item.index]
            if err is not None and item.attempt <= spec.retries:
                obs.emit("exp.job", seconds=seconds, kind=spec.kind,
                         attempt=item.attempt,
                         outcome=f"retry:{err.kind}")
                if hub is not None:
                    hub.job_retried(spec.kind)
                backoff = self._backoff(item.attempt)
                ms.dist("exp.retry_wait_s", backoff)
                queue.append(_Pending(item.index, item.attempt + 1,
                                      time.monotonic() + backoff))
                return
            results[item.index] = JobResult(
                spec=spec, key=keys[item.index], value=value,
                seconds=seconds, error=err, attempts=item.attempt)
            if hub is not None:
                hub.job_finished(spec.kind, err is None, seconds)
            job_id = obs.emit(
                "exp.job", seconds=seconds, kind=spec.kind,
                attempt=item.attempt,
                outcome="ok" if err is None else err.kind)
            if spans:
                obs.adopt(spans, parent_id=job_id)
            if err is None:
                if metric_rows:
                    ms.merge(metric_rows)
                self.cache.put(keys[item.index], value)

        def fail(w, kind: str) -> None:
            """Charge the worker's job, then replace the worker."""
            item, w.inflight = w.inflight, None
            elapsed = time.monotonic() - w.started_at
            if kind == "timeout":
                t = self._timeout_for(specs[item.index])
                err = JobError(exc_type="TimeoutError",
                               message=f"job exceeded timeout of {t}s",
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
            if msg[0] == "ack":
                ms.dist("exp.pool.dispatch_s",
                        max(0.0, msg[1] - w.sent_at))
                w.started_at = msg[1]
                return
            _, value, seconds, err, spans, metric_rows = msg
            item, w.inflight = w.inflight, None
            w.served += 1
            finalize(item, value, seconds, err, spans, metric_rows)

        def drain(w) -> None:
            """Handle every message the worker has sent so far."""
            try:
                while w.inflight is not None and w.conn.poll():
                    on_message(w, w.conn.recv())
            except (EOFError, OSError):
                fail(w, "crash")

        def deadline(w) -> float | None:
            if w.inflight is None:
                return None
            t = self._timeout_for(specs[w.inflight.index])
            return None if t is None else w.started_at + t

        while True:
            now = time.monotonic()
            idle = [w for w in pl.workers if w.inflight is None]
            ready = [p for p in queue if p.ready_at <= now]
            for w, item in zip(idle, ready):
                queue.remove(item)
                try:
                    pl.dispatch(w, settings, specs[item.index])
                except Exception:
                    queue.appendleft(item)
                    pl.replace(w)
                    continue
                w.inflight = item
                w.sent_at = w.started_at = now
            busy = [w for w in pl.workers if w.inflight is not None]
            if hub is not None:
                hub.progress(len(queue), len(busy))
            if not busy:
                if not queue:
                    break
                # Only backoff-delayed retries remain: sleep until the
                # soonest becomes ready.
                wake = min(p.ready_at for p in queue)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            now = time.monotonic()
            waits = [d - now for w in busy
                     if (d := deadline(w)) is not None]
            waits += [p.ready_at - now for p in queue
                      if p.ready_at > now]
            timeout = max(0.0, min(waits)) if waits else None
            if hub is not None:
                # Wake at heartbeat granularity so a hung worker is
                # noticed (and the stalled gauge raised) well before
                # any job timeout fires -- or when there is none.
                cap = 2.0 * hub.hb_interval_s
                timeout = cap if timeout is None else min(timeout, cap)
            ready_conns = conn_wait([w.conn for w in busy], timeout)
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
            if hub is not None:
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
    ``REPRO_JOB_TIMEOUT``  default per-job timeout in seconds (unset,
                           empty or invalid means no timeout)

    Invalid values fall back to the defaults rather than raising, so a
    stray environment variable can never break a batch.
    """
    # All knobs resolve through repro.api.Config, the one place the
    # `explicit arg > env > default` rule lives.
    from ..api.config import Config
    return Config.from_env().runner()
