"""Persistent warm worker pool: the engine's out-of-process scheduler.

:class:`PersistentPool` spawns ``jobs`` long-lived workers once and
keeps them alive **across batches** via the module-level registry
(:func:`get_pool`), so a warm pool serves a new batch with zero spawn
cost.  Each worker is sent one job per message and pickles its result
back over its pipe; :meth:`repro.exp.runner.ParallelRunner.run` does
the scheduling.  Crash isolation comes from supervision: a worker that
dies or overruns its job's deadline is killed and **replaced**, and the
job is reported as a structured :class:`~repro.exp.runner.JobError`
(``kind="crash"``/``"timeout"``).  Workers leave their fate to the
parent: they ignore SIGINT and, on start, let go of the signal
plumbing and sockets they inherited (:func:`_pool_worker_process`).
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import stat
import time
import traceback

from .. import obs
from ..obs import trace as trace_mod

__all__ = ["PersistentPool", "get_pool", "shutdown_pools", "spawn_count"]

#: Lifetime count of pooled worker processes spawned by this process
#: (initial pool creation + crash/timeout replacements); the scheduler
#: diffs it around a batch to publish ``exp.pool.spawns``.
_spawn_total = 0


def spawn_count() -> int:
    return _spawn_total


_STOP = ("stop",)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _pool_worker_process(conn, telem) -> None:
    """A worker process's entry point: detach, then serve jobs.

    A forked worker starts with a copy of whatever its parent holds at
    that moment, and a replacement is forked from a parent that is
    already running -- the job server's executor thread, after the
    listener is bound and asyncio has taken over SIGTERM and SIGINT.
    So, in this one place:

    - the signal wakeup fd is unset: it is the write end of the
      parent loop's self-pipe, and a signal caught here would be
      delivered to the parent;
    - SIGTERM gets its default action back, so ``terminate()`` kills;
    - SIGINT is ignored: a Ctrl-C reaches the whole process group,
      and the parent decides what it means for its workers (the job
      server drains and lets their jobs finish);
    - every inherited socket but the worker's own pipe -- listeners,
      client connections, the siblings' pipes -- is pointed at
      ``/dev/null``.  That drops the worker's reference to the socket
      without freeing the descriptor number, which the parent's
      copied socket objects still name.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    keep = conn.fileno()
    null = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir("/dev/fd")):
        if fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:
            pass                # the listing's own, now closed, fd
    os.close(null)
    _pool_worker_main(conn, telem)


def _pool_worker_main(conn, telem=None) -> None:
    """Long-lived worker loop: receive one job, send its result back.

    Protocol (all tuples, first element is the op):

    parent -> worker   ``("run", settings, spec)`` | ``("stop",)``
    worker -> parent   ``("ack", t_recv)``, then ``("res", value,
                       seconds, err, spans, metrics)``.  With
                       ``settings.live_spans`` each span the job opens
                       or closes is sent in between, as ``("span",
                       phase, name, t_wall, seconds)``.

    ``t_recv`` is ``time.monotonic()`` at job receipt -- the monotonic
    clock is system-wide on the platforms we support, so the parent can
    subtract its send timestamp to measure dispatch latency.

    ``telem`` is the pool's out-of-band telemetry queue.  Whether it is
    *used* re-resolves per job from the forwarded environment
    (``REPRO_TELEMETRY`` rides :class:`_WorkerSettings`), because a
    persistent worker outlives many batches: a
    :class:`~repro.obs.live.TelemetryEmitter` streams heartbeats, span
    events and metric deltas while enabled and is torn down again the
    first job after the parent turns telemetry off.
    """
    from ..obs import live as live_mod
    from .runner import JobError, _execute_spec
    emitter = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not msg or msg[0] == "stop":
                break
            _, settings, spec = msg
            try:
                conn.send(("ack", time.monotonic()))
            except (BrokenPipeError, OSError):
                break
            if settings is not None:
                settings.apply()
            if telem is not None:
                if live_mod.enabled() and emitter is None:
                    emitter = live_mod.TelemetryEmitter(telem)
                    emitter.start()
                elif not live_mod.enabled() and emitter is not None:
                    emitter.stop()
                    emitter = None
            tr = obs.Tracer()
            ms = obs.MetricSet()
            if emitter is not None:
                emitter.job_started(live_mod.job_id(spec), spec.kind, ms)
            live = settings is not None and settings.live_spans
            with obs.capture(tr), obs.metrics.collect(ms), \
                    (_forward_spans(conn) if live
                     else contextlib.nullcontext()):
                value, seconds, err = _execute_spec(spec)
            if emitter is not None:
                emitter.job_finished()
            try:
                conn.send(("res", value, seconds, err, tr.export(),
                           ms.export()))
            except (BrokenPipeError, OSError):
                break
            except Exception as exc:
                # The value itself would not pickle: report that as a
                # task error rather than dying silently (which would
                # look like a crash to the parent).
                err = JobError(
                    exc_type=type(exc).__name__,
                    message=f"job result not picklable: {exc}",
                    traceback=traceback.format_exc())
                conn.send(("res", None, seconds, err, tr.export(),
                           ms.export()))
    finally:
        if emitter is not None:
            emitter.stop()
        try:
            conn.close()
        except Exception:
            pass


@contextlib.contextmanager
def _forward_spans(conn):
    """Send the running job's span opens and closes to the parent.

    Chains in front of any listener already installed (the live
    telemetry emitter) and restores it when the job ends.
    """
    inner = trace_mod.span_listener()

    def listener(phase: str, span) -> None:
        if inner is not None:
            inner(phase, span)
        conn.send(("span", phase, span.name, time.time(),
                   span.seconds if phase == "close" else 0.0))

    trace_mod.set_span_listener(listener)
    try:
        yield
    finally:
        trace_mod.set_span_listener(inner)


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

class _PoolWorker:
    """Supervisor-side handle for one pooled worker process."""

    __slots__ = ("proc", "conn", "inflight", "sent_at", "started_at",
                 "served")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        #: the :class:`~repro.exp.runner._Pending` job sent and not yet
        #: answered, or ``None`` when the worker is idle.
        self.inflight = None
        self.sent_at = 0.0
        self.started_at = 0.0
        #: jobs this worker has completed over its lifetime (the
        #: ``exp.pool.reuse`` metric).
        self.served = 0


class PersistentPool:
    """A set of long-lived worker processes plus respawn bookkeeping.

    Scheduling lives in :meth:`repro.exp.runner.ParallelRunner`; this
    class owns process lifecycle only -- spawn, health checks between
    batches, replacement after a crash/timeout kill, and shutdown.
    """

    def __init__(self, workers: int, ctx):
        self.ctx = ctx
        self.closed = False
        self.spawned = 0
        #: Out-of-band worker->parent telemetry queue, handed to every
        #: worker at spawn.  Creating it is a pipe pair + locks (the
        #: feeder thread only starts on first ``put``), so it exists
        #: unconditionally; workers write to it only while the live
        #: telemetry bus is enabled (:mod:`repro.obs.live`), and the
        #: parent's hub drains it only when attached.
        self.telemetry = ctx.Queue()
        self.workers: list[_PoolWorker] = [self._spawn()
                                           for _ in range(workers)]

    def _spawn(self) -> _PoolWorker:
        global _spawn_total
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(target=_pool_worker_process,
                                args=(child_conn, self.telemetry),
                                daemon=True)
        proc.start()
        child_conn.close()
        self.spawned += 1
        _spawn_total += 1
        return _PoolWorker(proc, parent_conn)

    def dispatch(self, worker: _PoolWorker, settings, spec) -> None:
        worker.conn.send(("run", settings, spec))

    def replace(self, worker: _PoolWorker) -> _PoolWorker:
        """Kill a misbehaving worker and spawn its successor in place."""
        self._stop(worker, force=True)
        fresh = self._spawn()
        self.workers[self.workers.index(worker)] = fresh
        return fresh

    def ensure_healthy(self) -> None:
        """Replace dead workers and any abandoned mid-job.

        A worker left with an in-flight job (the previous batch was
        interrupted) may still be executing stale work and would send
        its result into the wrong batch; it is killed, not reused.
        """
        for i, worker in enumerate(self.workers):
            if not worker.proc.is_alive() or worker.inflight is not None:
                self._stop(worker, force=True)
                self.workers[i] = self._spawn()

    def _stop(self, worker: _PoolWorker, *, force: bool = False) -> None:
        if not force and worker.proc.is_alive():
            try:
                worker.conn.send(_STOP)
            except Exception:
                force = True
        try:
            worker.conn.close()
        except Exception:
            pass
        worker.proc.join(0.0 if force else 1.0)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(1.0)

    def close(self) -> None:
        # A worker still on a job (its batch was interrupted) would
        # only read the stop message after finishing it: kill it.
        for worker in self.workers:
            self._stop(worker, force=worker.inflight is not None)
        self.workers = []
        try:
            self.telemetry.close()
        except Exception:
            pass
        self.closed = True


#: Live pools keyed by (worker count, start method): the module-level
#: handle that keeps warm workers alive across batches and runners.
_POOLS: dict[tuple[int, str], PersistentPool] = {}


def get_pool(workers: int,
             start_method: str | None = None) -> PersistentPool:
    """The shared pool for this worker count, spawned on first use."""
    import multiprocessing as mp
    ctx = mp.get_context(start_method)
    key = (workers, ctx.get_start_method())
    pool = _POOLS.get(key)
    if pool is None or pool.closed:
        pool = _POOLS[key] = PersistentPool(workers, ctx)
    else:
        pool.ensure_healthy()
    return pool


def shutdown_pools() -> None:
    """Stop every shared pool (idempotent; registered at exit)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
