"""Persistent warm worker pool with shared-memory result transport.

The legacy scheduler (:meth:`repro.exp.runner.ParallelRunner._run_pool`)
forks one fresh daemonic process *per job*: maximal isolation, but every
one of the hundreds of sub-millisecond jobs in a table/figure study pays
process startup, ``_WorkerSettings`` replay and a full pickle round-trip.
This module provides the throughput-oriented alternative:

* :class:`PersistentPool` spawns ``jobs`` long-lived workers once and
  keeps them alive **across batches** via the module-level registry
  (:func:`get_pool`), so a warm pool serves a new batch with zero spawn
  cost.  Workers pull *chunks* of jobs from their pipe and stream one
  result message back per job, so per-job ``timeout_s``/``retries``,
  span grafting and as-they-finish cache writes all still operate at
  job granularity.
* Crash isolation is preserved by supervision instead of per-job
  processes: a worker that dies or overruns its deadline is killed and
  **replaced**, the in-flight job is reported as a structured
  :class:`~repro.exp.runner.JobError` (``kind="crash"``/``"timeout"``),
  and the rest of its chunk is re-queued untouched (those jobs never
  started, so no retry attempt is consumed).
* Large contiguous float arrays in a result are moved through
  ``multiprocessing.shared_memory`` segments instead of being pickled
  through the pipe: the worker memcpys the array into a segment and
  sends a tiny :class:`ShmRef`; the parent maps the segment, copies the
  rows out at memory bandwidth and unlinks it.  ``REPRO_SHM_MIN_BYTES``
  tunes the cutoff (default 64 KiB; ``0`` disables the transport).

The legacy process-per-job scheduler stays selectable
(``pool="per-job"`` / ``REPRO_POOL=per-job``) as the isolation-maximal
alternative.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import time
import traceback
from collections import deque
from typing import Any, Sequence

import numpy as np

from .. import obs

__all__ = ["PersistentPool", "ShmRef", "decode_value", "encode_value",
           "get_pool", "shutdown_pools", "spawn_count"]

#: Lifetime count of pooled worker processes spawned by this process
#: (initial pool creation + crash/timeout replacements); the scheduler
#: diffs it around a batch to publish ``exp.pool.spawns``.
_spawn_total = 0


def spawn_count() -> int:
    return _spawn_total

#: Minimum array payload (bytes) that rides shared memory instead of the
#: pipe.  ``0`` (or any non-positive value) disables the transport.
ENV_SHM_MIN_BYTES = "REPRO_SHM_MIN_BYTES"
DEFAULT_SHM_MIN_BYTES = 64 * 1024

_STOP = ("stop",)


def shm_min_bytes() -> int | None:
    """The configured shared-memory cutoff; ``None`` means disabled."""
    raw = os.environ.get(ENV_SHM_MIN_BYTES)
    if raw is None:
        return DEFAULT_SHM_MIN_BYTES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_SHM_MIN_BYTES
    return value if value > 0 else None


class ShmRef:
    """Placeholder for one array moved out-of-band through shared memory."""

    __slots__ = ("name", "shape", "dtype", "nbytes")

    def __init__(self, name: str, shape: tuple, dtype: str, nbytes: int):
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.nbytes = nbytes

    def __getstate__(self):
        return (self.name, self.shape, self.dtype, self.nbytes)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype, self.nbytes = state

    def __repr__(self) -> str:
        return (f"ShmRef({self.name!r}, shape={self.shape}, "
                f"dtype={self.dtype}, nbytes={self.nbytes})")


def _untrack(shm) -> None:
    """Hand segment ownership to the receiving process.

    The creating process's resource tracker would otherwise unlink the
    segment (with a warning) when the worker exits, racing the parent's
    read.  Python >= 3.13 supports ``track=False`` at creation; on older
    versions the private-but-stable unregister hook is the standard
    workaround.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _new_segment(size: int):
    from multiprocessing import shared_memory
    try:
        shm = shared_memory.SharedMemory(create=True, size=size,
                                         track=False)
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(create=True, size=size)
        _untrack(shm)
    return shm


def encode_value(value: Any,
                 min_bytes: int | None = None) -> tuple[Any, list[str], int]:
    """Move large arrays in ``value`` into shared-memory segments.

    Returns ``(encoded, segment_names, total_bytes)`` where ``encoded``
    mirrors ``value`` with every exported array replaced by a
    :class:`ShmRef`.  Only C-contiguous non-object arrays are exported,
    so the parent-side reconstruction is bit-identical to pickling the
    original.  On any failure the original value is left in place (it
    then travels the ordinary pickle path).
    """
    if min_bytes is None:
        min_bytes = shm_min_bytes()
    names: list[str] = []
    total = 0

    def walk(v: Any) -> Any:
        nonlocal total
        if (min_bytes is not None and isinstance(v, np.ndarray)
                and v.dtype != object and v.flags.c_contiguous
                and v.nbytes >= min_bytes):
            try:
                shm = _new_segment(v.nbytes)
            except Exception:
                return v
            np.ndarray(v.shape, dtype=v.dtype, buffer=shm.buf)[...] = v
            shm.close()
            names.append(shm.name)
            total += v.nbytes
            return ShmRef(shm.name, v.shape, v.dtype.str, v.nbytes)
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, tuple):
            return tuple(walk(x) for x in v)
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            try:
                return dataclasses.replace(
                    v, **{f.name: walk(getattr(v, f.name))
                          for f in dataclasses.fields(v) if f.init})
            except Exception:
                return v
        return v

    return walk(value), names, total


def release_segments(names: Sequence[str]) -> None:
    """Unlink segments whose refs never reached the parent."""
    from multiprocessing import shared_memory
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except Exception:
            continue
        shm.close()
        try:
            shm.unlink()
        except Exception:
            pass


def decode_value(value: Any) -> tuple[Any, int]:
    """Rebuild a value encoded by :func:`encode_value`.

    Every :class:`ShmRef` is replaced by a fresh array copied out of its
    segment; the segment is closed and unlinked immediately, so no
    shared-memory names outlive the decode.  Returns ``(value, bytes)``
    where ``bytes`` is the total payload that travelled out-of-band.
    """
    from multiprocessing import shared_memory
    total = 0

    def walk(v: Any) -> Any:
        nonlocal total
        if isinstance(v, ShmRef):
            shm = shared_memory.SharedMemory(name=v.name)
            try:
                arr = np.ndarray(v.shape, dtype=np.dtype(v.dtype),
                                 buffer=shm.buf).copy()
            finally:
                shm.close()
                try:
                    shm.unlink()
                except Exception:
                    pass
            total += v.nbytes
            return arr
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, tuple):
            return tuple(walk(x) for x in v)
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            try:
                return dataclasses.replace(
                    v, **{f.name: walk(getattr(v, f.name))
                          for f in dataclasses.fields(v) if f.init})
            except Exception:
                return v
        return v

    return walk(value), total


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _pool_worker_main(conn, telem=None) -> None:
    """Long-lived worker loop: pull job chunks, stream results back.

    Protocol (all tuples, first element is the op):

    parent -> worker   ``("run", settings, [spec, ...])`` | ``("stop",)``
    worker -> parent   ``("ack", t_recv)`` once per chunk, then one
                       ``("res", value, seconds, err, spans, metrics,
                       shm_bytes)`` per job, in chunk order.

    ``t_recv`` is ``time.monotonic()`` at chunk receipt -- the monotonic
    clock is system-wide on the platforms we support, so the parent can
    subtract its send timestamp to measure dispatch latency.

    ``telem`` is the pool's out-of-band telemetry queue.  Whether it is
    *used* re-resolves per chunk from the forwarded environment
    (``REPRO_TELEMETRY`` rides :class:`_WorkerSettings`), because a
    persistent worker outlives many batches: a
    :class:`~repro.obs.live.TelemetryEmitter` streams heartbeats, span
    events and metric deltas while enabled and is torn down again the
    first chunk after the parent turns telemetry off.
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
            _, settings, specs = msg
            t_recv = time.monotonic()
            try:
                conn.send(("ack", t_recv))
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
            for spec in specs:
                tr = obs.Tracer()
                ms = obs.MetricSet()
                if emitter is not None:
                    emitter.job_started(live_mod.job_id(spec),
                                        spec.kind, ms)
                with obs.capture(tr), obs.metrics.collect(ms):
                    value, seconds, err = _execute_spec(spec)
                if emitter is not None:
                    emitter.job_finished()
                names: list[str] = []
                shm_bytes = 0
                if err is None:
                    value, names, shm_bytes = encode_value(value)
                try:
                    conn.send(("res", value, seconds, err, tr.export(),
                               ms.export(), shm_bytes))
                except (BrokenPipeError, OSError):
                    release_segments(names)
                    return
                except Exception as exc:
                    # The value itself would not pickle: report that as
                    # a task error rather than dying silently (which
                    # would look like a crash to the parent).
                    release_segments(names)
                    err = JobError(
                        exc_type=type(exc).__name__,
                        message=f"job result not picklable: {exc}",
                        traceback=traceback.format_exc())
                    conn.send(("res", None, seconds, err, tr.export(),
                               ms.export(), 0))
    except KeyboardInterrupt:
        pass
    finally:
        if emitter is not None:
            emitter.stop()
        try:
            conn.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

class _PoolWorker:
    """Supervisor-side handle for one pooled worker process."""

    __slots__ = ("proc", "conn", "inflight", "sent_at", "job_started_at",
                 "served")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        #: queue of :class:`~repro.exp.runner._Pending` dispatched and
        #: not yet answered; head is the job currently executing.
        self.inflight: deque = deque()
        self.sent_at = 0.0
        self.job_started_at = 0.0
        #: jobs this worker has completed over its lifetime (the
        #: ``exp.pool.reuse`` metric -- the per-job scheduler is pinned
        #: at 1 by construction).
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
        proc = self.ctx.Process(target=_pool_worker_main,
                                args=(child_conn, self.telemetry),
                                daemon=True)
        proc.start()
        child_conn.close()
        self.spawned += 1
        _spawn_total += 1
        return _PoolWorker(proc, parent_conn)

    def dispatch(self, worker: _PoolWorker, settings, specs) -> None:
        worker.conn.send(("run", settings, list(specs)))

    def replace(self, worker: _PoolWorker) -> _PoolWorker:
        """Kill a misbehaving worker and spawn its successor in place."""
        self._stop(worker, force=True)
        fresh = self._spawn()
        self.workers[self.workers.index(worker)] = fresh
        return fresh

    def ensure_healthy(self) -> None:
        """Replace dead workers and any abandoned mid-chunk.

        A worker left with in-flight jobs (the previous batch was
        interrupted) may still be executing stale work and would stream
        results into the wrong batch; it is killed, not reused.
        """
        for i, worker in enumerate(self.workers):
            if not worker.proc.is_alive() or worker.inflight:
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
        for worker in self.workers:
            self._stop(worker)
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
