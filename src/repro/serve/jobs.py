"""Job bookkeeping for the service: table, tenant queue, persistence.

Three pieces, all transport-agnostic and individually testable:

- :class:`Job` pairs one :class:`~repro.api.JobRequest` with its live
  :class:`~repro.api.JobStatus` and the per-stage progress events the
  executor appends while it runs.
- :class:`TenantQueue` orders queued jobs by ``(priority desc,
  submission order)`` and enforces a per-tenant ceiling on queued
  work, so one enthusiastic tenant cannot starve the rest of the
  queue's capacity.  The engine's pooled scheduler takes the server's
  jobs from it, sleeping on its ``wake`` connection in between.
- :class:`QueueStore` persists the queued (not yet started) jobs into
  a ``serve_queue`` table alongside the run DB, so a graceful drain
  keeps every accepted-but-unstarted job for the next server start.
"""

from __future__ import annotations

import heapq
import itertools
import json
import multiprocessing
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..api import JobRequest, JobStatus
from ..obs.rundb import default_db_path

__all__ = ["Job", "QueueStore", "QuotaExceeded", "TenantQueue"]

#: Default ceiling on queued (not yet running) jobs per tenant.
DEFAULT_TENANT_QUOTA = 16


class QuotaExceeded(Exception):
    """The tenant already has its full quota of queued jobs."""

    def __init__(self, tenant: str, quota: int):
        super().__init__(
            f"tenant {tenant!r} already has {quota} queued job(s)")
        self.tenant = tenant
        self.quota = quota


@dataclass
class Job:
    """One submitted request plus its lifecycle and progress trail."""

    id: str
    #: ``None`` once the job has finished: nothing reads it then, and a
    #: design may be up to ``MAX_BODY_BYTES`` of text.
    request: JobRequest | None
    status: JobStatus
    events: list[dict] = field(default_factory=list)

    def add_event(self, event: dict) -> None:
        self.events.append(event)

    @classmethod
    def create(cls, job_id: str, request: JobRequest,
               *, created: float | None = None) -> "Job":
        status = JobStatus(
            id=job_id, state="queued", tenant=request.tenant,
            priority=request.priority, kind=request.kind,
            created=time.time() if created is None else created)
        job = cls(id=job_id, request=request, status=status)
        job.add_event({"event": "queued", "job": job_id,
                       "t": status.created})
        return job


class TenantQueue:
    """Priority queue of queued jobs with per-tenant quotas.

    Higher ``priority`` pops first; within a priority, submission
    order.  All methods are thread-safe (the HTTP loop pushes, the
    executor thread pops).  ``wake`` turns readable on every
    :meth:`push` and :meth:`wake_up` until :meth:`clear_wake`, so a
    scheduler can wait on it beside its workers' pipes.
    """

    def __init__(self, *, quota: int = DEFAULT_TENANT_QUOTA):
        self.quota = quota
        self._heap: list[tuple[int, int, Job]] = []
        self._queued_by_tenant: dict[str, int] = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.wake, self._waker = multiprocessing.Pipe(duplex=False)
        self._woken = False

    def push(self, job: Job) -> None:
        with self._lock:
            tenant = job.request.tenant
            n = self._queued_by_tenant.get(tenant, 0)
            if n >= self.quota:
                raise QuotaExceeded(tenant, self.quota)
            self._queued_by_tenant[tenant] = n + 1
            heapq.heappush(self._heap,
                           (-job.request.priority, next(self._seq), job))
            self._signal()

    def wake_up(self) -> None:
        """Make ``wake`` readable without queueing anything."""
        with self._lock:
            self._signal()

    def clear_wake(self) -> None:
        with self._lock:
            if self._woken:
                self.wake.recv_bytes()
                self._woken = False

    def _signal(self) -> None:
        # At most one message in the pipe, however many pushes it
        # covers, so a burst of submissions can never fill it.
        if not self._woken:
            self._waker.send_bytes(b"\0")
            self._woken = True

    def pop(self) -> Job | None:
        """Next job by priority, or ``None`` if the queue is empty."""
        with self._lock:
            if not self._heap:
                return None
            _, _, job = heapq.heappop(self._heap)
            tenant = job.request.tenant
            n = self._queued_by_tenant.get(tenant, 1) - 1
            if n <= 0:
                self._queued_by_tenant.pop(tenant, None)
            else:
                self._queued_by_tenant[tenant] = n
            return job

    def drain(self) -> list[Job]:
        """Remove and return every queued job, priority order."""
        out: list[Job] = []
        with self._lock:
            while self._heap:
                out.append(heapq.heappop(self._heap)[2])
            self._queued_by_tenant.clear()
        return out

    def queued(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is None:
                return len(self._heap)
            return self._queued_by_tenant.get(tenant, 0)


_QUEUE_SCHEMA = """
CREATE TABLE IF NOT EXISTS serve_queue (
    job_id   TEXT PRIMARY KEY,
    ts       REAL NOT NULL,
    tenant   TEXT NOT NULL DEFAULT 'default',
    priority INTEGER NOT NULL DEFAULT 0,
    request  TEXT NOT NULL
);
"""


class QueueStore:
    """Queued-job persistence in the run-DB SQLite file.

    The server saves its still-queued jobs here on graceful drain and
    reloads (and clears) them on the next start, so accepted work
    survives a restart.  Lives in the same file as the run history but
    in its own table with its own connection; the run DB's append-only
    tables are never touched.
    """

    def __init__(self, path: str | None = None):
        self.path = Path(path) if path else default_db_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False)
        self._conn.execute("PRAGMA busy_timeout = 30000")
        with self._conn:
            self._conn.executescript(_QUEUE_SCHEMA)
        self._lock = threading.Lock()

    def close(self) -> None:
        self._conn.close()

    def save(self, jobs: list[Job]) -> int:
        """Persist queued jobs (idempotent per job id)."""
        rows = [(job.id, job.status.created, job.request.tenant,
                 job.request.priority,
                 json.dumps(job.request.to_json(), sort_keys=True))
                for job in jobs]
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO serve_queue "
                "(job_id, ts, tenant, priority, request) "
                "VALUES (?, ?, ?, ?, ?)", rows)
        return len(rows)

    def load(self) -> list[Job]:
        """Persisted jobs, oldest first; the table is cleared.

        A row whose request no longer parses (schema drift across a
        code upgrade) is dropped rather than wedging the restart.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, ts, request FROM serve_queue "
                "ORDER BY ts, job_id").fetchall()
            with self._conn:
                self._conn.execute("DELETE FROM serve_queue")
        jobs: list[Job] = []
        for job_id, ts, raw in rows:
            try:
                request = JobRequest.from_json(json.loads(raw))
            except (ValueError, json.JSONDecodeError):
                continue
            jobs.append(Job.create(str(job_id), request,
                                   created=float(ts)))
        return jobs

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM serve_queue").fetchone()
        return int(n)
