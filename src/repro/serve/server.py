"""The flow-as-a-service daemon: an asyncio HTTP front on `repro.api`.

Stdlib only.  The daemon process hosts two cooperating halves, and a
warm pool of worker processes runs the jobs:

- the **asyncio loop** speaks minimal HTTP/1.1: it parses requests,
  enforces quotas, body limits and read deadlines, answers status
  lookups from the in-memory job table (every queued and running job,
  and the latest ``_MAX_FINISHED_JOBS`` finished ones) and serves
  artifacts straight off disk.  Every error is structured JSON
  (``{"error": {"code", "message"}}``) with a meaningful status code.
- the **executor thread** is the experiment engine's one pooled
  scheduler (``ParallelRunner._serve`` in :mod:`repro.exp.runner`).
  It takes jobs off the tenant priority queue as they arrive and keeps
  up to ``Config.jobs`` of them in flight (``<= 0``: one per core),
  each in a pool worker that runs :func:`repro.api.submit` as the
  ``submit`` task kind.  ``Config.job_timeout_s`` bounds every job
  (``repro-flow serve`` defaults it to ``DEFAULT_JOB_TIMEOUT_S``): an
  overrun kills and replaces the worker and fails the job with kind
  ``timeout``; a worker that dies fails its job with kind ``crash``.
  The daemon keeps serving either way.  While a job runs, its worker
  sends the flow's ``flow.*`` / ``exp.*`` obs spans over its pipe;
  they become the per-stage progress events that ``GET
  /jobs/<id>/events`` streams.

The scheduler also folds every worker's spans -- and, with
``Config.telemetry``, its heartbeats and metric deltas -- into the
daemon's one :class:`~repro.obs.live.TelemetryHub`, which ``GET
/metrics`` renders as Prometheus text and which, with telemetry on,
publishes ``live-<pid>.json`` for ``repro-flow top``.

The workers are forked when the server starts, before it binds its
listener, and stopped when it stops.  If the scheduler itself fails
(say a replacement worker cannot be forked), the jobs it had taken
fail with kind ``crash``, ``/healthz`` reports ``ok: false`` and the
server drains.

Endpoints::

    POST /jobs              submit a JobRequest           202 (200 cached)
    GET  /jobs/<id>         JobStatus                     200 / 404
    GET  /jobs/<id>/events  NDJSON progress stream        200 / 404
    GET  /artifacts/<hash>  completed Result JSON         200 / 400 / 404
    GET  /healthz           liveness + queue counts       200
    GET  /metrics           Prometheus text exposition    200

Completed results land in the content-addressed
:class:`~repro.serve.artifacts.ArtifactStore` keyed by
``JobRequest.content_hash()``; a resubmission of identical work is
answered ``done`` immediately from the store without executing
anything.  ``SIGTERM``/``SIGINT`` trigger a graceful drain: new
submissions get 503, every in-flight job finishes, and still-queued
jobs persist to the run DB (:class:`~repro.serve.jobs.QueueStore`)
from which the next start resumes them.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import secrets
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any

from .. import api
from ..api import (JobErrorInfo, JobRequest, MAX_BODY_BYTES,
                   RequestError)
from ..exp import JobError, JobSpec, PersistentPool
from ..exp.runner import _JobSource
from ..obs import live as live_mod
from .artifacts import ArtifactStore, is_artifact_hash
from .jobs import (DEFAULT_TENANT_QUOTA, Job, QueueStore, QuotaExceeded,
                   TenantQueue)

__all__ = ["JobServer", "DEFAULT_PORT"]

DEFAULT_PORT = 8732

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 411: "Length Required",
            413: "Payload Too Large", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: How often a progress stream checks its job for fresh events (s).
_STREAM_POLL_S = 0.05

#: How long a client may take to send a request's head, and again its
#: body (s); a stalled client otherwise holds its connection forever.
_READ_TIMEOUT_S = 10.0

#: Finished jobs whose status the daemon keeps; past this the oldest
#: finished job is forgotten (``404 unknown_job``), while its artifact
#: stays in the store.  Queued and running jobs are always kept.  A
#: finished job keeps only its status and events, not its request.
_MAX_FINISHED_JOBS = 10_000

#: Per-job deadline of ``repro-flow serve`` (s) when
#: ``REPRO_JOB_TIMEOUT`` sets none.  A :class:`JobServer` built in code
#: keeps the config it is given.
DEFAULT_JOB_TIMEOUT_S = 600.0

#: Header lines accepted in one request head.
_MAX_HEADER_LINES = 100


class _HttpError(Exception):
    """Maps straight to one structured JSON error response."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


async def _before_deadline(read):
    """Await one request read, or answer 408 after ``_READ_TIMEOUT_S``."""
    try:
        return await asyncio.wait_for(read, _READ_TIMEOUT_S)
    except TimeoutError:
        raise _HttpError(408, "request_timeout",
                         f"request not received within "
                         f"{_READ_TIMEOUT_S:g} s") from None


async def _head_line(reader) -> bytes:
    """One line of a request head; 431 past the reader's line limit."""
    try:
        return await reader.readline()
    except ValueError:             # a line over asyncio's 64 KiB limit
        raise _HttpError(431, "headers_too_large",
                         "request head line too long") from None


class _ServiceJobs(_JobSource):
    """The server's queued jobs, as the pooled scheduler's job source.

    Jobs are taken in priority order until the server drains; each
    runs as a ``submit`` task with the server's config.  A finished
    job's value goes to the artifact store and its status turns
    ``done``, or ``failed`` with the engine's error kind.
    """

    live_spans = True

    def __init__(self, server: "JobServer"):
        self.server = server
        self.wake = server.queue.wake
        #: jobs taken and not yet finished, by id
        self.taken: dict[str, Job] = {}

    def take(self) -> tuple[Job, JobSpec] | None:
        srv = self.server
        job = None if srv.draining else srv.queue.pop()
        if job is None:
            return None
        status = job.status
        status.started = time.time()
        job.add_event({"event": "started", "job": job.id,
                       "t": status.started})
        status.state = "running"
        srv._running += 1
        self.taken[job.id] = job
        return job, JobSpec.make("submit", request=job.request,
                                 config=srv.config)

    def closed(self) -> bool:
        return self.server.draining

    def queued(self) -> int:
        return self.server.queue.queued()

    def clear_wake(self) -> None:
        self.server.queue.clear_wake()

    def span(self, item, pid, phase, name, t_wall, seconds) -> None:
        if not name.startswith(("flow.", "exp.")):
            return
        event: dict[str, Any] = {"event": "stage", "phase": phase,
                                 "stage": name, "t": t_wall}
        if phase == "close":
            event["seconds"] = round(seconds, 6)
        item.handle.add_event(event)

    def finish(self, item, value, seconds, err, spans, metric_rows):
        self._complete(item.handle, value, err)

    def abandon(self, err: JobError) -> None:
        """Fail every job taken and not finished (the scheduler died)."""
        for job in list(self.taken.values()):
            self._complete(job, None, err)

    def _complete(self, job: Job, value: Any, err: JobError | None):
        srv = self.server
        del self.taken[job.id]
        status = job.status
        if err is None:
            key = job.request.content_hash()
            try:
                srv.artifacts.put(key, value)
                status.artifact = key
            except Exception as exc:   # noqa: BLE001 -- becomes JobError
                err = JobError(exc_type=type(exc).__name__,
                               message=str(exc))
        if err is not None:
            status.error = JobErrorInfo(exc_type=err.exc_type,
                                        message=err.message,
                                        kind=err.kind)
        state = "done" if err is None else "failed"
        status.finished = time.time()
        event = {"event": state, "job": job.id, "t": status.finished}
        if status.artifact:
            event["artifact"] = status.artifact
        if status.error is not None:
            event["error"] = status.error.to_json()
        job.add_event(event)
        # Last: a poller or stream that sees the terminal state must
        # also see the artifact, the timestamps and the terminal event.
        status.state = state
        srv._served += 1
        srv._running -= 1
        job.finished.set()
        srv._retire(job)


class JobServer:
    """One service instance: HTTP front, queue, executor, stores."""

    def __init__(self, config: api.Config | None = None, *,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 quota: int = DEFAULT_TENANT_QUOTA):
        self.config = config if config is not None else api.Config.from_env()
        self.host = host
        self.port = port
        self.artifacts = ArtifactStore(self.config.artifact_dir)
        self.queue = TenantQueue(quota=quota)
        self.store = QueueStore(self.config.run_db)
        self.hub = live_mod.TelemetryHub.for_config(self.config)
        self.jobs: dict[str, Job] = {}
        #: ids of the finished jobs in ``jobs``, oldest first
        self._finished: deque[str] = deque()
        self._jobs_lock = threading.Lock()
        self.draining = False
        self._served = 0
        self._cached_hits = 0
        self._resumed = 0
        self._running = 0
        self._runner = self.config.runner()
        self._pool: PersistentPool | None = None
        self._fault: str | None = None   # why the scheduler died, if it did
        self._server: asyncio.base_events.Server | None = None
        self._executor: threading.Thread | None = None
        self._drained = threading.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Resume any persisted queue, fork the workers, bind, start
        the executor.

        Forking first keeps the listening socket (and the executor
        thread's state) out of the workers.  Replacements forked later
        shed what they inherit when they start (:mod:`repro.exp.pool`).
        The flow loads before the fork, so every worker shares its
        pages and no first flow job pays the import; the paper
        studies' SciPy loads in the worker that runs one.
        """
        from ..flow import flow  # noqa: F401
        for job in self.store.load():
            with self._jobs_lock:
                self.jobs[job.id] = job
            self.queue.push(job)
            self._resumed += 1
        self._pool = PersistentPool(self._runner.jobs,
                                    multiprocessing.get_context("fork"))
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
        except BaseException:
            self._pool.close()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.telemetry:
            self.hub.start()
        self._executor = threading.Thread(
            target=self._executor_loop, name="repro-serve-executor",
            daemon=True)
        self._executor.start()

    def begin_drain(self) -> None:
        """Refuse new work; let running jobs finish; persist queue."""
        self.draining = True
        self.queue.wake_up()

    async def stop(self) -> None:
        """Graceful shutdown: drain, persist, stop the workers, close
        the listener."""
        self.begin_drain()
        if self._executor is not None:
            while self._executor.is_alive():
                await asyncio.sleep(0.05)
        if self._pool is not None:
            self._pool.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.hub.stop()
        self.store.close()

    # -- executor thread -----------------------------------------------
    def _executor_loop(self) -> None:
        jobs = _ServiceJobs(self)
        try:
            self._runner._serve(jobs, self._pool, self.hub,
                                heartbeats=self.config.telemetry)
        except Exception as exc:   # noqa: BLE001 -- reported below
            # The scheduler itself failed -- say a replacement worker
            # could not be forked.  Nothing runs the queue any more:
            # fail the jobs it had taken, report unhealthy and drain,
            # which persists the queued jobs for the next start.
            traceback.print_exc(file=sys.stderr)
            self._fault = f"scheduler failed: {type(exc).__name__}: {exc}"
            jobs.abandon(JobError(exc_type=type(exc).__name__,
                                  message=self._fault, kind="crash"))
            self.begin_drain()
        finally:
            persisted = self.store.save(self.queue.drain())
            if persisted:
                self.hub.record_event(
                    ("span", os.getpid(), "close", "serve.persist",
                     time.time(), 0.0))
            self._drained.set()

    # -- submission ----------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Register one request: dedup against artifacts, else enqueue.

        Raises :class:`QuotaExceeded` when the tenant's queue quota is
        full and :class:`_HttpError` 503 while draining.
        """
        if self.draining:
            raise _HttpError(503, "draining",
                             "server is draining; resubmit later")
        job = Job.create(secrets.token_hex(8), request)
        key = request.content_hash()
        if self.artifacts.has(key):
            now = time.time()
            job.status.state = "done"
            job.status.cached = True
            job.status.artifact = key
            job.status.started = job.status.finished = now
            job.add_event({"event": "done", "job": job.id, "t": now,
                           "artifact": key, "cached": True})
            job.finished.set()
            self._cached_hits += 1
            with self._jobs_lock:
                self.jobs[job.id] = job
            self._retire(job)
            return job
        with self._jobs_lock:
            self.jobs[job.id] = job
        try:
            self.queue.push(job)
        except QuotaExceeded:
            with self._jobs_lock:
                self.jobs.pop(job.id, None)
            raise
        return job

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished and drop its request, design text
        included; forget the oldest finished jobs past
        :data:`_MAX_FINISHED_JOBS`."""
        with self._jobs_lock:
            job.request = None
            self._finished.append(job.id)
            while len(self._finished) > _MAX_FINISHED_JOBS:
                del self.jobs[self._finished.popleft()]

    # -- HTTP plumbing -------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers = await _before_deadline(
                    self._read_head(reader))
            except _HttpError as exc:
                await self._send_error(writer, exc)
                return
            try:
                await self._route(method, path, headers, reader, writer)
            except _HttpError as exc:
                await self._send_error(writer, exc)
            except Exception as exc:   # noqa: BLE001 -- last resort
                await self._send_error(writer, _HttpError(
                    500, "internal", f"{type(exc).__name__}: {exc}"))
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass                       # client went away mid-exchange
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_head(self, reader) -> tuple[str, str, dict]:
        line = (await _head_line(reader)).decode("latin-1").strip()
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "bad_request",
                             "malformed HTTP request line")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        lines = 0
        while True:
            raw = await _head_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > _MAX_HEADER_LINES:
                raise _HttpError(431, "headers_too_large",
                                 f"more than {_MAX_HEADER_LINES} "
                                 f"header lines")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(self, reader, headers: dict) -> bytes:
        raw_len = headers.get("content-length")
        if raw_len is None:
            raise _HttpError(411, "length_required",
                             "POST needs a Content-Length header")
        try:
            n = int(raw_len)
        except ValueError:
            raise _HttpError(400, "bad_request",
                             "unparseable Content-Length") from None
        if n < 0 or n > MAX_BODY_BYTES:
            raise _HttpError(
                413, "too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes")
        return await _before_deadline(reader.readexactly(n))

    async def _route(self, method: str, path: str, headers: dict,
                     reader, writer) -> None:
        path = path.split("?", 1)[0]
        if path == "/jobs":
            if method != "POST":
                raise _HttpError(405, "method_not_allowed",
                                 "submit jobs with POST /jobs")
            await self._post_job(reader, writer, headers)
            return
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "method_not_allowed", "GET only")
            await self._send_json(writer, 200, self.health())
            return
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "method_not_allowed", "GET only")
            text = live_mod.snapshot_exposition(self.hub.snapshot())
            await self._send_raw(writer, 200, text.encode(),
                                 live_mod.PROM_CONTENT_TYPE)
            return
        if path.startswith("/jobs/"):
            if method != "GET":
                raise _HttpError(405, "method_not_allowed", "GET only")
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_events(writer,
                                          rest[:-len("/events")])
            else:
                await self._send_json(writer, 200,
                                      self._job(rest).status.to_json())
            return
        if path.startswith("/artifacts/"):
            if method != "GET":
                raise _HttpError(405, "method_not_allowed", "GET only")
            await self._get_artifact(writer, path[len("/artifacts/"):])
            return
        raise _HttpError(404, "not_found", f"no route for {path}")

    def _job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, "unknown_job",
                             f"no such job {job_id!r}")
        return job

    async def _post_job(self, reader, writer, headers: dict) -> None:
        body = await self._read_body(reader, headers)
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, "bad_request",
                             f"request body is not JSON: {exc}") from None
        try:
            request = JobRequest.from_json(data)
        except RequestError as exc:
            raise _HttpError(400, exc.code, str(exc)) from None
        try:
            job = self.submit(request)
        except QuotaExceeded as exc:
            raise _HttpError(429, "quota_exceeded", str(exc)) from None
        status = 200 if job.status.done else 202
        await self._send_json(writer, status, job.status.to_json())

    async def _get_artifact(self, writer, key: str) -> None:
        if not is_artifact_hash(key):
            raise _HttpError(400, "bad_request",
                             "artifact keys are 64 hex chars")
        raw = self.artifacts.get_bytes(key)
        if raw is None:
            raise _HttpError(404, "unknown_artifact",
                             f"no artifact {key[:12]}...")
        await self._send_raw(writer, 200, raw)

    async def _stream_events(self, writer, job_id: str) -> None:
        """NDJSON progress; ends after the job's terminal event.

        A client hanging up mid-stream only ends the stream -- the job
        itself keeps running in its worker.
        """
        job = self._job(job_id)
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: application/x-ndjson\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode())
        sent = 0
        while True:
            events = job.events          # append-only list
            while sent < len(events):
                writer.write(json.dumps(events[sent],
                                        sort_keys=True).encode()
                             + b"\n")
                sent += 1
            await writer.drain()
            if job.status.done and sent >= len(job.events):
                return
            await asyncio.sleep(_STREAM_POLL_S)

    # -- responses -----------------------------------------------------
    async def _send_raw(self, writer, status: int, payload: bytes,
                        content_type: str = "application/json") -> None:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + payload)
        await writer.drain()

    async def _send_json(self, writer, status: int, value: Any) -> None:
        await self._send_raw(writer, status,
                             json.dumps(value, sort_keys=True).encode())

    async def _send_error(self, writer, exc: _HttpError) -> None:
        with contextlib.suppress(ConnectionError):
            await self._send_json(writer, exc.status, {
                "error": {"code": exc.code, "message": str(exc)}})

    # -- introspection -------------------------------------------------
    def health(self) -> dict[str, Any]:
        return {
            "ok": self._fault is None,
            "state": "draining" if self.draining else "serving",
            "queued": self.queue.queued(),
            "running": self._running,
            "workers": len(self._pool.workers) if self._pool else 0,
            "jobs": len(self.jobs),
            "served": self._served,
            "cached_hits": self._cached_hits,
            "resumed": self._resumed,
            "artifacts": {"hits": self.artifacts.hits,
                          "puts": self.artifacts.puts},
        }
