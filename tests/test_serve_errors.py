"""Server error paths: every failure is structured JSON with the
right HTTP status, a misbehaving client never corrupts a job, and a
job that overruns, crashes its worker or declares a hostile vector
fails alone while the daemon keeps serving."""

import dataclasses
import errno
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro.serve as serve_pkg
from repro import api
from repro.api import JobRequest, MAX_BODY_BYTES
from repro.exp import PersistentPool
from repro.flow import cli
from repro.serve import JobServer, ServiceClient, ServiceError
from repro.serve import server as server_mod
from tests.test_flow import COUNTER_VHDL
from tests.test_serve import (FORK, artifact_dir, config,  # noqa: F401
                              running_server)

#: One input port of 100,000,000 bits: far over the parser's limit.
HOSTILE_VHDL = """
entity wide is
  port (a : in std_logic_vector(99999999 downto 0);
        y : out std_logic);
end wide;
architecture rtl of wide is
begin
  y <= a(0);
end rtl;
"""


def _raw_exchange(port, payload: bytes) -> tuple[int, dict]:
    """Send raw bytes, return (status, parsed JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)


@pytest.fixture
def server(config, artifact_dir):
    with running_server(config, artifact_dir=artifact_dir) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


class TestMalformedBodies:
    def test_not_json(self, server):
        body = b"this is not json"
        status, parsed = _raw_exchange(server.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
        assert status == 400
        assert parsed["error"]["code"] == "bad_request"
        assert "JSON" in parsed["error"]["message"]

    def test_json_but_not_a_request(self, server):
        body = json.dumps([1, 2, 3]).encode()
        status, parsed = _raw_exchange(server.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
        assert status == 400
        assert parsed["error"]["code"] == "bad_request"

    def test_unknown_fields_rejected(self, server):
        body = json.dumps({"kind": "flow", "vhdl": "entity t is end;",
                           "sneaky": 1}).encode()
        status, parsed = _raw_exchange(server.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
        assert status == 400
        assert "unknown" in parsed["error"]["message"]

    def test_invalid_request_schema(self, server):
        body = json.dumps({"kind": "experiment",
                           "experiment": "fig99"}).encode()
        status, parsed = _raw_exchange(server.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
        assert status == 400
        assert parsed["error"]["code"] == "bad_request"

    def test_out_of_range_dt_is_400(self, server):
        body = json.dumps({"kind": "experiment", "experiment": "fig8",
                           "dt": 1e-15}).encode()
        status, parsed = _raw_exchange(server.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
        assert status == 400
        assert parsed["error"]["code"] == "bad_request"
        assert "dt" in parsed["error"]["message"]

    def test_bad_flow_params_are_400_and_create_no_job(self, server):
        for params in ({"bogus": 1}, {"n": "x"}):
            body = json.dumps({"kind": "flow", "vhdl": COUNTER_VHDL,
                               "params": params}).encode()
            status, parsed = _raw_exchange(server.port, (
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
            assert status == 400
            assert parsed["error"]["code"] == "bad_request"
            assert "params" in parsed["error"]["message"]
        assert server.health()["jobs"] == 0

    def test_missing_content_length_is_411(self, server):
        status, parsed = _raw_exchange(
            server.port, b"POST /jobs HTTP/1.1\r\nHost: x\r\n\r\n{}")
        assert status == 411
        assert parsed["error"]["code"] == "length_required"

    def test_oversized_body_is_413(self, server):
        # The server rejects on the declared length before reading.
        status, parsed = _raw_exchange(server.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\nx" % (MAX_BODY_BYTES + 1)))
        assert status == 413
        assert parsed["error"]["code"] == "too_large"

    def test_malformed_request_line(self, server):
        status, parsed = _raw_exchange(server.port, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert parsed["error"]["code"] == "bad_request"


class TestStalledClients:
    """A client that stops sending mid-request, or sends an oversized
    head, gets a structured error instead of holding its connection."""

    @pytest.fixture(autouse=True)
    def _short_deadline(self, monkeypatch):
        from repro.serve import server as server_mod
        monkeypatch.setattr(server_mod, "_READ_TIMEOUT_S", 0.3)

    @staticmethod
    def _stalled_exchange(port, payload: bytes) -> tuple[int, dict]:
        """Send ``payload``, keep the socket open, read the answer."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as s:
            s.sendall(payload)
            t0 = time.monotonic()
            raw = b""
            while chunk := s.recv(65536):
                raw += chunk
            assert time.monotonic() - t0 < 5
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    @pytest.mark.parametrize("payload", [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
        b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 100\r\n\r\n{\"kind\": ",
    ], ids=["head", "body"])
    def test_half_sent_request_is_408(self, server, payload):
        status, parsed = self._stalled_exchange(server.port, payload)
        assert status == 408
        assert parsed["error"]["code"] == "request_timeout"
        assert ServiceClient(port=server.port).health()["ok"] is True
        assert server.health()["jobs"] == 0

    @pytest.mark.parametrize("head", [
        b"X-Pad: 1\r\n" * 101,
        b"X-Pad: " + b"1" * 70_000 + b"\r\n",
    ], ids=["lines", "long_line"])
    def test_oversized_head_is_431(self, server, head):
        status, parsed = self._stalled_exchange(
            server.port, b"GET /healthz HTTP/1.1\r\n" + head)
        assert status == 431
        assert parsed["error"]["code"] == "headers_too_large"
        ok = b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 100
        status, parsed = _raw_exchange(server.port, ok + b"\r\n")
        assert status == 200 and parsed["ok"] is True


class TestLookupErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.status("deadbeef00000000")
        assert exc.value.status == 404
        assert exc.value.code == "unknown_job"

    def test_unknown_job_events_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            list(client.events("deadbeef00000000"))
        assert exc.value.status == 404
        assert exc.value.code == "unknown_job"

    def test_artifact_miss_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.artifact("0" * 64)
        assert exc.value.status == 404
        assert exc.value.code == "unknown_artifact"

    def test_malformed_artifact_key_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.artifact("../../etc/passwd")
        assert exc.value.status == 400

    def test_unrouted_path_is_404(self, server):
        status, parsed = _raw_exchange(
            server.port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status == 404
        assert parsed["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server):
        status, parsed = _raw_exchange(
            server.port, b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status == 405
        status, parsed = _raw_exchange(server.port, (
            b"POST /healthz HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\n\r\n"))
        assert status == 405
        assert parsed["error"]["code"] == "method_not_allowed"


def test_metrics_is_strict_exposition_and_get_only(server):
    from repro.obs import live
    from tests.test_live import parse_prometheus
    url = f"http://127.0.0.1:{server.port}/metrics"
    with urllib.request.urlopen(url, timeout=10) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"] == live.PROM_CONTENT_TYPE
        samples, types = parse_prometheus(resp.read().decode())
    assert samples[("repro_live_session_pid", ())] == os.getpid()
    assert types["repro_live_stalled_workers"] == "gauge"
    status, parsed = _raw_exchange(server.port, (
        b"POST /metrics HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 0\r\n\r\n"))
    assert status == 405
    assert parsed["error"]["code"] == "method_not_allowed"


def test_quota_exceeded_is_429(config, artifact_dir, monkeypatch):
    gate, entered = FORK.Event(), FORK.Event()

    def fake_submit(request, **kwargs):
        entered.set()
        gate.wait(30)
        return api.Result(kind="flow", value={"ok": True})

    monkeypatch.setattr(api, "submit", fake_submit)
    with running_server(config, artifact_dir=artifact_dir,
                        quota=1) as server:
        client = ServiceClient(port=server.port)
        running = client.submit(JobRequest(kind="flow",
                                           vhdl=COUNTER_VHDL, seed=1))
        assert entered.wait(10)      # occupies the worker, not quota
        queued = client.submit(JobRequest(kind="flow",
                                          vhdl=COUNTER_VHDL, seed=2))
        with pytest.raises(ServiceError) as exc:
            client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                     seed=3))
        assert exc.value.status == 429
        assert exc.value.code == "quota_exceeded"
        assert "default" in exc.value.message
        # Another tenant has its own quota and is unaffected.
        other = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                         seed=3, tenant="other"))
        gate.set()
        for job_id in (running.id, queued.id, other.id):
            assert client.wait(job_id, timeout=60).state == "done"
        # The rejected job left no residue in the job table.
        assert server.health()["jobs"] == 3


def test_client_disconnect_mid_stream_job_completes(
        config, artifact_dir, monkeypatch):
    """Hanging up on the event stream must not kill the job."""
    gate, entered = FORK.Event(), FORK.Event()

    def fake_submit(request, **kwargs):
        entered.set()
        gate.wait(30)
        return api.Result(kind="flow", value={"ok": True})

    monkeypatch.setattr(api, "submit", fake_submit)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        job = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        assert entered.wait(10)
        # Open the stream, read one line, slam the socket shut.
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as s:
            s.sendall(b"GET /jobs/%s/events HTTP/1.1\r\n"
                      b"Host: x\r\n\r\n" % job.id.encode())
            assert s.recv(1024)      # headers + first event(s)
        gate.set()
        status = client.wait(job.id, timeout=60)
        assert status.state == "done"
        # The server is still healthy and answering.
        assert client.health()["ok"] is True


def test_draining_rejects_new_submissions_with_503(
        config, artifact_dir):
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        server.begin_drain()
        assert client.health()["state"] == "draining"
        with pytest.raises(ServiceError) as exc:
            client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        assert exc.value.status == 503
        assert exc.value.code == "draining"


def test_timeout_failure_reports_kind_timeout(
        config, artifact_dir, monkeypatch):
    """A job past ``Config.job_timeout_s`` has its worker killed and
    replaced; the replacement serves the next job."""
    def slow_submit(request, **kwargs):
        if request.seed == 1:
            time.sleep(30)
        return api.Result(kind="flow", value={"ok": True})

    monkeypatch.setattr(api, "submit", slow_submit)
    config = dataclasses.replace(config, job_timeout_s=0.5)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        t0 = time.monotonic()
        job = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        status = client.wait(job.id, timeout=30, poll_s=0.05)
        assert time.monotonic() - t0 < 10
        assert status.state == "failed"
        assert status.error.kind == "timeout"
        assert status.error.exc_type == "TimeoutError"
        assert "0.5s" in status.error.message
        after = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                         seed=2))
        assert client.wait(after.id, timeout=30).state == "done"
        assert client.health()["workers"] == 1


def test_worker_crash_reports_kind_crash(config, artifact_dir,
                                         monkeypatch):
    def crashing_submit(request, **kwargs):
        if request.seed == 13:
            os._exit(3)
        return api.Result(kind="flow", value={"ok": True})

    monkeypatch.setattr(api, "submit", crashing_submit)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        crashed = client.wait(client.submit(JobRequest(
            kind="flow", vhdl=COUNTER_VHDL, seed=13)).id, timeout=30)
        assert crashed.state == "failed"
        assert crashed.error.kind == "crash"
        assert crashed.error.exc_type == "WorkerCrashed"
        assert crashed.artifact is None
        after = client.wait(client.submit(JobRequest(
            kind="flow", vhdl=COUNTER_VHDL, seed=14)).id, timeout=30)
        assert after.state == "done"
        health = client.health()
        assert health["ok"] is True
        assert health["workers"] == 1 and health["running"] == 0


def test_stream_ends_after_a_worker_is_replaced(config, artifact_dir,
                                                monkeypatch):
    """A worker forked to replace a dead one starts with copies of
    every socket open at that moment; an event stream open then must
    still end at its job's terminal event."""
    gate = FORK.Event()

    def fake_submit(request, **kwargs):
        if request.seed == 13:
            os._exit(3)
        gate.wait(30)
        return api.Result(kind="flow", value={"ok": True})

    monkeypatch.setattr(api, "submit", fake_submit)
    config = dataclasses.replace(config, jobs=2)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port, timeout=10)
        held = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        events = client.events(held.id)
        assert next(events)["event"] == "queued"
        crashed = client.wait(client.submit(JobRequest(
            kind="flow", vhdl=COUNTER_VHDL, seed=13)).id, timeout=30)
        assert crashed.error.kind == "crash"
        gate.set()
        t0 = time.monotonic()
        assert list(events)[-1]["event"] == "done"
        assert time.monotonic() - t0 < 5


def test_scheduler_failure_fails_taken_jobs_and_drains(
        config, artifact_dir, monkeypatch):
    """A worker crashes and its replacement cannot be forked, which
    ends the scheduler: the job still running elsewhere fails, the
    server reports unhealthy and refuses work, and the queued job
    persists for the next start."""
    entered = FORK.Event()
    # The crash waits until the queued job's POST has returned, so the
    # drain it causes cannot refuse that POST with a 503.
    queued_in = FORK.Event()
    real_spawn = PersistentPool._spawn

    def spawn_no_replacement(self):
        if self.spawned >= 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_spawn(self)

    def fake_submit(request, **kwargs):
        if request.seed == 13:
            queued_in.wait(30)
            os._exit(3)
        entered.set()
        time.sleep(30)

    monkeypatch.setattr(PersistentPool, "_spawn", spawn_no_replacement)
    monkeypatch.setattr(api, "submit", fake_submit)
    config = dataclasses.replace(config, jobs=2)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        held = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        assert entered.wait(10)
        crashed = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                           seed=13))
        queued = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                          seed=3))
        queued_in.set()
        status = client.wait(held.id, timeout=30)
        assert status.state == "failed"
        assert status.error.kind == "crash"
        assert status.error.exc_type == "BlockingIOError"
        assert "scheduler failed" in status.error.message
        assert client.status(crashed.id).error.kind == "crash"
        assert server._drained.wait(10)
        assert client.status(queued.id).state == "queued"
        health = client.health()
        assert health["ok"] is False
        assert health["state"] == "draining"
        assert health["running"] == 0
        with pytest.raises(ServiceError) as exc:
            client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        assert exc.value.status == 503
    monkeypatch.undo()
    with running_server(config, artifact_dir=artifact_dir) as server:
        assert server.health()["resumed"] == 1
        assert server.health()["ok"] is True


def test_timeouts_on_a_replacement_worker_leave_the_daemon_serving(
        tmp_path):
    """A real ``repro-flow serve`` daemon: two flows in a row overrun
    ``REPRO_JOB_TIMEOUT`` on its one worker slot.  The second runs on a
    replacement forked after the daemon's loop took over SIGTERM and
    SIGINT, and killing that worker must not drain the daemon."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "REPRO_JOB_TIMEOUT": "0.05"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.flow.cli", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
         "--artifact-dir", str(tmp_path / "artifacts"),
         "--run-db", str(tmp_path / "runs.db")],
        env=env, cwd=str(root), stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stderr.readline()
        port = int(re.search(r"serving on http://[^:]+:(\d+)",
                             banner).group(1))
        client = ServiceClient(port=port)
        for seed in (1, 2):
            status = client.wait(client.submit(JobRequest(
                kind="flow", vhdl=COUNTER_VHDL, seed=seed)).id,
                timeout=30, poll_s=0.02)
            assert status.state == "failed"
            assert status.error.kind == "timeout"
        health = client.health()
        assert health["ok"] is True
        assert health["state"] == "serving"
        assert health["workers"] == 1
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
        assert "drained cleanly (2 job(s) served)" in err
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class _Started(Exception):
    """Raised by the stand-in daemon in place of serving."""


def _serve_config(monkeypatch, *argv: str) -> api.Config:
    """The config ``repro-flow serve ARGV`` builds its daemon with."""
    built = []

    class StandIn:
        def __init__(self, config, **kwargs):
            built.append(config)

        async def start(self):
            raise _Started

    monkeypatch.setattr(serve_pkg, "JobServer", StandIn)
    with pytest.raises(_Started):
        cli.main(["serve", "--port", "0", *argv])
    return built[0]


def test_serve_deadline_is_env_then_default(config, artifact_dir,
                                            monkeypatch):
    assert server_mod.DEFAULT_JOB_TIMEOUT_S == 600.0
    assert _serve_config(monkeypatch).job_timeout_s == 600.0
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "45")
    assert _serve_config(monkeypatch).job_timeout_s == 45.0
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0")
    unlimited = _serve_config(monkeypatch)
    assert unlimited.job_timeout_s is None
    assert unlimited.runner().timeout_s is None
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
    assert _serve_config(monkeypatch).job_timeout_s == 600.0
    # A server built in code keeps the config it is given.
    monkeypatch.delenv("REPRO_JOB_TIMEOUT")
    server = JobServer(dataclasses.replace(config, artifact_dir=artifact_dir),
                       port=0)
    server.store.close()
    assert server.config.job_timeout_s is None
    assert server._runner.timeout_s is None


def test_serve_artifact_dir_is_flag_then_env_then_default(
        config, tmp_path, monkeypatch):
    flag, env = str(tmp_path / "flag"), str(tmp_path / "env")
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", env)
    assert _serve_config(monkeypatch, "--artifact-dir",
                         flag).artifact_dir == flag
    assert _serve_config(monkeypatch).artifact_dir == env
    monkeypatch.delenv("REPRO_ARTIFACT_DIR")
    assert _serve_config(monkeypatch).artifact_dir is None
    # The server opens its store where the config says, and a config
    # that names none gets the fixed default under the home directory.
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for where, root in ((flag, Path(flag)),
                        (None, tmp_path / "home" / ".cache" / "repro"
                         / "artifacts")):
        server = JobServer(dataclasses.replace(config, artifact_dir=where),
                           port=0)
        server.store.close()
        assert server.artifacts.root == root


def test_serve_default_deadline_fails_an_overrunning_flow(
        tmp_path, artifact_dir, monkeypatch):
    monkeypatch.setattr(server_mod, "DEFAULT_JOB_TIMEOUT_S", 0.05)
    config = _serve_config(monkeypatch, "--jobs", "1",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--run-db", str(tmp_path / "runs.db"))
    assert config.job_timeout_s == 0.05
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        status = client.wait(client.submit(JobRequest(
            kind="flow", vhdl=COUNTER_VHDL)).id, timeout=30, poll_s=0.02)
        assert status.state == "failed"
        assert status.error.kind == "timeout"
        health = client.health()
        assert health["ok"] is True
        assert health["state"] == "serving"


def test_hostile_vector_width_fails_fast(client):
    t0 = time.monotonic()
    job = client.submit(JobRequest(kind="flow", vhdl=HOSTILE_VHDL))
    status = client.wait(job.id, timeout=30, poll_s=0.01)
    assert time.monotonic() - t0 < 1.0
    assert status.state == "failed"
    assert status.error.kind == "error"
    assert "100000000" in status.error.message
    assert "1024" in status.error.message
    assert client.health()["ok"] is True
