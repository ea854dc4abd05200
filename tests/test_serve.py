"""End-to-end job-server tests over real HTTP.

The acceptance path for the service: submit a design, watch per-stage
progress stream while it runs, fetch the artifact; submit the identical
design again and get the artifact back without re-execution.  Plus
graceful drain with queue persistence and resume, and jobs running in
more than one worker at once.

Jobs run in pool workers forked when the server starts, so a test that
fakes ``api.submit`` patches it before starting the server and
coordinates with the fake through fork-context ``multiprocessing``
events.
"""

import asyncio
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro import api
from repro.api import JobRequest
from repro.serve import (ArtifactStore, JobServer, ServiceClient,
                         ServiceError)
from repro.serve import server as server_mod
from tests.test_flow import COUNTER_VHDL

#: Synchronisation primitives shared with forked workers.
FORK = multiprocessing.get_context("fork")


@contextmanager
def running_server(config, *, artifact_dir=None, **kwargs):
    """A JobServer on an ephemeral port, driven by a thread's loop;
    ``artifact_dir`` goes into its config."""
    if artifact_dir is not None:
        config = dataclasses.replace(config, artifact_dir=artifact_dir)
    server = JobServer(config, port=0, **kwargs)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def drive():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    assert ready.wait(10), "server failed to start"
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(),
                                         loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


@pytest.fixture
def config(tmp_path):
    return api.Config.from_env(jobs=1,
                               cache_dir=str(tmp_path / "cache"),
                               run_db=str(tmp_path / "runs.db"))


@pytest.fixture
def config2(config):
    """Two workers: two jobs in flight at once."""
    return api.Config.from_env(jobs=2, cache_dir=config.cache_dir,
                               run_db=config.run_db)


@pytest.fixture
def artifact_dir(tmp_path):
    return str(tmp_path / "artifacts")


def wait_until(predicate, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def test_submit_twice_second_is_artifact_hit(config, artifact_dir):
    """The ISSUE acceptance test: first run executes with progress
    events; the identical resubmission is served from the store."""
    request = JobRequest(kind="flow", vhdl=COUNTER_VHDL)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)

        first = client.submit(request)
        assert first.state in ("queued", "running")
        assert not first.cached

        # Progress: the event stream carries flow.* stage spans and
        # ends with the terminal event.
        events = list(client.events(first.id))
        stage_names = {e["stage"] for e in events
                       if e.get("event") == "stage"}
        assert any(s.startswith("flow.") for s in stage_names)
        assert {"flow.synthesis", "flow.place_route"} <= stage_names
        assert events[-1]["event"] in ("done", "failed")

        first = client.wait(first.id, timeout=120)
        assert first.state == "done"
        assert not first.cached
        assert first.artifact == request.content_hash()
        health = client.health()
        assert health["workers"] == 1
        assert health["running"] == 0

        value = client.artifact(first.artifact)
        assert value["kind"] == "flow"
        assert value["value"]["summary"]["circuit"] == "counter"

        served_before = server.health()["served"]
        second = client.submit(request)
        assert second.state == "done"
        assert second.cached
        assert second.artifact == first.artifact
        # Nothing executed: the terminal state came straight from the
        # artifact store, not the executor.
        assert server.health()["served"] == served_before
        assert server.health()["cached_hits"] == 1
        assert client.artifact(second.artifact) == value


def test_experiment_over_http(config, artifact_dir):
    request = JobRequest(kind="experiment", experiment="table2",
                         dt=2e-12)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        status = client.wait(client.submit(request).id, timeout=300)
        assert status.state == "done"
        value = client.artifact(status.artifact)
        assert value["value"]["experiment"] == "table2"
        assert value["value"]["rows"]["single_fJ"] > 0


def test_artifact_store_shared_across_server_restarts(
        config, artifact_dir):
    request = JobRequest(kind="flow", vhdl=COUNTER_VHDL)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        status = client.wait(client.submit(request).id, timeout=120)
        assert status.state == "done"
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        status = client.submit(request)
        assert status.state == "done" and status.cached


def test_priority_orders_queue(config, artifact_dir, monkeypatch):
    """Higher-priority jobs start first once the worker frees up."""
    gate, entered = FORK.Event(), FORK.Event()

    def fake_submit(request, **kwargs):
        entered.set()
        gate.wait(30)
        return api.Result(kind="flow", value={"ok": True})

    monkeypatch.setattr(api, "submit", fake_submit)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        # Distinct seeds keep content hashes distinct (no dedup).
        ids = [client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                        seed=100, priority=0)).id]
        # Make sure the first job occupies the worker before the
        # contenders queue up behind it.
        assert entered.wait(10)
        for i, prio in enumerate([1, 5]):
            req = JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                             seed=101 + i, priority=prio)
            ids.append(client.submit(req).id)
        gate.set()
        done = [client.wait(job_id, timeout=60) for job_id in ids]
    assert [s.state for s in done] == ["done"] * 3
    assert [s.priority for s in sorted(done, key=lambda s: s.started)] \
        == [0, 5, 1]


def test_drain_persists_queue_and_resume_runs_it(
        config, artifact_dir, monkeypatch):
    """SIGTERM semantics: in-flight finishes, queued persists; a new
    server on the same run DB resumes and executes the backlog."""
    gate = FORK.Event()
    real_submit = api.submit

    def gated_submit(request, **kwargs):
        gate.wait(30)
        return real_submit(request, **kwargs)

    monkeypatch.setattr(api, "submit", gated_submit)
    queued_req = JobRequest(kind="flow", vhdl=COUNTER_VHDL, seed=42)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        inflight = client.submit(JobRequest(kind="flow",
                                            vhdl=COUNTER_VHDL))
        assert wait_until(
            lambda: client.status(inflight.id).state == "running")
        queued = client.submit(queued_req)
        assert client.status(queued.id).state == "queued"

        server.begin_drain()
        gate.set()
        assert server._drained.wait(60)
        # In-flight finished; queued never started.
        assert client.status(inflight.id).state == "done"
        assert client.status(queued.id).state == "queued"

    monkeypatch.setattr(api, "submit", real_submit)
    with running_server(config, artifact_dir=artifact_dir) as server:
        assert server.health()["resumed"] == 1
        client = ServiceClient(port=server.port)
        # The resumed job keeps running under its persisted identity.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if ArtifactStore(artifact_dir).has(
                    queued_req.content_hash()):
                break
            time.sleep(0.1)
        assert ArtifactStore(artifact_dir).has(
            queued_req.content_hash())

    # Nothing left to resume: the queue table was cleared on load.
    with running_server(config, artifact_dir=artifact_dir) as server:
        assert server.health()["resumed"] == 0


def test_two_workers_run_two_jobs_at_once(config2, artifact_dir,
                                          monkeypatch):
    """With ``jobs=2`` both jobs execute together: each fake waits at
    a barrier only the other job can release."""
    both, gate = FORK.Barrier(2), FORK.Event()

    def fake_submit(request, **kwargs):
        both.wait(10)
        gate.wait(30)
        return api.Result(kind="flow", value={"seed": request.seed})

    monkeypatch.setattr(api, "submit", fake_submit)
    with running_server(config2, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        ids = [client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                        seed=seed)).id
               for seed in (1, 2)]
        try:
            assert wait_until(lambda: client.health()["running"] == 2)
            health = client.health()
            assert health["workers"] == 2 and health["queued"] == 0
            assert [client.status(i).state for i in ids] \
                == ["running", "running"]
        finally:
            gate.set()
        a, b = (client.wait(i, timeout=60) for i in ids)
    assert a.state == b.state == "done"
    assert a.started < b.finished and b.started < a.finished


def test_burst_of_submissions_all_complete(config, artifact_dir,
                                           monkeypatch):
    """Four clients submit at once onto four workers (more workers
    than cores, with frequent thread switches): every job runs and
    finishes, and none is left queued by a lost wake-up."""
    def fast_submit(request, **kwargs):
        return api.Result(kind="flow", value={"seed": request.seed})

    monkeypatch.setattr(api, "submit", fast_submit)
    config4 = api.Config.from_env(jobs=4, cache_dir=config.cache_dir,
                                  run_db=config.run_db)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with running_server(config4, artifact_dir=artifact_dir) as server:
            def submit_ten(tid):
                client = ServiceClient(port=server.port)
                return [client.submit(JobRequest(
                    kind="flow", vhdl=COUNTER_VHDL, seed=100 * tid + k,
                    tenant=f"t{tid}")).id for k in range(10)]

            with ThreadPoolExecutor(max_workers=4) as clients:
                futures = [clients.submit(submit_ten, tid)
                           for tid in range(4)]
                ids = [i for f in futures for i in f.result(timeout=60)]
            client = ServiceClient(port=server.port)
            states = [client.wait(i, timeout=60, poll_s=0.02).state
                      for i in ids]
            health = client.health()
    finally:
        sys.setswitchinterval(interval)
    assert states == ["done"] * 40
    assert health["workers"] == 4
    assert (health["served"], health["running"], health["queued"]) \
        == (40, 0, 0)


def test_drain_finishes_every_inflight_job(config2, artifact_dir,
                                           monkeypatch):
    gate = FORK.Event()

    def gated_submit(request, **kwargs):
        gate.wait(30)
        return api.Result(kind="flow", value={"seed": request.seed})

    monkeypatch.setattr(api, "submit", gated_submit)
    with running_server(config2, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        inflight = [client.submit(JobRequest(
            kind="flow", vhdl=COUNTER_VHDL, seed=seed)).id
            for seed in (1, 2)]
        assert wait_until(lambda: all(
            client.status(i).state == "running" for i in inflight))
        queued = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL,
                                          seed=3))
        assert client.status(queued.id).state == "queued"

        server.begin_drain()
        gate.set()
        assert server._drained.wait(60)
        assert [client.status(i).state for i in inflight] \
            == ["done", "done"]
        assert client.status(queued.id).state == "queued"
        assert len(server.store) == 1


def test_stage_events_stream_while_job_runs(config, artifact_dir,
                                            monkeypatch):
    """Progress is live: a stage's close event reaches the stream
    while its job is still running, not replayed at completion."""
    gate = FORK.Event()
    real_submit = api.submit

    def held_submit(request, **kwargs):
        result = real_submit(request, **kwargs)
        gate.wait(30)
        return result

    monkeypatch.setattr(api, "submit", held_submit)
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        job = client.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        try:
            for event in client.events(job.id):
                if (event.get("stage"), event.get("phase")) \
                        == ("flow.synthesis", "close"):
                    assert event["seconds"] >= 0
                    assert client.status(job.id).state == "running"
                    break
            else:
                pytest.fail("stream ended before flow.synthesis closed")
        finally:
            gate.set()
        assert client.wait(job.id, timeout=120).state == "done"


def test_failed_job_reports_structured_error(config, artifact_dir):
    bad = JobRequest(kind="flow",
                     vhdl="entity broken is\nport (q : out bit)\n")
    with running_server(config, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        status = client.wait(client.submit(bad).id, timeout=60)
        assert status.state == "failed"
        assert status.error is not None
        assert status.error.exc_type
        assert status.error.kind == "error"
        assert status.artifact is None


def test_job_table_keeps_only_the_latest_finished_jobs(
        config2, artifact_dir, monkeypatch):
    """Past the cap the oldest finished job is forgotten: its id is a
    404 while its artifact stays fetchable and a resubmission is a
    store hit.  A running job is kept however old it is, and a finished
    one keeps no request (a design may be ``MAX_BODY_BYTES`` long)."""
    gate = FORK.Event()

    def fake_submit(request, **kwargs):
        if request.seed == 0:
            gate.wait(30)
        return api.Result(kind="flow", value={"seed": request.seed})

    monkeypatch.setattr(api, "submit", fake_submit)
    monkeypatch.setattr(server_mod, "_MAX_FINISHED_JOBS", 3)

    def request(seed):
        return JobRequest(kind="flow", vhdl=COUNTER_VHDL, seed=seed)

    with running_server(config2, artifact_dir=artifact_dir) as server:
        client = ServiceClient(port=server.port)
        held = client.submit(request(0))
        try:
            done = [client.wait(client.submit(request(seed)).id,
                                timeout=60) for seed in range(1, 6)]
            assert [s.state for s in done] == ["done"] * 5
            assert client.status(held.id).state == "running"
            assert server.jobs[held.id].request is not None
            health = client.health()
            assert health["jobs"] <= 3 + health["running"] \
                + health["queued"]
        finally:
            gate.set()
        assert client.wait(held.id, timeout=60).state == "done"
        for forgotten in done[:3]:
            with pytest.raises(ServiceError) as exc:
                client.status(forgotten.id)
            assert exc.value.status == 404
            assert exc.value.code == "unknown_job"
        assert client.status(done[-1].id).state == "done"
        assert client.artifact(done[0].artifact)["value"] == {"seed": 1}
        again = client.submit(request(1))
        assert again.cached and again.artifact == done[0].artifact
        assert client.status(again.id).state == "done"
        assert client.health()["jobs"] == 3
        assert all(job.request is None for job in server.jobs.values())


_DAEMON_PROBE = """
import asyncio
import sys

from repro import api
from repro.serve import JobServer


async def main():
    server = JobServer(api.Config(jobs=1, cache_dir=sys.argv[1],
                                  run_db=sys.argv[2],
                                  artifact_dir=sys.argv[3]), port=0)
    assert "repro.flow.flow" not in sys.modules, "loaded before start()"
    await server.start()
    try:
        assert "repro.flow.flow" in sys.modules, \
            "the workers were forked without the flow"
        assert "scipy" not in sys.modules, "the daemon loaded SciPy"
    finally:
        await server.stop()

asyncio.run(main())
"""


def test_daemon_loads_the_flow_before_forking_its_workers(tmp_path):
    # A fresh interpreter: this one has loaded the flow and SciPy.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", _DAEMON_PROBE, str(tmp_path / "cache"),
         str(tmp_path / "runs.db"), str(tmp_path / "artifacts")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
