"""service-mixed: small flow jobs through the HTTP job service.

Set-up starts a ``repro-flow serve`` daemon on a free port and waits
for ``/healthz``.  Two client threads then each run a closed loop for
the run's ``--seconds``: submit a fresh BLIF job, poll
``GET /jobs/<id>`` every 20 ms until it is done, fetch its artifact;
after every third fresh job, resubmit one of the thread's own
completed requests, which must come back ``done``/``cached`` at once.
The resubmit (POST plus artifact GET) is the workload's cached
operation; it usually waits for the other client's running job.

Fresh jobs are eleven fixed ``random_logic`` circuits (6 to 16 nodes),
each submitted under a new model name, so every job is a cache miss
but every run does the same work: random circuits of one node count
differ up to 5x in flow time, which would swamp any speed change.  The
run seed orders the circuits for each client.

After the window, every artifact has been parsed, and a sample of ten
fresh jobs is re-run in-process with the cache off: each must give the
same QoR summary and bitstream SHA-256 as the service did.
"""

from __future__ import annotations

import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from flow_suite import direct_tools
from harness import ROOT, Run

from repro import api
from repro.bench import random_logic
from repro.netlist.blif import write_blif
from repro.serve import ServiceClient, ServiceError

CLIENTS = 2
#: ``random_logic`` seeds of the fresh-job circuits; circuit k has
#: 6 + k nodes.
BASE_CIRCUITS = range(11)
POLL_S = 0.02
CACHED_EVERY = 3
SMOKE_FRESH_PER_CLIENT = 2
SMOKE_CACHED_EVERY = 2
RERUN_SAMPLE = 10
START_TIMEOUT_S = 60.0


class Daemon:
    """A ``repro-flow serve`` subprocess with its stores under ``workdir``."""

    def __init__(self, workdir):
        self.log_path = workdir / "serve.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.flow.cli", "serve",
             "--port", "0",
             "--cache-dir", str(workdir / "serve-cache"),
             "--artifact-dir", str(workdir / "artifacts"),
             "--run-db", str(workdir / "serve-runs.db")],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=str(ROOT), stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f": {self.log_path.read_text()[-500:]}")
            if port is None:
                m = re.search(r"serving on http://[^:]+:(\d+)",
                              self.log_path.read_text())
                port = int(m.group(1)) if m else None
            if port is not None:
                try:
                    if ServiceClient(port=port, timeout=5).health()["ok"]:
                        return port
                except (OSError, ServiceError):
                    pass
            time.sleep(0.01)
        raise TimeoutError(f"daemon not healthy after {START_TIMEOUT_S}s")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then reap; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            self._log.close()


def setup(run: Run) -> dict:
    return {"daemon": Daemon(run.workdir)}


def teardown(state: dict) -> None:
    state["daemon"].stop()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def _artifact_ok(art) -> bool:
    value = art.get("value") if isinstance(art, dict) else None
    return (isinstance(value, dict) and art.get("kind") == "flow"
            and isinstance(value.get("summary"), dict)
            and re.fullmatch(r"[0-9a-f]{64}",
                             str(value.get("bitstream_sha256"))) is not None)


def _fresh(run: Run, client: ServiceClient, name: str, req):
    """One fresh job: POST, poll until done, fetch the artifact."""
    t0 = time.perf_counter()
    st, secs = run.call("serve.post", client.submit, req)
    run.sample("post_ms", secs * 1e3)
    polls = 0
    while not st.done:
        time.sleep(POLL_S)
        st, secs = run.call("serve.status", client.status, st.id)
        run.sample("status_ms", secs * 1e3)
        polls += 1
    latency = time.perf_counter() - t0
    seen = time.time()
    if not run.check(st.state == "done" and not st.cached,
                     f"fresh job {name} ended {st.state} "
                     f"(cached={st.cached}, error={st.error})"):
        return None
    run.sample("cold_s", latency)
    run.sample("polls", polls)
    run.sample("queue_wait_s", st.started - st.created)
    run.sample("exec_s", st.finished - st.started)
    run.sample("detect_lag_ms", (seen - st.finished) * 1e3)
    art, _ = run.call("serve.artifact", client.artifact, st.artifact)
    run.check(_artifact_ok(art), f"artifact of {name} does not parse")
    return name, req, st.artifact, art


def _cached(run: Run, client: ServiceClient, job) -> None:
    """Resubmit a completed request; it must be answered from the store.
    POST plus artifact GET is one ``warm_ms`` sample."""
    name, req, key, art = job
    t0 = time.perf_counter()
    st, post_s = run.call("serve.post_cached", client.submit, req)
    if not run.check(st.state == "done" and st.cached
                     and st.artifact == key,
                     f"resubmitted {name} was not a cached hit "
                     f"({st.state}, cached={st.cached})"):
        return
    got, art_s = run.call("serve.artifact_cached", client.artifact, key)
    total_ms = (time.perf_counter() - t0) * 1e3
    run.check(got == art, f"cached artifact of {name} changed")
    run.sample("warm_ms", total_ms)
    run.sample("post_cached_ms", post_s * 1e3)
    run.sample("artifact_ms", art_s * 1e3)


def _request(name: str, k: int) -> api.JobRequest:
    """Base circuit ``k`` as a flow job whose model is named ``name``."""
    net = random_logic(name, n_pi=6, n_po=3, n_nodes=6 + k, seed=k)
    return api.JobRequest(kind="flow", blif=write_blif(net))


def _client(run: Run, port: int, tid: int) -> list:
    """One closed-loop tenant cycling through the base circuits."""
    rng = random.Random(run.seed * 7919 + tid)
    order = rng.sample(BASE_CIRCUITS, len(BASE_CIRCUITS))
    client = ServiceClient(port=port, timeout=120)
    every = SMOKE_CACHED_EVERY if run.smoke else CACHED_EVERY
    done = []
    for n in run.passes(SMOKE_FRESH_PER_CLIENT):
        name = f"svc{run.seed}_{tid}_{n}"
        req = _request(name, order[(n - 1) % len(order)])
        job = run.attempt(f"fresh job {name}", _fresh, run, client, name,
                          req)
        if job is not None:
            done.append(job)
        if done and n % every == 0:
            run.attempt(f"cached job after {name}", _cached, run, client,
                        rng.choice(done))
    return done


def measure(run: Run, state: dict) -> None:
    port = state["daemon"].port
    t_start = run.begin()
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        futures = [pool.submit(_client, run, port, tid)
                   for tid in range(CLIENTS)]
        done = sorted((job for f in futures for job in f.result()),
                      key=lambda job: job[0])
    run.throughput(len(done), t_start, time.perf_counter())
    run.latency_layers()
    _rerun_sample(run, done)


def _rerun_sample(run: Run, done: list) -> None:
    """Service results must equal an in-process, uncached re-run."""
    cfg = api.Config.from_env(cache=False)
    rng = random.Random(run.seed)
    for name, req, _, art in rng.sample(done, min(RERUN_SAMPLE, len(done))):
        res = run.attempt(f"re-run of {name}", api.submit, req, config=cfg)
        if res is not None:
            run.check(res.value["summary"] == art["value"]["summary"]
                      and res.value["bitstream_sha256"]
                      == art["value"]["bitstream_sha256"],
                      f"{name}: service result differs from an "
                      f"in-process re-run")


def trace_layers(run: Run, state: dict) -> None:
    """The HTTP path's numbers come from the closed loop itself; the
    tools' from direct calls on one pass over the base circuits."""
    circuits = (BASE_CIRCUITS[:SMOKE_FRESH_PER_CLIENT] if run.smoke
                else BASE_CIRCUITS)
    direct_tools(run, [(f"base{k}", _request(f"base{k}", k))
                       for k in circuits])

    def med(name: str) -> float:
        return statistics.median(run.samples.get(name) or [float("nan")])

    run.layers.update({
        "serve.post_ms": med("post_ms"), "serve.status_ms": med("status_ms"),
        "serve.polls": statistics.fmean(run.samples.get("polls")
                                        or [float("nan")]),
        "serve.queue_wait_s": med("queue_wait_s"),
        "serve.exec_s": med("exec_s"),
        "serve.detect_lag_ms": med("detect_lag_ms"),
        "serve.post_cached_ms": med("post_cached_ms"),
        "serve.artifact_ms": med("artifact_ms"),
    })
