"""Live telemetry bus: hub folding, staleness, exporters, CLI.

Four contract groups, mirroring the module's promises:

* **Staleness** under an injected fake clock: a busy worker whose
  heartbeats stop goes ``stalled`` after ``STALL_FACTOR`` periods; a
  slow job that keeps beating never does, and neither does an idle
  worker.
* **Snapshot determinism**: identical event sequences through
  identical injected clocks produce byte-identical snapshots.
* **Prometheus exposition compliance**: the rendered text parses with
  a strict format-0.0.4 grammar and round-trips the published values.
* **Zero-cost when disabled**: no hub, no snapshot dir, no span
  listener, no emitter thread.

Plus the end-to-end paths: worker events riding the job pipe into the
session hub; a live pool sweep observed mid-flight through
``repro-flow top --once --json``; a frozen worker read as stalled
beside a busy peer; and the job server's one session, scraped in
flight at its ``GET /metrics`` and read back through ``top``.
"""

import json
import math
import os
import re
import threading
import time
import urllib.request

import pytest

from repro import obs
from repro.exp.cache import NullCache
from repro.exp.jobspec import JobSpec
from repro.exp.pool import shutdown_pools
from repro.exp.runner import ParallelRunner
from repro.flow.cli import main
from repro.obs import live


@pytest.fixture(autouse=True)
def _clean_hubs():
    yield
    live.shutdown()


class FakeClock:
    def __init__(self, value=100.0):
        self.value = value

    def __call__(self):
        return self.value


def _hub(clock, **kw):
    kw.setdefault("hb_interval_s", 0.5)
    kw.setdefault("wall", lambda: 1_000_000.0)
    return live.TelemetryHub(None, clock=clock, **kw)


def _hb(pid, job=None, kind=None, age=0.0, rss=1000.0, done=0,
        wall=1_000_000.0):
    return ("hb", pid, job, kind, age, rss, done, wall)


# ---------------------------------------------------------------------------
# Heartbeat staleness (fake clock)
# ---------------------------------------------------------------------------

class TestStaleness:
    def test_busy_worker_goes_stalled_after_factor_periods(self):
        clock = FakeClock()
        hub = _hub(clock)
        hub.record_event(_hb(11, job="j1", kind="selftest", age=0.2))
        assert hub.stalled_pids() == []
        clock.value += 1.9      # < 4 * 0.5 s horizon
        assert hub.stalled_pids() == []
        clock.value += 0.2      # crosses the horizon
        assert hub.stalled_pids() == [11]
        states = {w["pid"]: w["state"]
                  for w in hub.snapshot()["workers"]}
        assert states[11] == "stalled"
        assert hub.snapshot()["stalled"] == [11]

    def test_idle_worker_never_stalls(self):
        clock = FakeClock()
        hub = _hub(clock)
        hub.record_event(_hb(12))           # idle: no job id
        clock.value += 100.0
        assert hub.stalled_pids() == []

    def test_slow_job_that_keeps_beating_is_not_stalled(self):
        # The distinction the supervisor needs: a slow job's emitter
        # thread keeps beating (job age grows), a hung worker's stops.
        clock = FakeClock()
        hub = _hub(clock)
        for step in range(10):
            clock.value += 0.5
            hub.record_event(_hb(13, job="j9", kind="flow",
                                 age=0.5 * (step + 1)))
        assert hub.stalled_pids() == []
        w = hub.snapshot()["workers"][0]
        assert w["state"] == "busy" and w["job_age_s"] == 5.0

    def test_fresh_beat_recovers_a_stalled_worker(self):
        clock = FakeClock()
        hub = _hub(clock)
        hub.record_event(_hb(14, job="j1", kind="selftest"))
        clock.value += 10.0
        assert hub.stalled_pids() == [14]
        hub.record_event(_hb(14, job="j1", kind="selftest", age=10.0))
        assert hub.stalled_pids() == []

    def test_forget_worker_drops_it_from_the_snapshot(self):
        clock = FakeClock()
        hub = _hub(clock)
        hub.record_event(_hb(15, job="j1", kind="selftest"))
        clock.value += 10.0
        hub.forget_worker(15)
        assert hub.stalled_pids() == []
        assert hub.snapshot()["workers"] == []

    def test_stalled_spec_is_registered(self):
        spec = obs.REGISTRY.spec_for("exp.pool.stalled")
        assert spec is not None and spec.kind == obs.metrics.GAUGE


# ---------------------------------------------------------------------------
# Snapshot shape and determinism
# ---------------------------------------------------------------------------

def _feed(hub):
    hub.batch_started(10, workers=2, cached=3)
    hub.record_event(_hb(21, job="aaa", kind="selftest", age=0.4,
                         rss=2048.0, done=5))
    hub.record_event(_hb(22))
    hub.record_event(("span", 21, "open", "selftest.work",
                      1_000_000.0, 0.0))
    hub.record_event(("span", 21, "close", "selftest.work",
                      1_000_000.1, 0.1))
    hub.record_event(("mrows", 21, [
        {"name": "exp.selftest", "stage": "", "kind": "counter",
         "unit": "", "value": 2.0, "last": 1.0, "n": 2, "total": 2.0,
         "min": 1.0, "max": 1.0}]))
    hub.job_finished("selftest", True, 0.2)
    hub.job_finished("selftest", False, 0.1)
    hub.progress(queued=4, running=2)


class TestSnapshot:
    def test_identical_inputs_identical_snapshots(self):
        snaps = []
        for _ in range(2):
            clock = FakeClock()
            hub = _hub(clock)
            _feed(hub)
            clock.value += 1.0
            snaps.append(json.dumps(hub.snapshot(), sort_keys=True))
        assert snaps[0] == snaps[1]

    def test_snapshot_is_stable_without_clock_advance(self):
        clock = FakeClock()
        hub = _hub(clock)
        _feed(hub)
        assert hub.snapshot() == hub.snapshot()

    def test_batch_accounting(self):
        clock = FakeClock()
        hub = _hub(clock)
        _feed(hub)
        clock.value += 2.0
        b = hub.snapshot()["batch"]
        assert b["n_jobs"] == 10 and b["cached"] == 3
        assert b["completed"] == 1 and b["failed"] == 1
        assert b["queue_depth"] == 4 and b["running"] == 2
        assert b["throughput_jps"] == pytest.approx(1.0)
        # 10 jobs - 3 cached - 2 done = 5 remaining at 1 job/s
        assert b["eta_s"] == pytest.approx(5.0)

    def test_stage_folding(self):
        clock = FakeClock()
        hub = _hub(clock)
        _feed(hub)
        st = hub.snapshot()["stages"]["selftest.work"]
        assert st == {"open": 0, "closed": 1,
                      "seconds": pytest.approx(0.1)}

    def test_snapshot_survives_malformed_events(self):
        clock = FakeClock()
        hub = _hub(clock)
        hub.record_event(("hb",))                   # truncated
        hub.record_event(("span", 1, "open"))       # truncated
        hub.record_event(("mrows", 1, [{"bogus": 1}]))
        hub.record_event(("nonsense",))
        hub.record_event(_hb(31, job="x", kind="selftest"))
        assert [w["pid"] for w in hub.snapshot()["workers"]] == [31]

    def test_write_snapshot_is_atomic_and_readable(self, tmp_path):
        path = tmp_path / "live-1.json"
        hub = live.TelemetryHub(path, hb_interval_s=0.5,
                                clock=FakeClock(),
                                wall=lambda: 1_000_000.0)
        _feed(hub)
        hub.write_snapshot()
        snap = json.loads(path.read_text())
        assert snap["v"] == 1 and snap["state"] == "running"
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_load_sessions_orders_by_freshness(self, tmp_path):
        for pid, wall in ((1, 10.0), (2, 30.0), (3, 20.0)):
            (tmp_path / f"live-{pid}.json").write_text(json.dumps(
                {"v": 1, "pid": pid, "updated_wall": wall}))
        (tmp_path / "live-4.json").write_text("{ not json")
        (tmp_path / "live-5.json").write_text('{"v": 99}')
        assert [s["pid"] for s in live.load_sessions(tmp_path)] \
            == [2, 3, 1]


# ---------------------------------------------------------------------------
# The emitter (worker side), driven synchronously
# ---------------------------------------------------------------------------

class TestEmitter:
    def _emitter(self):
        sent = []
        em = live.TelemetryEmitter(sent.append, pid=77,
                                   wall=lambda: 1_000_000.0)
        return sent, em

    def test_job_bracketing_beats(self):
        sent, em = self._emitter()
        # A long period: only the bracketing beats are sent.
        em.job_started("abc123", "selftest", interval=60.0)
        [(op, pid, jid, kind, age, rss, done, wall)] = sent
        assert (op, pid, jid, kind, done) == ("hb", 77, "abc123",
                                              "selftest", 0)
        assert rss > 0       # real getrusage reading
        sent.clear()
        em.job_finished()
        [hb] = sent
        assert hb[2] is None and hb[6] == 1   # idle, served=1

    def test_beats_only_while_a_job_runs(self):
        sent, em = self._emitter()
        em.job_started("abc123", "selftest", interval=0.01)
        time.sleep(0.1)
        em.job_finished()
        beats = [e for e in sent if e[0] == "hb"]
        assert len(beats) >= 3
        assert all(b[2] == "abc123" for b in beats[:-1])
        assert beats[-1] is sent[-1] and beats[-1][2] is None
        n = len(sent)
        time.sleep(0.05)     # idle: the thread is gone
        assert len(sent) == n

    def test_metric_delta_rows_are_increments(self):
        sent, em = self._emitter()
        ms = obs.MetricSet()
        em.job_started("j", "selftest", ms, interval=60.0)
        sent.clear()
        ms.counter("exp.selftest", 3)
        ms.gauge("exp.pool.workers", 2)
        em._send_metric_delta()
        op, pid, rows = sent.pop()
        assert op == "mrows"
        by_name = {r["name"]: r for r in rows}
        assert by_name["exp.selftest"]["n"] == 1
        assert by_name["exp.selftest"]["total"] == 3.0
        # second delta only ships the increment
        ms.counter("exp.selftest", 2)
        em._send_metric_delta()
        rows = sent.pop()[2]
        assert len(rows) == 1 and rows[0]["n"] == 1 \
            and rows[0]["total"] == 2.0
        # nothing changed -> nothing sent
        em._send_metric_delta()
        assert sent == []
        em.job_finished()

    def test_gauge_delta_sends_last_write_on_change_only(self):
        sent, em = self._emitter()
        ms = obs.MetricSet()
        em.job_started("j", "selftest", ms, interval=60.0)
        sent.clear()
        ms.gauge("exp.pool.workers", 4)
        em._send_metric_delta()
        assert sent.pop()[2][0]["last"] == 4.0
        em._send_metric_delta()
        assert sent == []
        ms.gauge("exp.pool.workers", 5)
        em._send_metric_delta()
        assert sent.pop()[2][0]["last"] == 5.0
        em.job_finished()

    def test_span_listener_roundtrip_through_hub(self, tmp_path,
                                                 monkeypatch):
        # Every span a pooled job opens and closes travels over its
        # worker's pipe into the session hub's stage table.
        monkeypatch.setenv(live.ENV_TELEMETRY, str(tmp_path / "live"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        specs = [JobSpec(kind="selftest", params={"x": float(i)})
                 for i in range(6)]
        try:
            results = ParallelRunner(jobs=2, cache=NullCache()).run(specs)
        finally:
            shutdown_pools()
        assert all(r.ok for r in results)
        st = live.session_hub().snapshot()["stages"]["selftest.work"]
        assert st["open"] == 0 and st["closed"] == len(specs)
        # The listener lives in the workers, never in the parent.
        assert obs.trace.span_listener() is None

    def test_send_failures_never_propagate(self):
        def broken(_):
            raise BrokenPipeError("parent gone")

        em = live.TelemetryEmitter(broken)
        em.job_started("j", "selftest", interval=0.01)  # must not raise
        time.sleep(0.05)     # nor may the beating thread die loudly
        em.job_finished()


# ---------------------------------------------------------------------------
# Prometheus exposition: strict-grammar parse round-trip
# ---------------------------------------------------------------------------

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$")
_LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def parse_prometheus(text):
    """Strict parser for text exposition format 0.0.4.

    Returns ``{(name, labels_tuple): value}`` plus the TYPE map;
    raises AssertionError on any grammar violation.
    """
    samples, types = {}, {}
    current = None
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert _METRIC_NAME.match(name), line
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert _METRIC_NAME.match(name), line
            assert kind in ("counter", "gauge", "summary",
                            "histogram", "untyped"), line
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        m = _SAMPLE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        name = m.group("name")
        base = current
        assert base is not None and (
            name == base or (types.get(base) == "summary"
                             and name in (f"{base}_sum",
                                          f"{base}_count"))), \
            f"sample {name} outside its TYPE block"
        labels = []
        if m.group("labels"):
            for part in m.group("labels").split(","):
                lm = _LABEL.match(part)
                assert lm, f"bad label: {part!r}"
                labels.append((lm.group(1), lm.group(2)))
        value = float(m.group("value"))
        assert not math.isnan(value)
        key = (name, tuple(labels))
        assert key not in samples, f"duplicate sample {key}"
        samples[key] = value
    return samples, types


class TestPrometheus:
    def _rows(self):
        ms = obs.MetricSet()
        ms.counter("exp.jobs", 42)
        ms.gauge("exp.pool.workers", 4)
        ms.gauge("flow.fmax_MHz", 125.5, stage="sta")
        ms.dist("exp.job_seconds", 0.25)
        ms.dist("exp.job_seconds", 0.75)
        return ms.export()

    def test_round_trip_values(self):
        text = live.prometheus_text(self._rows())
        samples, types = parse_prometheus(text)
        assert types["repro_exp_jobs_total"] == "counter"
        assert samples[("repro_exp_jobs_total", ())] == 42.0
        assert types["repro_exp_pool_workers"] == "gauge"
        assert samples[("repro_exp_pool_workers", ())] == 4.0
        assert samples[("repro_flow_fmax_MHz",
                        (("stage", "sta"),))] == 125.5
        assert types["repro_exp_job_seconds"] == "summary"
        assert samples[("repro_exp_job_seconds_sum", ())] == 1.0
        assert samples[("repro_exp_job_seconds_count", ())] == 2.0

    def test_help_text_comes_from_the_registry(self):
        text = live.prometheus_text(self._rows())
        assert "# HELP repro_exp_jobs_total jobs submitted" in text

    def test_name_mangling(self):
        rows = [{"name": "exp.pool.dispatch-rate", "stage": "",
                 "kind": "gauge", "unit": "", "value": 1.0,
                 "last": 1.0, "n": 1, "total": 1.0, "min": 1.0,
                 "max": 1.0}]
        samples, _ = parse_prometheus(live.prometheus_text(rows))
        assert ("repro_exp_pool_dispatch_rate", ()) in samples

    def test_snapshot_exposition_includes_live_gauges(self):
        clock = FakeClock()
        hub = _hub(clock)
        _feed(hub)
        clock.value += 2.0
        text = live.snapshot_exposition(hub.snapshot())
        samples, types = parse_prometheus(text)
        assert samples[("repro_live_batch_queue_depth", ())] == 4.0
        assert samples[("repro_live_batch_running", ())] == 2.0
        assert samples[("repro_live_workers", ())] == 2.0
        assert samples[("repro_live_stalled_workers", ())] == 0.0
        assert types["repro_live_batch_throughput_jps"] == "gauge"
        # the streamed worker metric rows ride along
        assert samples[("repro_exp_selftest_total", ())] == 2.0


# ---------------------------------------------------------------------------
# Disabled guarantees
# ---------------------------------------------------------------------------

class TestDisabled:
    def test_live_dir_from_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(live.ENV_TELEMETRY, str(tmp_path / "x"))
        assert live.live_dir() == tmp_path / "x"
        monkeypatch.setenv(live.ENV_TELEMETRY, "1")
        assert live.live_dir().name == "live"

    def test_session_hub_is_none_when_disabled(self, monkeypatch):
        monkeypatch.delenv(live.ENV_TELEMETRY, raising=False)
        assert live.session_hub() is None

    def test_disabled_sweep_leaves_no_artifacts(self, tmp_path,
                                               monkeypatch):
        # Telemetry off: no snapshot dir, no span listener installed,
        # and the engine never creates a hub.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        d = tmp_path / "live"
        monkeypatch.delenv(live.ENV_TELEMETRY, raising=False)
        r = ParallelRunner(jobs=2, cache=NullCache())
        specs = [JobSpec(kind="selftest", params={"x": float(i)})
                 for i in range(4)]
        assert all(x.ok for x in r.run(specs))
        assert not d.exists()
        assert obs.trace.span_listener() is None
        assert live.session_hub() is None


# ---------------------------------------------------------------------------
# End to end: live pool sweep observed through the CLI
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def _start_sweep(self, n_jobs=50, sleep_s=0.25, jobs=4):
        r = ParallelRunner(jobs=jobs, cache=NullCache())
        specs = [JobSpec(kind="selftest",
                         params={"x": float(i), "sleep_s": sleep_s})
                 for i in range(n_jobs)]
        results = []
        t = threading.Thread(
            target=lambda: results.extend(r.run(specs)), daemon=True)
        t.start()
        return t, results

    def _wait_for(self, predicate, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = predicate()
            if value:
                return value
            time.sleep(0.05)
        raise AssertionError("condition not reached in time")

    def test_top_against_inflight_sweep(self, tmp_path, monkeypatch,
                                        capsys):
        d = tmp_path / "live"
        monkeypatch.setenv(live.ENV_TELEMETRY, str(d))
        monkeypatch.setenv(live.ENV_HB_INTERVAL, "0.1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        thread, results = self._start_sweep()
        try:
            def mid_flight():
                sessions = live.load_sessions(d)
                if not sessions:
                    return None
                s = sessions[0]
                b = s.get("batch") or {}
                busy = [w for w in s.get("workers", [])
                        if w["state"] == "busy"]
                if (s["state"] == "running" and busy
                        and b.get("queue_depth", 0) > 0
                        and b.get("completed", 0) > 0):
                    return s
                return None

            self._wait_for(mid_flight)

            # -- top --once --json: the acceptance-criterion view ----
            assert main(["top", "--once", "--json",
                         "--dir", str(d)]) == 0
            snap = json.loads(capsys.readouterr().out)
            b = snap["batch"]
            assert b["n_jobs"] == 50
            assert b["queue_depth"] > 0
            assert b["throughput_jps"] > 0
            busy = [w for w in snap["workers"]
                    if w["state"] == "busy"]
            assert busy, snap["workers"]
            for w in busy:
                assert re.fullmatch(r"[0-9a-f]{12}", w["job"])
                assert w["job_age_s"] >= 0.0
                assert w["kind"] == "selftest"

            # -- human view renders the same data --------------------
            assert main(["top", "--once", "--dir", str(d)]) == 0
            text = capsys.readouterr().out
            assert "repro-flow top" in text and "PID" in text
        finally:
            thread.join(timeout=60)
            shutdown_pools()
        assert len(results) == 50 and all(r.ok for r in results)

        # After the batch the snapshot settles to idle with totals.
        live.shutdown()
        snap = live.load_sessions(d)[0]
        assert snap["state"] == "done"
        assert snap["totals"]["completed"] == 50

    def test_sigstopped_worker_goes_stalled_while_its_peer_stays_busy(
            self, tmp_path, monkeypatch):
        # The hung-worker contract: a worker frozen mid-job stops
        # beating and reads ``stalled``, while its peer, slow but
        # alive, keeps beating and reads ``busy``.  Once thawed, the
        # frozen job finishes and the stall clears.
        import signal
        monkeypatch.setenv(live.ENV_TELEMETRY, str(tmp_path / "live"))
        monkeypatch.setenv(live.ENV_HB_INTERVAL, "0.05")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        hub = live.session_hub()
        thread, results = self._start_sweep(n_jobs=8, sleep_s=0.6,
                                            jobs=2)
        frozen = None
        try:
            def two_busy():
                busy = [w["pid"] for w in hub.snapshot()["workers"]
                        if w["state"] == "busy"]
                return busy if len(busy) == 2 else None

            frozen, peer = self._wait_for(two_busy)
            os.kill(frozen, signal.SIGSTOP)

            def frozen_stalled_peer_busy():
                snap = hub.snapshot()
                states = {w["pid"]: w["state"] for w in snap["workers"]}
                return (snap["stalled"] == [frozen]
                        and states.get(peer) == "busy")

            self._wait_for(frozen_stalled_peer_busy, timeout=10.0)
        finally:
            if frozen is not None:
                os.kill(frozen, signal.SIGCONT)
            thread.join(timeout=60)
            shutdown_pools()
        assert len(results) == 8 and all(r.ok for r in results)
        assert hub.snapshot()["stalled"] == []

    def test_workers_read_idle_once_a_batch_returns(self, tmp_path,
                                                    monkeypatch):
        # Each job's last beat names no job and goes before its result,
        # so a finished worker can never be left reading busy (and,
        # beats later, stalled).
        monkeypatch.setenv(live.ENV_TELEMETRY, str(tmp_path / "live"))
        monkeypatch.setenv(live.ENV_HB_INTERVAL, "0.05")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        specs = [JobSpec(kind="selftest",
                         params={"x": float(i), "sleep_s": 0.1})
                 for i in range(8)]
        try:
            results = ParallelRunner(jobs=2, cache=NullCache()).run(specs)
            time.sleep(5 * 0.05)     # the warm workers stay up, idle
            snap = live.session_hub().snapshot()
        finally:
            shutdown_pools()
        assert all(r.ok for r in results)
        assert len(snap["workers"]) == 2
        assert all(w["state"] == "idle" for w in snap["workers"])
        assert snap["stalled"] == []

    def test_daemon_is_the_one_live_session_of_its_jobs(
            self, tmp_path, monkeypatch, capsys):
        # A service experiment runs a nested batch inside its worker,
        # which must not open a session of its own: the daemon's hub
        # is the one session, scraped in flight at GET /metrics and
        # the only snapshot file ``top`` finds.
        from repro import api
        from repro.api import JobRequest
        from repro.serve import ServiceClient
        from tests.test_serve import running_server
        d = tmp_path / "live"
        monkeypatch.setenv(live.ENV_TELEMETRY, str(d))
        monkeypatch.setenv(live.ENV_HB_INTERVAL, "0.1")
        config = api.Config.from_env(jobs=1,
                                     cache_dir=str(tmp_path / "cache"))
        request = JobRequest(kind="experiment", experiment="table2",
                             dt=2e-12)
        with running_server(config, artifact_dir=str(
                tmp_path / "artifacts")) as server:
            client = ServiceClient(port=server.port)
            job = client.submit(request)

            def busy():
                return [w["pid"] for w in server.hub.snapshot()["workers"]
                        if w["state"] == "busy"]

            [worker] = self._wait_for(busy, timeout=60.0)
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/metrics",
                    timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] \
                    == live.PROM_CONTENT_TYPE
                samples, _ = parse_prometheus(resp.read().decode())
            assert samples[("repro_live_session_pid", ())] == os.getpid()
            assert samples[("repro_live_workers", ())] == 1.0
            assert samples[("repro_live_stalled_workers", ())] == 0.0
            assert client.wait(job.id, timeout=300).state == "done"
        assert [p.name for p in d.glob("live-*.json")] \
            == [f"live-{os.getpid()}.json"]
        assert main(["top", "--once", "--json", "--dir", str(d)]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["pid"] == os.getpid()
        assert [(w["pid"], w["state"]) for w in snap["workers"]] \
            == [(worker, "idle")]

    def test_top_exits_2_when_no_sessions(self, tmp_path, capsys):
        assert main(["top", "--once", "--json",
                     "--dir", str(tmp_path / "empty")]) == 2
        assert "no live sessions" in capsys.readouterr().err

    def test_cli_exp_publishes_under_telemetry_env(self, tmp_path,
                                                   monkeypatch, capsys):
        d = tmp_path / "live"
        monkeypatch.setenv(live.ENV_TELEMETRY, str(d))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rows = tmp_path / "rows.json"
        assert main(["exp", "fig8", "--jobs", "2", "--no-cache",
                     "--no-run-db", "-o", str(rows)]) == 0
        capsys.readouterr()
        live.shutdown()
        shutdown_pools()
        snap = live.load_sessions(d)[0]
        assert snap["totals"]["jobs"] >= 1

    def test_stalled_gauge_published_on_pool_batches(self, tmp_path,
                                                     monkeypatch):
        d = tmp_path / "live"
        monkeypatch.setenv(live.ENV_TELEMETRY, str(d))
        monkeypatch.setenv(live.ENV_HB_INTERVAL, "0.05")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        ms = obs.MetricSet()
        try:
            with obs.metrics.collect(ms):
                r = ParallelRunner(jobs=2, cache=NullCache())
                specs = [JobSpec(kind="selftest",
                                 params={"x": float(i),
                                         "sleep_s": 0.3})
                         for i in range(4)]
                assert all(x.ok for x in r.run(specs))
        finally:
            shutdown_pools()
        # Healthy workers: the gauge reports zero stalled suspects.
        assert ms.get("exp.pool.stalled") == 0.0
