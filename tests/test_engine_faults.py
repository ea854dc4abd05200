"""Failure-injection tests for the fault-tolerant experiment engine.

Each test injects one (or several) of the failure modes the pooled
runner must survive -- a job that sleeps past the runner's deadline, a
worker that dies mid-job (``os._exit`` or SIGKILL), a task that raises
-- and asserts the contract: the batch always completes, each job runs
once, results stay aligned one-to-one with the submitted specs in
submission order, and every failure is captured as a structured
:class:`JobError` rather than hanging or poisoning the pool.

The injected task kinds are registered at import time; worker processes
are forked on Linux, so they inherit the registry.
"""

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time

import pytest

from repro import obs
from repro.exp import (JobError, JobFailedError, JobSpec, NullCache,
                      ParallelRunner, PersistentPool, ResultCache,
                      get_pool, shutdown_pools)
from repro.exp.tasks import task

pytestmark = pytest.mark.skipif(
    mp.get_start_method(allow_none=False) != "fork",
    reason="injected task kinds require fork start method")


@task("_test_quick")
def _quick(tag: int = 0, **_ignored):
    return {"tag": tag, "pid": os.getpid()}


@task("_test_sleep")
def _sleep(seconds: float = 30.0, **_ignored):
    time.sleep(seconds)
    return "overslept"


@task("_test_exit")
def _exit(code: int = 17, **_ignored):
    os._exit(code)


@task("_test_raise")
def _raise(message: str = "boom", **_ignored):
    raise ValueError(message)


@task("_test_traced")
def _traced(depth: int = 2, **_ignored):
    with obs.span("task.outer", depth=depth):
        with obs.span("task.inner"):
            pass
    return "traced"


@task("_test_killable")
def _killable(pid_file: str = "", **_ignored):
    """Publish the worker pid and hang, so the test can SIGKILL the
    worker mid-job."""
    with open(pid_file + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pid_file + ".tmp", pid_file)   # atomic: no partial reads
    time.sleep(30.0)
    return "survived the kill window"


def runner(tmp_path, jobs=2, **kw):
    return ParallelRunner(jobs=jobs, cache=ResultCache(tmp_path / "c"),
                          **kw)


class TestTimeout:
    def test_sleeping_job_is_killed_not_awaited(self, tmp_path):
        specs = [JobSpec.make("_test_sleep", seconds=30.0)]
        t0 = time.monotonic()
        (res,) = runner(tmp_path, timeout_s=0.5).run(specs)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, "timeout did not interrupt the sleep"
        assert not res.ok and res.error.kind == "timeout"
        assert res.error.exc_type == "TimeoutError"
        assert "0.5" in res.error.message
        with pytest.raises(JobFailedError, match="failed"):
            res.unwrap()

    def test_runner_default_timeout_applies(self, tmp_path):
        # A deadline needs a worker to kill, so it moves even a
        # one-worker batch onto the pool.
        specs = [JobSpec.make("_test_sleep", seconds=30.0)]
        (res,) = runner(tmp_path, jobs=1, timeout_s=0.5).run(specs)
        assert not res.ok and res.error.kind == "timeout"


class TestCrash:
    def test_dead_worker_yields_failed_result(self, tmp_path):
        specs = [JobSpec.make("_test_exit", code=17)]
        (res,) = runner(tmp_path).run(specs)
        assert not res.ok and res.error.kind == "crash"
        assert res.error.exc_type == "WorkerCrashed"

    def test_crash_does_not_poison_siblings(self, tmp_path):
        specs = [JobSpec.make("_test_exit"),
                 JobSpec.make("_test_quick", tag=1),
                 JobSpec.make("_test_quick", tag=2)]
        crashed, a, b = runner(tmp_path).run(specs)
        assert not crashed.ok and crashed.error.kind == "crash"
        assert a.ok and a.value["tag"] == 1
        assert b.ok and b.value["tag"] == 2


class TestMixedBatch:
    def test_every_failure_mode_in_one_batch(self, tmp_path):
        """The acceptance scenario: timeout + crash + plain errors +
        successes in a single batch under one runner deadline, all
        surviving, results in submission order."""
        specs = [
            JobSpec.make("_test_quick", tag=0),
            JobSpec.make("_test_sleep", seconds=30.0),
            JobSpec.make("_test_exit"),
            JobSpec.make("_test_raise", message="kaput"),
            JobSpec.make("_test_quick", tag=4),
        ]
        t0 = time.monotonic()
        results = runner(tmp_path, timeout_s=2.0).run(specs)
        assert time.monotonic() - t0 < 15.0
        assert len(results) == len(specs)
        assert [r.spec.kind for r in results] == [s.kind for s in specs]

        ok0, timed, crashed, raised, ok4 = results
        assert ok0.ok and ok0.value["tag"] == 0
        assert timed.error.kind == "timeout"
        assert crashed.error.kind == "crash"
        assert raised.error.kind == "error"
        assert raised.error.exc_type == "ValueError"
        assert "kaput" in raised.error.message
        assert raised.error.traceback  # full worker traceback captured
        assert ok4.ok and ok4.value["tag"] == 4

    def test_batch_trace_labels_outcomes(self, tmp_path):
        specs = [
            JobSpec.make("_test_sleep", seconds=30.0),
            JobSpec.make("_test_raise"),
            JobSpec.make("_test_quick"),
        ]
        with obs.capture() as tr:
            runner(tmp_path, timeout_s=1.0).run(specs)
        jobs = [r for r in tr.export() if r["name"] == "exp.job"]
        outcomes = sorted(r["attrs"]["outcome"] for r in jobs)
        assert outcomes == ["error", "ok", "timeout"]
        (batch,) = [r for r in tr.export() if r["name"] == "exp.batch"]
        assert batch["attrs"]["failures"] == 2


class TestWorkerTraces:
    def test_worker_spans_graft_under_their_job(self, tmp_path):
        specs = [JobSpec.make("_test_traced", depth=2)]
        with obs.capture() as tr:
            (res,) = runner(tmp_path).run(specs)
        assert res.ok
        recs = tr.export()
        (job,) = [r for r in recs if r["name"] == "exp.job"]
        (outer,) = [r for r in recs if r["name"] == "task.outer"]
        (inner,) = [r for r in recs if r["name"] == "task.inner"]
        assert outer["parent_id"] == job["span_id"]
        assert inner["parent_id"] == outer["span_id"]


class TestCheckpointing:
    def test_partial_batch_resumes_from_cache(self, tmp_path):
        """Jobs cached as they finish: a batch with one poison job
        leaves the good results on disk, and the re-run only recomputes
        the poison one."""
        cache_dir = tmp_path / "shared"
        specs = [JobSpec.make("_test_quick", tag=t) for t in range(3)]
        poison = JobSpec.make("_test_exit")

        first = ParallelRunner(jobs=2, cache=ResultCache(cache_dir))
        results = first.run([*specs, poison])
        assert [r.ok for r in results] == [True, True, True, False]

        second = ParallelRunner(jobs=2, cache=ResultCache(cache_dir))
        rerun = second.run([*specs, poison])
        assert [r.cached for r in rerun] == [True, True, True, False]
        assert [r.value["tag"] for r in rerun[:3]] == [0, 1, 2]
        # Failures are never cached -- the poison job ran again.
        assert not rerun[3].ok and second.cache.hits == 3

    def test_interrupted_sweep_resumes(self, tmp_path):
        """Simulate an interrupt: run half the sweep, then the full
        sweep against the same cache; the first half is pure reads."""
        cache_dir = tmp_path / "shared"
        all_specs = [JobSpec.make("_test_quick", tag=t) for t in range(4)]
        ParallelRunner(jobs=2,
                       cache=ResultCache(cache_dir)).run(all_specs[:2])
        cache = ResultCache(cache_dir)
        results = ParallelRunner(jobs=2, cache=cache).run(all_specs)
        assert [r.cached for r in results] == [True, True, False, False]
        assert [r.value["tag"] for r in results] == [0, 1, 2, 3]


class TestPoolFaultMatrix:
    """Supervision contract of the persistent warm pool: a killed or
    overdue worker is replaced, only its job is charged, and jobs on
    healthy workers are untouched."""

    def test_sigkill_mid_job_fails_only_that_job(self, tmp_path):
        pool = get_pool(2)
        pids_before = {w.proc.pid for w in pool.workers}
        pid_file = str(tmp_path / "victim.pid")

        def sniper():
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if os.path.exists(pid_file):
                    os.kill(int(open(pid_file).read()), signal.SIGKILL)
                    return
                time.sleep(0.005)

        shooter = threading.Thread(target=sniper, daemon=True)
        shooter.start()
        specs = [JobSpec.make("_test_killable", pid_file=pid_file)]
        specs += [JobSpec.make("_test_quick", tag=t) for t in range(1, 5)]
        with obs.metrics.collect() as ms:
            results = runner(tmp_path, timeout_s=25.0).run(specs)
        shooter.join(5.0)

        victim, *healthy = results
        assert not victim.ok and victim.error.kind == "crash"
        for t, r in enumerate(healthy, start=1):
            assert r.ok and r.value["tag"] == t
        # The supervisor spawned at least one replacement...
        rows = {(r["name"]): r for r in ms.export()}
        assert rows["exp.pool.spawns"]["value"] >= 1
        # ...and the pool is healthy again: same size, all alive, with
        # the murdered pid gone.
        pool = get_pool(2)
        assert len(pool.workers) == 2
        assert all(w.proc.is_alive() for w in pool.workers)
        pids_after = {w.proc.pid for w in pool.workers}
        killed = {int(open(pid_file).read())}
        assert not (killed & pids_after)
        assert pids_before  # sanity: pool existed before the batch

    def test_pool_timeout_charges_only_the_overdue_job(self, tmp_path):
        specs = [JobSpec.make("_test_sleep", seconds=30.0),
                 JobSpec.make("_test_quick", tag=1),
                 JobSpec.make("_test_quick", tag=2)]
        t0 = time.monotonic()
        timed, a, b = runner(tmp_path, timeout_s=1.0).run(specs)
        assert time.monotonic() - t0 < 10.0
        assert not timed.ok and timed.error.kind == "timeout"
        assert "1.0" in timed.error.message
        assert a.ok and a.value["tag"] == 1
        assert b.ok and b.value["tag"] == 2

    def test_failed_dispatch_resends_to_the_replacement(self,
                                                       monkeypatch):
        """A worker that died between jobs fails the dispatch: its job
        goes to the replacement worker at once and is not charged."""
        real_dispatch = PersistentPool.dispatch
        sent = []

        def dispatch(pool, worker, settings, spec):
            sent.append(spec)
            if len(sent) == 1:
                raise BrokenPipeError("worker died between jobs")
            real_dispatch(pool, worker, settings, spec)

        monkeypatch.setattr(PersistentPool, "dispatch", dispatch)
        specs = [JobSpec.make("selftest", x=float(t)) for t in range(4)]
        get_pool(2)
        with obs.metrics.collect() as ms:
            results = ParallelRunner(jobs=2, cache=NullCache()).run(specs)
        assert [r.unwrap() for r in results] == [0.0, 2.0, 4.0, 6.0]
        assert ms.value("exp.pool.spawns") == 1
        assert sent[0] == sent[1] and len(sent) == len(specs) + 1

    def test_batch_that_creates_the_pool_counts_its_spawns(self):
        shutdown_pools()
        specs = [JobSpec.make("selftest", x=float(t)) for t in range(4)]
        runner = ParallelRunner(jobs=2, cache=NullCache())
        with obs.metrics.collect() as first:
            runner.run(specs)
        with obs.metrics.collect() as second:
            runner.run(specs)
        assert first.get("exp.pool.spawns") == 2
        assert second.get("exp.pool.spawns") is None

    def test_pool_worker_reuse_across_batches(self, tmp_path):
        specs = [JobSpec.make("_test_quick", tag=t) for t in range(6)]
        r = ParallelRunner(jobs=3, cache=NullCache())
        pids_a = {x.value["pid"] for x in r.run(specs)}
        with obs.metrics.collect() as ms:
            pids_b = {x.value["pid"] for x in r.run(specs)}
        assert pids_a == pids_b, "warm workers were not reused"
        assert len(pids_a) <= 3
        rows = {row["name"]: row for row in ms.export()}
        # A warm pool serves the batch without spawning anyone new...
        assert "exp.pool.spawns" not in rows
        # ...and every job counts toward some worker's lifetime reuse.
        assert rows["exp.pool.reuse"]["total"] >= len(specs)


class TestPoolDeterminism:
    def test_values_identical_across_worker_counts(self, tmp_path):
        """Acceptance contract: bit-identical JobResult values for
        jobs=1 (inline), 2 and 8 (pooled), including a 160 kB array
        result that crosses the worker's pipe."""
        specs = [JobSpec.make("selftest", x=float(t))
                 for t in range(12)]
        specs.append(JobSpec.make("selftest", x=3.5, array_len=20_000))
        baseline = None
        for jobs in (1, 2, 8):
            res = ParallelRunner(jobs=jobs, cache=NullCache()).run(specs)
            assert all(r.ok for r in res)
            blob = pickle.dumps([r.value for r in res])
            if baseline is None:
                baseline = blob
            assert blob == baseline, f"jobs={jobs} diverged"


class TestJobErrorShape:
    def test_structured_triple(self):
        err = JobError(exc_type="ValueError", message="bad width",
                       traceback="Traceback ...", kind="error")
        assert str(err) == "Traceback ..."
        bare = JobError(exc_type="TimeoutError", message="too slow",
                        kind="timeout")
        assert str(bare) == "TimeoutError: too slow"
        assert bare.kind == "timeout"

    def test_unwrap_carries_error_and_result(self, tmp_path):
        (res,) = ParallelRunner(
            jobs=1, cache=NullCache()).run(
                [JobSpec.make("_test_raise", message="why")])
        with pytest.raises(JobFailedError) as info:
            res.unwrap()
        assert info.value.result is res
        assert info.value.error.exc_type == "ValueError"
        assert "why" in str(info.value)
