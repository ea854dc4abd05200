"""Worker observability must survive the ``spawn`` start method.

Forked workers inherit the parent's module globals, so tracing and
metrics work by accident; spawned workers re-import :mod:`repro` in a
fresh interpreter and would silently lose both unless the runner
forwards its observability state explicitly
(:class:`repro.exp.runner._WorkerSettings`).  These tests pin that
contract with the built-in ``selftest`` task kind -- registered in
:mod:`repro.exp.tasks` itself precisely so it exists in spawn workers,
where test-module registrations never do.
"""

from repro import obs
from repro.exp import JobSpec, NullCache, ParallelRunner, ResultCache
from repro.exp.runner import _WorkerSettings


def spawn_runner(tmp_path, cache=None):
    if cache is None:
        cache = ResultCache(tmp_path / "c")
    return ParallelRunner(jobs=2, cache=cache, start_method="spawn")


def specs(n):
    return [JobSpec(kind="selftest", params={"x": float(i)})
            for i in range(n)]


class TestSpawnPool:
    def test_results_correct_under_spawn(self, tmp_path):
        results = spawn_runner(tmp_path).run(specs(3))
        assert [r.unwrap() for r in results] == [0.0, 2.0, 4.0]

    def test_child_spans_survive_spawn(self, tmp_path):
        with obs.capture() as tr:
            spawn_runner(tmp_path, NullCache()).run(specs(2))
        recs = tr.export()
        jobs = [r for r in recs if r["name"] == "exp.job"]
        work = [r for r in recs if r["name"] == "selftest.work"]
        assert len(jobs) == 2
        # Each worker's root span is grafted under its exp.job record.
        assert len(work) == 2
        job_ids = {j["span_id"] for j in jobs}
        assert all(w["parent_id"] in job_ids for w in work)

    def test_worker_metrics_survive_spawn(self, tmp_path):
        from repro.obs import metrics as m
        with m.collect() as ms:
            spawn_runner(tmp_path).run(specs(3))
        assert ms.value("exp.selftest") == 3     # published in workers
        assert ms.value("exp.jobs") == 3         # published in parent

    def test_disabled_tracing_propagates_to_spawn_workers(self,
                                                          tmp_path):
        obs.set_enabled(False)
        try:
            with obs.capture() as tr:
                spawn_runner(tmp_path, NullCache()).run(specs(1))
        finally:
            obs.set_enabled(True)
        assert tr.export() == []


class TestWorkerSettings:
    def test_snapshot_captures_enabled_flag_and_env(self):
        # No environment rides along: a task gets every path in its spec.
        s = _WorkerSettings.snapshot(live_spans=True, heartbeat_s=0.5)
        assert s == _WorkerSettings(trace_enabled=True, live_spans=True,
                                    heartbeat_s=0.5)

    def test_apply_restores_state(self):
        s = _WorkerSettings(trace_enabled=False)
        try:
            s.apply()
            assert obs.enabled() is False
        finally:
            obs.set_enabled(True)
