"""Unit tests for the batch experiment engine (:mod:`repro.exp`).

Covers the runner contract (deterministic ordering, timing and failure
capture), how the paper drivers shard a study over the workers, cache
behaviour (hit/miss accounting, the in-process LRU layer, pruning,
warm-run speedup, atomic sharing between runners), where engine knobs
are read from the environment, the pool's wire protocol, and the
design flow's determinism across seeds and hash seeds.
"""

import hashlib
import os
import pickle
import threading
import time

import pytest

from repro.circuit.experiments import (FIG_WIDTHS, FIG_WIRE_LENGTHS,
                                       run_fig_sweep, run_table1,
                                       run_table2, run_table3)
from repro.circuit.flipflops import DETFF_VARIANTS
from repro.circuit.technology import STM018
from repro.exp import (JobError, JobFailedError, JobSpec, NullCache,
                       ParallelRunner, ResultCache, canonical_json,
                       default_cache_dir, default_runner,
                       repro_code_version)
from repro.exp.tasks import execute, registered_kinds, task
from repro.flow.flow import DesignFlow, FlowOptions
from tests.test_flow import COUNTER_VHDL


@task("_test_echo")
def _echo(**params):
    """Test-only kind: returns its own parameters (serial use only)."""
    return dict(params)


# ---------------------------------------------------------------------------
# Job specs and keys
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_known_kinds_registered(self):
        # Test modules register their own kinds under a leading "_".
        assert [k for k in registered_kinds() if not k.startswith("_")] \
            == ["clock_cells_batch", "detff_batch", "fig_sweep_batch",
                "selftest", "submit"]

    def test_key_is_stable_and_param_order_free(self):
        a = JobSpec.make("fig_sweep_batch", points=[[2.0, 4]], dt=4e-12)
        b = JobSpec(kind="fig_sweep_batch",
                    params={"dt": 4e-12, "points": [[2.0, 4]]})
        assert a.key() == b.key()
        assert len(a.key()) == 64

    def test_key_changes_with_any_field(self):
        base = JobSpec.make("fig_sweep_batch", points=[[2.0, 4]])
        keys = {
            base.key(),
            JobSpec.make("fig_sweep_batch", points=[[2.0, 8]]).key(),
            JobSpec.make("fig_sweep_batch", points=[[2.5, 4]]).key(),
            JobSpec.make("detff_batch", points=[[2.0, 4]]).key(),
            base.key(code_version="other"),
        }
        assert len(keys) == 5

    def test_one_key_recipe(self):
        """Spec keys, request hashes and flow stage keys are each the
        SHA-256 of their parts, the code version and the chipdb schema
        hash, joined by NUL."""
        from repro.api import JobRequest
        from repro.bitgen.chipdb import chipdb_schema_hash

        def recipe(*parts, code_version=None):
            text = "\0".join((*parts, code_version or repro_code_version(),
                              chipdb_schema_hash()))
            return hashlib.sha256(text.encode()).hexdigest()

        spec = JobSpec.make("fig_sweep_batch", points=[[2.0, 4]])
        spec_json = canonical_json({"kind": spec.kind,
                                    "params": spec.params})
        assert spec.key() == recipe(spec_json)
        assert spec.key(code_version="other") == recipe(
            spec_json, code_version="other")
        request = JobRequest(kind="flow", blif=".model m\n.end\n")
        assert request.content_hash() == recipe(request.work_json())
        flow = DesignFlow(FlowOptions(use_cache=False))
        flow._seed_fingerprint("blif", "dummy")
        assert flow._stage_key("bitstream", ("h", 1)) == recipe(
            flow._fp, "bitstream", canonical_json(["h", 1]))

    def test_canonical_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown job kind"):
            execute(JobSpec.make("no_such_kind"))


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_put_get_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        hit, _ = cache.get(key)
        assert not hit and cache.misses == 1
        value = {"rows": [1.5, -0.25], "name": "x"}
        cache.put(key, value)
        hit, back = cache.get(key)
        assert hit and back == value and cache.hits == 1
        assert key in cache and len(cache) == 1
        assert cache.clear() == 1 and key not in cache

    @pytest.mark.parametrize("garbage", [b"not a pickle", b"garbage\n",
                                         b"", b"\x80\x05"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(garbage)
        # Read through a fresh instance: the writer's in-process LRU
        # still holds the good blob, but a disk read must see the
        # corruption and report a miss.
        hit, _ = ResultCache(tmp_path).get(key)
        assert not hit

    def test_null_cache_never_stores(self, tmp_path):
        cache = NullCache()
        cache.put("ef" + "2" * 62, "value")
        hit, _ = cache.get("ef" + "2" * 62)
        assert not hit and len(cache) == 0

    def test_suite_default_cache_is_a_temp_dir(self, tmp_path_factory):
        # tests/conftest.py moves HOME, so a cache built without a root
        # stays out of the developer's ~/.cache/repro-exp.
        assert default_cache_dir().is_relative_to(
            tmp_path_factory.getbasetemp())


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _point(width_mult: float, wire_length: int) -> JobSpec:
    """One Fig. 8 sizing point as a one-point batched sweep job."""
    return JobSpec.make("fig_sweep_batch",
                        points=[[width_mult, wire_length]], dt=8e-12)


class TestParallelRunner:
    def test_serial_echo_roundtrip(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        specs = [JobSpec.make("_test_echo", i=i) for i in range(5)]
        values = runner.run_values(specs)
        assert values == [{"i": i} for i in range(5)]

    def test_parallel_results_keep_submission_order(self, tmp_path):
        # Deliberately unsorted widths: results must come back in the
        # order submitted, not the order workers finish.
        widths = [4.0, 1.0, 2.0]
        specs = [_point(w, 1) for w in widths]
        runner = ParallelRunner(jobs=4, cache=ResultCache(tmp_path))
        results = runner.run(specs)
        assert [r.value[0].width_mult for r in results] == widths
        assert all(r.ok and not r.cached and r.seconds > 0
                   for r in results)

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        specs = [_point(w, 2) for w in (1.0, 4.0)]
        serial = ParallelRunner(
            jobs=1, cache=NullCache()).run_values(specs)
        parallel = ParallelRunner(
            jobs=4, cache=NullCache()).run_values(specs)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_failure_captured_without_sinking_the_batch(self, tmp_path):
        specs = [_point(1.0, 0), _point(1.0, 1)]
        runner = ParallelRunner(jobs=4, cache=ResultCache(tmp_path))
        bad, good = runner.run(specs)
        assert not bad.ok
        assert isinstance(bad.error, JobError)
        assert bad.error.kind == "error"
        assert "wire_length" in str(bad.error)
        assert good.ok and good.value[0].wire_length == 1
        with pytest.raises(RuntimeError, match="failed"):
            runner.run_values(specs[:1])
        # The structured triple survives for programmatic triage.
        try:
            runner.run_values(specs[:1])
        except JobFailedError as exc:
            assert exc.error.exc_type == "ValueError"
            assert exc.error.message
            assert exc.error.kind == "error"

    def test_warm_cache_speedup(self, tmp_path):
        specs = [_point(w, 2) for w in (1.0, 2.0, 4.0)]
        cache_dir = tmp_path / "cache"
        t0 = time.perf_counter()
        cold = ParallelRunner(
            jobs=1, cache=ResultCache(cache_dir)).run(specs)
        t_cold = time.perf_counter() - t0
        warm_cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        warm = ParallelRunner(jobs=1, cache=warm_cache).run(specs)
        t_warm = time.perf_counter() - t0
        assert all(r.cached for r in warm)
        assert warm_cache.hits == len(specs)
        assert pickle.dumps([r.value for r in cold]) == \
            pickle.dumps([r.value for r in warm])
        assert t_cold / t_warm >= 10.0

    def test_default_runner_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = default_runner()
        assert runner.jobs == 3
        assert isinstance(runner.cache, NullCache)
        monkeypatch.delenv("REPRO_NO_CACHE")
        assert not isinstance(default_runner().cache, NullCache)

    def test_default_runner_reads_job_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        assert default_runner().timeout_s == 2.5
        monkeypatch.delenv("REPRO_JOB_TIMEOUT")
        assert default_runner().timeout_s is None

    def test_only_default_runner_reads_job_timeout_env(self, monkeypatch):
        # Config.from_env() is the one reader of engine knobs: a runner
        # built directly takes its timeout from its arguments alone.
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        assert ParallelRunner(jobs=2, cache=NullCache()).timeout_s is None
        assert default_runner().timeout_s == 2.5

    @pytest.mark.parametrize("value", ["", "nope", "1.5x", "-3", "0"])
    def test_invalid_job_timeout_falls_back_to_none(self, monkeypatch,
                                                    value):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", value)
        assert default_runner().timeout_s is None

    @pytest.mark.parametrize("value", ["", "many", "2.5"])
    def test_invalid_jobs_falls_back_to_serial(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert default_runner().jobs == 1


# ---------------------------------------------------------------------------
# Paper drivers: one study, one strided shard per worker
# ---------------------------------------------------------------------------

#: Table 2's clock configurations, in row order.
TABLE2_CONFIGS = [
    {"level": "ble", "gated": False},
    {"level": "ble", "gated": True, "enable": 1},
    {"level": "ble", "gated": True, "enable": 0, "data_active": False},
]

#: Each driver's one job before sharding, spelled out: with ``jobs=1``
#: a driver must still submit exactly this spec.
UNSHARDED = {
    "table1": (lambda r: run_table1(runner=r), "names", JobSpec.make(
        "detff_batch", names=list(DETFF_VARIANTS), tech=STM018,
        dt=1e-12)),
    "table2": (lambda r: run_table2(runner=r), "configs", JobSpec.make(
        "clock_cells_batch", configs=TABLE2_CONFIGS, dt=1e-12)),
    "fig8": (lambda r: run_fig_sweep("fig8", runner=r), "points",
             JobSpec.make("fig_sweep_batch",
                          points=[[w, length] for length in FIG_WIRE_LENGTHS
                                  for w in FIG_WIDTHS],
                          switch_type="pass", tech=STM018, dt=2e-12,
                          metal_width=1.0, metal_spacing=1.0)),
}

#: Studies whose rows must not depend on the worker count.  The Fig.
#: subset mixes wire lengths 1 and 8 in each shard, so circuits leave
#: a shard's batch at different steps.
SHARD_STUDIES = {
    "table1": lambda r: run_table1(dt=4e-12, runner=r),
    "table2": lambda r: run_table2(dt=4e-12, runner=r),
    "table3": lambda r: run_table3(dt=4e-12, runner=r),
    "fig8_pass": lambda r: run_fig_sweep(
        "fig8", widths=[1.0, 4.0, 64.0], wire_lengths=[1, 8], dt=8e-12,
        runner=r),
    "fig9_tbuf": lambda r: run_fig_sweep(
        "fig9", widths=[1.0, 4.0, 64.0], wire_lengths=[1, 8],
        switch_type="tbuf", dt=8e-12, runner=r),
}


class _SpecRecorder:
    """Stands in for a :class:`ParallelRunner`: records the specs a
    driver submits and answers each with ``reply(spec)``."""

    def __init__(self, jobs: int, reply):
        self.jobs = jobs
        self.reply = reply
        self.specs: list[JobSpec] = []

    def run_values(self, specs):
        self.specs.extend(specs)
        return [self.reply(spec) for spec in specs]


class TestShardedDrivers:
    @pytest.mark.parametrize("study", sorted(SHARD_STUDIES))
    def test_two_shards_equal_one_job(self, study):
        run = SHARD_STUDIES[study]
        one = run(ParallelRunner(jobs=1, cache=NullCache()))
        two = run(ParallelRunner(jobs=2, cache=NullCache()))
        assert two == one

    @pytest.mark.parametrize("driver", sorted(UNSHARDED))
    def test_one_worker_submits_the_unsharded_spec(self, driver):
        run, field, want = UNSHARDED[driver]
        runner = _SpecRecorder(
            1, lambda spec: [1e-15] * len(spec.params[field]))
        run(runner)
        assert [s.key() for s in runner.specs] == [want.key()]

    def test_table2_goes_out_as_three_shards_back_in_row_order(self):
        # Each configuration's energy is its row number in fJ.
        runner = _SpecRecorder(4, lambda spec: [
            (TABLE2_CONFIGS.index(cfg) + 1) * 1e-15
            for cfg in spec.params["configs"]])
        rows = run_table2(runner=runner)
        assert [s.params["configs"] for s in runner.specs] == \
            [[cfg] for cfg in TABLE2_CONFIGS]
        assert [rows[f] for f in ("single_fJ", "gated_en1_fJ",
                                  "gated_en0_fJ")] == \
            pytest.approx([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# In-process LRU layer over the disk cache
# ---------------------------------------------------------------------------

class TestCacheLRU:
    KEY = "ab" * 32

    def test_warm_get_served_from_memory(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"v": 1})
        # The first get reads the disk and admits the blob.
        assert cache.get(self.KEY) == (True, {"v": 1})
        assert cache.lru_hits == 0
        hit, value = cache.get(self.KEY)
        assert hit and value == {"v": 1}
        assert cache.lru_hits == 1
        # Even with the disk entry gone, the LRU still answers.
        cache.path_for(self.KEY).unlink()
        hit, value = cache.get(self.KEY)
        assert hit and value == {"v": 1}
        assert cache.hits == 3 and cache.lru_hits == 2

    def test_put_alone_holds_no_memory(self, tmp_path):
        # A write-only user (the job server) must not grow the LRU.
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, list(range(100)))
        assert cache.lru_bytes() == 0
        # A put drops the admitted copy of its key, so no get can
        # return the stale value from memory.
        cache.put(self.KEY, "old")
        assert cache.get(self.KEY) == (True, "old")
        assert cache.lru_bytes() > 0
        cache.put(self.KEY, "new")
        assert cache.lru_bytes() == 0
        assert cache.get(self.KEY) == (True, "new")

    def test_lru_hits_are_a_subset_of_hits(self, tmp_path):
        # The external contract (hits counts *every* successful get)
        # must not change when the serving layer does.
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, 42)
        fresh = ResultCache(tmp_path)  # cold LRU, warm disk
        assert fresh.get(self.KEY) == (True, 42)
        assert fresh.hits == 1 and fresh.lru_hits == 0
        assert fresh.get(self.KEY) == (True, 42)
        assert fresh.hits == 2 and fresh.lru_hits == 1

    def test_hits_return_fresh_objects_not_aliases(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"rows": [1, 2]})
        _, first = cache.get(self.KEY)
        first["rows"].append(99)
        _, second = cache.get(self.KEY)
        assert second == {"rows": [1, 2]}

    def test_byte_budget_bounds_and_evicts(self, tmp_path):
        value = "x" * 100
        blob_len = len(pickle.dumps(value,
                                    protocol=pickle.HIGHEST_PROTOCOL))
        # Room for two blobs, not three.
        cache = ResultCache(tmp_path, lru_mb=2.5 * blob_len / 2**20)
        keys = [f"{i:02d}" * 32 for i in range(3)]
        for key in keys:
            cache.put(key, value)
            assert cache.get(key) == (True, value)  # admits it
        assert cache.lru_bytes() == 2 * blob_len
        assert cache.lru_hits == 0
        # The oldest key fell out of memory but still hits on disk.
        assert cache.get(keys[0]) == (True, value)
        assert cache.lru_hits == 0
        assert cache.get(keys[2]) == (True, value)
        assert cache.lru_hits == 1

    def test_zero_budget_disables_the_layer(self, tmp_path):
        cache = ResultCache(tmp_path, lru_mb=0)
        cache.put(self.KEY, 1)
        assert cache.get(self.KEY) == (True, 1)
        assert cache.lru_hits == 0 and cache.lru_bytes() == 0

    def test_stats_include_lru_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, 1)
        cache.get(self.KEY)
        cache.get(self.KEY)
        assert cache.stats() == {"hits": 2, "misses": 0, "puts": 1,
                                 "lru_hits": 1}


# ---------------------------------------------------------------------------
# Cache maintenance: entries / prune
# ---------------------------------------------------------------------------

class TestCacheMaintenance:
    def test_entries_and_total_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1, k2 = "aa" * 32, "bb" * 32
        cache.put(k1, list(range(10)))
        cache.put(k2, "payload")
        entries = cache.entries()
        assert [key for key, _, _ in entries] == sorted([k1, k2])
        assert all(size > 0 and mtime > 0 for _, size, mtime in entries)
        assert cache.total_bytes() == sum(s for _, s, _ in entries)
        assert NullCache().entries() == []

    def test_prune_by_age_spares_fresh_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        old_key, new_key = "aa" * 32, "bb" * 32
        cache.put(old_key, 1)
        cache.put(new_key, 2)
        cache.get(old_key)  # admit it to the LRU layer
        stale = time.time() - 3600
        os.utime(cache.path_for(old_key), (stale, stale))
        removed, freed = cache.prune(max_age_s=60.0)
        assert removed == 1 and freed > 0
        assert list(cache.keys()) == [new_key]
        # The pruned key is gone from the LRU layer too.
        hit, _ = cache.get(old_key)
        assert not hit

    def test_prune_without_age_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, i)
        removed, _ = cache.prune()
        assert removed == 3 and len(cache) == 0
        assert cache.prune() == (0, 0)


# ---------------------------------------------------------------------------
# The pool's wire protocol
# ---------------------------------------------------------------------------

class TestWireProtocol:
    def test_worker_loop_protocol_in_thread(self):
        # Drive the worker main loop over a real Pipe from a thread:
        # one ack then one result per job message, clean exit on
        # "stop".
        import multiprocessing as mp

        from repro.exp.pool import _pool_worker_main
        parent, child = mp.Pipe(duplex=True)
        worker = threading.Thread(target=_pool_worker_main,
                                  args=(child,), daemon=True)
        worker.start()
        for x in (2.0, 3.0):
            t_sent = time.monotonic()
            parent.send(("run", None, JobSpec.make("selftest", x=x)))
            op, t_recv = parent.recv()
            assert op == "ack" and t_recv >= t_sent
            op, value, seconds, err, spans, metric_rows = parent.recv()
            assert op == "res" and err is None
            assert value == 2.0 * x and seconds >= 0
            assert isinstance(spans, list)
            assert isinstance(metric_rows, list)
        # Failures travel as structured errors, not crashes.
        parent.send(("run", None,
                     JobSpec.make("selftest", x=1.0, fail=True)))
        assert parent.recv()[0] == "ack"
        op, value, _, err, _, _ = parent.recv()
        assert op == "res" and value is None
        assert err is not None and err.exc_type == "RuntimeError"
        parent.send(("stop",))
        worker.join(5.0)
        assert not worker.is_alive()

    def test_live_telemetry_rides_between_ack_and_res(self):
        # With telemetry settings on, a job's spans, beats and metric
        # deltas come between its ack and its result; the last beat
        # names no job, and nothing follows the result.
        import multiprocessing as mp

        from repro.exp.pool import _pool_worker_main
        from repro.exp.runner import _WorkerSettings
        beat = 0.01
        settings = _WorkerSettings.snapshot(live_spans=True,
                                            heartbeat_s=beat)
        parent, child = mp.Pipe(duplex=True)
        worker = threading.Thread(target=_pool_worker_main,
                                  args=(child,), daemon=True)
        worker.start()
        try:
            for x in (1.0, 2.0, 3.0):
                parent.send(("run", settings,
                             JobSpec.make("selftest", x=x, sleep_s=0.1)))
                assert parent.recv()[0] == "ack"
                middle = []
                while (msg := parent.recv())[0] != "res":
                    middle.append(msg)
                assert msg[1] == 2.0 * x and msg[3] is None
                assert {m[0] for m in middle} == {"span", "hb", "mrows"}
                spans = [m[2:4] for m in middle if m[0] == "span"]
                assert spans == [("open", "selftest.work"),
                                 ("close", "selftest.work")]
                beats = [m for m in middle if m[0] == "hb"]
                assert len(beats) >= 3
                assert all(b[3] == "selftest" for b in beats[:-1])
                assert beats[-1][2] is None
                assert not parent.poll(3 * beat)
        finally:
            parent.send(("stop",))
            worker.join(5.0)
        assert not worker.is_alive()

    def test_pipe_survives_span_and_beat_contention(self, monkeypatch):
        # The job's thread and the heartbeat thread share one pipe.
        # With threads switching as often as the interpreter allows, a
        # 1 ms beat races a job whose span messages each take more
        # than one pipe write: every message must still arrive whole
        # and in protocol order.
        import multiprocessing as mp
        import sys

        from repro import obs
        from repro.exp import tasks
        from repro.exp.pool import _pool_worker_main
        from repro.exp.runner import _WorkerSettings

        def storm(n):
            for i in range(n):
                with obs.span("storm." + "s" * 64_000):
                    obs.metrics.metric_set().counter(f"storm.c{i}")
            return n

        monkeypatch.setitem(tasks._REGISTRY, "storm", storm)
        settings = _WorkerSettings.snapshot(live_spans=True,
                                            heartbeat_s=0.001)
        parent, child = mp.Pipe(duplex=True)
        worker = threading.Thread(target=_pool_worker_main,
                                  args=(child,), daemon=True)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            parent.send(("run", settings, JobSpec.make("storm", n=400)))
            assert parent.recv()[0] == "ack"
            ops = []
            while (msg := parent.recv())[0] != "res":
                ops.append(msg[0])
        finally:
            sys.setswitchinterval(switch)
            parent.send(("stop",))
            worker.join(5.0)
        assert not worker.is_alive()
        assert msg[1] == 400 and msg[3] is None
        assert ops.count("span") == 800
        assert set(ops) == {"span", "hb", "mrows"}


# ---------------------------------------------------------------------------
# Determinism of the design flow
# ---------------------------------------------------------------------------

class TestFlowDeterminism:
    def test_different_seed_changes_placement(self):
        a = DesignFlow(FlowOptions(seed=1, use_cache=False)).run(
            COUNTER_VHDL)
        b = DesignFlow(FlowOptions(seed=7, use_cache=False)).run(
            COUNTER_VHDL)
        assert a.placement.loc != b.placement.loc

    def test_flow_independent_of_hash_seed(self, tmp_path):
        # Cached results are shared across interpreter sessions, so the
        # flow must not depend on PYTHONHASHSEED (set/dict iteration
        # order).  Run it in subprocesses with different hash seeds and
        # require identical bitstream + placement digests.
        import os
        import subprocess
        import sys
        script = tmp_path / "probe.py"
        script.write_text(
            "import hashlib, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.flow.flow import DesignFlow, FlowOptions\n"
            "from tests.test_flow import COUNTER_VHDL\n"
            "res = DesignFlow(FlowOptions(seed=1, use_cache=False))"
            ".run(COUNTER_VHDL)\n"
            "h = hashlib.sha256(res.bitstream)\n"
            "h.update(repr(sorted((b, s.x, s.y, s.sub)\n"
            "    for b, s in res.placement.loc.items())).encode())\n"
            "print(h.hexdigest())\n")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digests = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.join(repo, "src"))
            out = subprocess.run(
                [sys.executable, str(script), repo],
                capture_output=True, text=True, env=env, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1
