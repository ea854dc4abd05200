"""The typed submission API: Config precedence, JobRequest schema,
the submit facade, and the deprecation shims over the old entrypoints."""

import dataclasses
import json

import pytest

from repro import api
from repro.api import Config, JobRequest, RequestError, UNSET


# ---------------------------------------------------------------------------
# Config: explicit arg > env > default, locked field by field
# ---------------------------------------------------------------------------

class TestConfigPrecedence:
    def test_builtin_defaults(self, monkeypatch):
        for name in ("REPRO_JOBS", "REPRO_NO_CACHE", "REPRO_CACHE_DIR",
                     "REPRO_CACHE_LRU_MB", "REPRO_JOB_TIMEOUT",
                     "REPRO_TRACE", "REPRO_RUN_DB"):
            monkeypatch.delenv(name, raising=False)
        cfg = Config.from_env()
        assert cfg.jobs == 1
        assert cfg.cache is True
        assert cfg.cache_dir is None
        assert cfg.cache_lru_mb == 64.0
        assert cfg.job_timeout_s is None
        assert cfg.telemetry is False
        assert cfg.hb_interval_s == 0.5
        assert cfg.trace is None
        assert cfg.run_db is None

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_CACHE_LRU_MB", "8")
        cfg = Config.from_env()
        assert cfg.jobs == 3
        assert cfg.cache is False
        assert cfg.job_timeout_s == 12.5
        assert cfg.cache_lru_mb == 8.0

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        cfg = Config.from_env(jobs=5, job_timeout_s=None)
        assert cfg.jobs == 5
        # An explicit None wins over the env, unlike UNSET.
        assert cfg.job_timeout_s is None

    def test_unset_sentinel_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert Config.from_env(jobs=UNSET).jobs == 4

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "-3")
        cfg = Config.from_env()
        assert cfg.jobs == 1
        assert cfg.job_timeout_s is None

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError, match="jbos"):
            Config.from_env(jbos=2)

    def test_telemetry_env_forms(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        cfg = Config.from_env()
        assert cfg.telemetry is True and cfg.telemetry_dir is None
        monkeypatch.setenv("REPRO_TELEMETRY", "/tmp/livesnaps")
        cfg = Config.from_env()
        assert cfg.telemetry is True
        assert cfg.telemetry_dir == "/tmp/livesnaps"
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert Config.from_env().telemetry is False

    def test_to_env_round_trips(self, monkeypatch):
        cfg = Config(jobs=4, cache=False, job_timeout_s=9.0,
                     hb_interval_s=0.25, cache_lru_mb=16.0,
                     run_db="/tmp/r.db")
        for name in list(cfg.to_env()):
            monkeypatch.delenv(name, raising=False)
        for name, value in cfg.to_env().items():
            monkeypatch.setenv(name, value)
        assert Config.from_env() == cfg

    def test_to_env_only_non_defaults(self):
        assert Config().to_env() == {}

    def test_runner_resolves_from_config_not_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "9")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        runner = Config.from_env(jobs=2, job_timeout_s=3.0).runner()
        assert runner.jobs == 2
        assert runner.timeout_s == 3.0

    def test_runner_cache_matches_config(self, tmp_path):
        cfg = Config(cache=True, cache_dir=str(tmp_path / "c"))
        assert cfg.runner().cache.root == tmp_path / "c"
        stats = Config(cache=False).runner().cache
        hit, _ = stats.get("0" * 64)
        assert not hit   # NullCache


# ---------------------------------------------------------------------------
# JobRequest schema: validation, strict JSON, content addressing
# ---------------------------------------------------------------------------

VHDL = "entity t is end entity;"


class TestJobRequest:
    def test_flow_needs_exactly_one_source(self):
        with pytest.raises(RequestError):
            JobRequest(kind="flow").validate()
        with pytest.raises(RequestError):
            JobRequest(kind="flow", vhdl=VHDL,
                       blif=".model t\n.end\n").validate()
        JobRequest(kind="flow", vhdl=VHDL).validate()

    @pytest.mark.parametrize("bad", [
        dict(kind="nope"),
        dict(kind="flow", vhdl="   "),
        dict(kind="flow", vhdl=VHDL, experiment="fig8"),
        dict(kind="experiment", experiment="fig99"),
        dict(kind="experiment", experiment="fig8", vhdl=VHDL),
        dict(kind="experiment", experiment="fig8", seed="one"),
        dict(kind="experiment", experiment="fig8", dt=-1.0),
        dict(kind="experiment", experiment="fig8", tenant=""),
        dict(kind="experiment", experiment="fig8", priority=True),
    ])
    def test_invalid_requests_rejected(self, bad):
        with pytest.raises(RequestError):
            JobRequest(**bad).validate()

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown"):
            JobRequest.from_json({"kind": "flow", "vhdl": VHDL,
                                  "bogus": 1})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(RequestError):
            JobRequest.from_json([1, 2])
        with pytest.raises(RequestError, match="kind"):
            JobRequest.from_json({"vhdl": VHDL})

    def test_json_round_trip(self):
        req = JobRequest(kind="flow", vhdl=VHDL, seed=7,
                         min_channel_width=True, tenant="alice",
                         priority=3)
        assert JobRequest.from_json(req.to_json()) == req

    def test_content_hash_ignores_policy_fields(self):
        a = JobRequest(kind="flow", vhdl=VHDL)
        b = JobRequest(kind="flow", vhdl=VHDL, tenant="bob",
                       priority=9)
        assert a.content_hash() == b.content_hash()

    def test_content_hash_tracks_work(self):
        a = JobRequest(kind="flow", vhdl=VHDL)
        b = JobRequest(kind="flow", vhdl=VHDL + " ")
        c = JobRequest(kind="flow", vhdl=VHDL, seed=2)
        assert len({a.content_hash(), b.content_hash(),
                    c.content_hash()}) == 3

    def test_work_json_is_canonical(self):
        req = JobRequest(kind="experiment", experiment="fig8",
                         tenant="x", priority=4)
        body = json.loads(req.work_json())
        assert "tenant" not in body and "priority" not in body
        assert body["experiment"] == "fig8"


# ---------------------------------------------------------------------------
# The submit facade and the deprecation shims
# ---------------------------------------------------------------------------

DT = 2e-12


class TestSubmitFacade:
    def test_rejects_non_request(self):
        with pytest.raises(RequestError):
            api.submit({"kind": "flow"})

    def test_rejects_invalid_request(self):
        with pytest.raises(RequestError):
            api.submit(JobRequest(kind="flow"))

    def test_rejects_unknown_flow_params(self):
        with pytest.raises(RequestError, match="unknown flow params"):
            api.submit(JobRequest(kind="flow", vhdl=VHDL,
                                  params={"warp": 9}))
        with pytest.raises(RequestError, match="params.n"):
            api.submit(JobRequest(kind="flow", vhdl=VHDL,
                                  params={"n": -1}))

    def test_experiment_submit_matches_legacy(self):
        result = api.submit(JobRequest(kind="experiment",
                                       experiment="table2", dt=DT))
        assert result.kind == "experiment"
        with pytest.warns(DeprecationWarning, match="run_table2"):
            from repro.circuit.experiments import run_table2
            legacy = run_table2(dt=DT)
        assert result.value["experiment"] == "table2"
        assert result.value["rows"] == pytest.approx(legacy)

    def test_flow_submit_matches_legacy(self):
        from tests.test_flow import COUNTER_VHDL
        result = api.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        assert result.kind == "flow"
        summary = result.value["summary"]
        assert summary["circuit"] == "counter"
        with pytest.warns(DeprecationWarning, match="run_flow"):
            from repro.flow import run_flow
            legacy = run_flow(COUNTER_VHDL)
        assert summary == json.loads(
            json.dumps(legacy.summary()))   # JSON-safe comparison
        import hashlib
        assert result.value["bitstream_sha256"] == \
            hashlib.sha256(legacy.bitstream).hexdigest()

    def test_flow_stage_caches_honour_config_lru_budget(self, tmp_path):
        # The stage caches' in-process LRU follows Config.cache_lru_mb,
        # not REPRO_CACHE_LRU_MB.  Blobs enter it on a warm read.
        from repro.flow import flow as flow_mod
        from tests.test_flow import COUNTER_VHDL
        request = JobRequest(kind="flow", vhdl=COUNTER_VHDL)

        def lru_bytes_after_warm_run(lru_mb):
            cfg = Config.from_env(cache_dir=str(tmp_path / f"c{lru_mb}"),
                                  cache_lru_mb=lru_mb)
            api.submit(request, config=cfg)
            warm = api.submit(request, config=cfg)
            assert all(warm.value["cache_hits"].values())
            return flow_mod._stage_cache(cfg.cache_dir,
                                         cfg.cache_lru_mb).lru_bytes()

        assert lru_bytes_after_warm_run(0.0) == 0
        assert lru_bytes_after_warm_run(64.0) > 0

    def test_flow_value_is_json_safe(self):
        from tests.test_flow import COUNTER_VHDL
        result = api.submit(JobRequest(kind="flow", vhdl=COUNTER_VHDL))
        json.dumps(result.to_json())   # must not raise

    def test_run_flow_from_logic_shim_warns(self):
        from repro.flow import run_flow_from_logic
        from repro.netlist.blif import parse_blif
        net = parse_blif(".model tiny\n.inputs a\n.outputs y\n"
                         ".names a y\n1 1\n.end\n")
        with pytest.warns(DeprecationWarning,
                          match="run_flow_from_logic"):
            res = run_flow_from_logic(net)
        assert res.bitstream

    def test_fig_sweep_shim_warns(self):
        with pytest.warns(DeprecationWarning, match="run_fig_sweep"):
            from repro.circuit.experiments import run_fig_sweep
            sweep = run_fig_sweep("fig8", widths=[1.0],
                                  wire_lengths=[1], dt=DT)
        assert list(sweep) == [1]

    def test_internal_callers_do_not_warn(self, recwarn):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.submit(JobRequest(kind="experiment",
                                  experiment="table2", dt=DT))
