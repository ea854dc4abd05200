"""The typed submission API: Config precedence, JobRequest schema,
and the submit facade over the drivers and the flow."""

import dataclasses
import json
import os
import subprocess
import sys

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
                     "REPRO_TRACE", "REPRO_RUN_DB", "REPRO_ARTIFACT_DIR"):
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
        assert cfg.artifact_dir is None

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_CACHE_LRU_MB", "8")
        monkeypatch.setenv("REPRO_HB_INTERVAL", "0.25")
        monkeypatch.setenv("REPRO_RUN_DB", "/tmp/r.db")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "/tmp/artifacts")
        cfg = Config.from_env()
        assert cfg.jobs == 3
        assert cfg.cache is False
        assert cfg.job_timeout_s == 12.5
        assert cfg.cache_lru_mb == 8.0
        assert cfg.hb_interval_s == 0.25
        assert cfg.run_db == "/tmp/r.db"
        assert cfg.artifact_dir == "/tmp/artifacts"

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
        monkeypatch.setenv("REPRO_CACHE_LRU_MB", "nope")
        cfg = Config.from_env()
        assert cfg.jobs == 1
        assert cfg.job_timeout_s is None
        assert cfg.cache_lru_mb == 64.0

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError, match="jbos"):
            Config.from_env(jbos=2)

    def test_telemetry_env_forms(self, monkeypatch):
        for raw in ("1", "true", "yes", "on", "ON"):
            monkeypatch.setenv("REPRO_TELEMETRY", raw)
            cfg = Config.from_env()
            assert cfg.telemetry is True and cfg.telemetry_dir is None
        monkeypatch.setenv("REPRO_TELEMETRY", "/tmp/livesnaps")
        cfg = Config.from_env()
        assert cfg.telemetry is True
        assert cfg.telemetry_dir == "/tmp/livesnaps"
        for raw in ("", "0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_TELEMETRY", raw)
            assert Config.from_env().telemetry is False

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
        dict(kind="experiment", experiment="fig8", dt=True),
        dict(kind="experiment", experiment="fig8", dt=float("inf")),
        dict(kind="experiment", experiment="fig8", dt=1e-15),
        dict(kind="experiment", experiment="fig8", dt=4.99e-13),
        dict(kind="experiment", experiment="fig8", dt=2.01e-11),
        dict(kind="flow", vhdl=VHDL, params={"bogus": 1}),
        dict(kind="flow", vhdl=VHDL, params={"n": "x"}),
        dict(kind="flow", vhdl=VHDL, params={"k": True}),
        dict(kind="flow", vhdl=VHDL, params={"channel_width": 0}),
        dict(kind="flow", vhdl=VHDL, min_channel_width="yes"),
        dict(kind="experiment", experiment="fig8", params={"n": 5}),
    ])
    def test_invalid_requests_rejected(self, bad):
        with pytest.raises(RequestError):
            JobRequest(**bad).validate()

    @pytest.mark.parametrize("dt", [5e-13, 2e-11])
    def test_dt_range_edges_accepted(self, dt):
        JobRequest(kind="experiment", experiment="fig8", dt=dt).validate()

    def test_dt_error_names_the_range(self):
        # Python's JSON parser accepts the non-standard `Infinity`.
        body = json.loads('{"kind": "experiment", "experiment": "fig8", '
                          '"dt": Infinity}')
        with pytest.raises(RequestError, match=r"\[5e-13, 2e-11\]"):
            JobRequest.from_json(body)

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
# The submit facade over the drivers and the flow
# ---------------------------------------------------------------------------

DT = 2e-12
TINY_BLIF = ".model tiny\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"


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
        from repro.circuit.experiments import run_table2
        result = api.submit(JobRequest(kind="experiment",
                                       experiment="table2", dt=DT))
        assert result.kind == "experiment"
        direct = run_table2(dt=DT)
        assert result.value["experiment"] == "table2"
        assert result.value["rows"] == pytest.approx(direct)

    def test_flow_submit_matches_legacy(self):
        import hashlib
        from repro.flow import DesignFlow
        from repro.netlist.blif import parse_blif
        from tests.test_flow import COUNTER_VHDL
        # VHDL text and a parsed BLIF network take the one entry point.
        for name, request, design in (
                ("counter", JobRequest(kind="flow", vhdl=COUNTER_VHDL),
                 COUNTER_VHDL),
                ("tiny", JobRequest(kind="flow", blif=TINY_BLIF),
                 parse_blif(TINY_BLIF))):
            result = api.submit(request)
            assert result.kind == "flow"
            value = result.value
            assert value["summary"]["circuit"] == name
            direct = DesignFlow().run(design)
            assert direct.bitstream
            assert value["summary"] == json.loads(
                json.dumps(direct.summary()))   # JSON-safe comparison
            assert value["bitstream_sha256"] == \
                hashlib.sha256(direct.bitstream).hexdigest()

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


# ---------------------------------------------------------------------------
# Import boundary: library code, job keys and client commands load no
# flow, and no daemon or run history; flow and service processes never
# load the transient engine or SciPy; the paper studies still do
# ---------------------------------------------------------------------------

_BOUNDARY_PROBE = """
import sys

import repro, repro.api, repro.exp, repro.flow.cli, repro.obs, repro.serve
import repro.serve.client
from repro import api
from repro.exp import JobSpec

for mod in ("asyncio", "sqlite3", "repro.serve.server"):
    assert mod not in sys.modules, f"a client command loaded {mod}"

request = api.JobRequest(kind="flow", blif=sys.argv[1])
JobSpec.make("submit", request=request, config=api.Config()).key()
request.content_hash()
FLOW = ("repro.flow.flow", "repro.arch", "repro.place", "repro.route",
        "numpy")
for mod in FLOW:
    assert mod not in sys.modules, f"library code or a job key loaded {mod}"

result = api.submit(request, config=api.Config(cache=False))
assert result.value["bitstream_sha256"], result
for mod in FLOW:
    assert mod in sys.modules, f"the flow did not load {mod}"
for mod in ("scipy", "repro.circuit.batchsim"):
    assert mod not in sys.modules, f"a flow process loaded {mod}"

import repro.circuit.experiments
for mod in ("scipy", "repro.circuit.batchsim"):
    assert mod in sys.modules, f"the paper studies did not load {mod}"
assert repro.circuit.simulate_batch is repro.circuit.batchsim.simulate_batch
for package in ("repro.circuit", "repro.flow", "repro.bitgen", "repro.obs",
                "repro.serve"):
    names = {}
    exec(f"from {package} import *", names)
    missing = set(sys.modules[package].__all__) - set(names)
    assert not missing, f"{package} import * missed {sorted(missing)}"
"""


def test_flow_processes_do_not_load_the_transient_engine():
    # A fresh interpreter: this one has loaded SciPy long ago.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    blif = ".model tiny\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
    out = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_PROBE, blif],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
