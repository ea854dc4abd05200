"""Self-test of the perf harness: ``python -m pytest benchmarks/perf``.

Runs every workload at smoke size (a few designs, ``table2`` only, four
service jobs) and checks the printed result against ``BENCHMARK.json``;
each traced run must leave one benchmark span per layer call.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 170


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"),
         *args], cwd=cwd, capture_output=True, text=True,
        timeout=TIMEOUT_S)


def _result(*args: str) -> tuple[dict, dict, Path]:
    out = _run(*args)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = ROOT / re.search(r"# record: (\S+)", out.stderr).group(1)
    return result, json.loads(path.read_text()), path


def _check(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result, record, _ = _result("--workload", workload, "--smoke")
    _check(result, SPEC["end_to_end"])
    assert record["failed_frac"] == 0
    assert record["workload"] == workload and record["machine"]["nproc"]


#: Layers each workload's smoke-size traced run must reach (others may
#: read 0).
SMOKE_LAYERS = {
    "flow-suite": ("place.place", "route.route", "hdl.synthesize",
                   "bitgen.generate_bitstream"),
    "paper-sweeps": ("circuit.clock_cells_batch",),
    "service-mixed": ("serve.post", "serve.status", "place.place"),
}


@pytest.mark.parametrize("workload", sorted(SMOKE_LAYERS))
def test_traced_run_has_one_span_per_layer_call(workload):
    result, record, path = _result("--workload", workload, "--smoke",
                                   "--trace", "1")
    _check(result, SPEC["per_layer"])
    spans = [json.loads(line) for line in
             path.with_name(record["trace_file"]).read_text().splitlines()]
    bench = [s for s in spans if s["name"].startswith("bench.")]
    assert len(bench) == record["layer_calls"] > 0
    assert all(s["parent_id"] is None for s in bench)   # never nested
    names = {s["name"] for s in bench}
    for layer in SMOKE_LAYERS[workload]:
        assert f"bench.{layer}" in names


def _record(path: Path, rev: str, workload: str, values: dict) -> str:
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"]} for m in SPEC["end_to_end"]}
    path.write_text(json.dumps({
        "rev": rev, "dirty": False, "trace": False, "smoke": False,
        "workload": workload, "seed": 7, "metrics": metrics}))
    return str(path)


def test_compare_flags_a_worse_median(tmp_path):
    wl = SPEC["workloads"][0]["name"]

    def records(prefix: str, rate: float) -> list[str]:
        return [_record(tmp_path / f"{prefix}{i}.json", prefix, wl,
                        {"cold_jobs_per_s": rate + 0.001 * i})
                for i in range(5)]

    parent = records("a", 1.0)
    ok = _run("--compare", *parent, "--change", *records("b", 1.0))
    assert ok.returncode == 0, ok.stdout + ok.stderr
    bad = _run("--compare", *parent, "--change", *records("c", 0.5))
    assert bad.returncode == 1
    assert re.search(r"cold_jobs_per_s .* worse", bad.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    out = _run("--workload", "flow-suite", "--smoke", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
