"""Shared pieces of the perf harness: run state, statistics, records.

A :class:`Run` holds everything one workload run produces -- raw
samples, end-to-end and per-layer metrics, correctness failures and,
in a traced run, the benchmark's own spans around each layer call.
:func:`write_record` turns it into ``results/BENCH_<rev>_<utc>_<pid>.json``
and :func:`compare` reads such records back for ``run.py --compare``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from meter import SpeedMeter

from repro import api, obs
from repro.exp import repro_code_version
from repro.obs.compare import compare_rows
from repro.obs.metrics import GAUGE, MetricRegistry, MetricSpec

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
RESULTS_DIR = PERF_DIR / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Counts a deterministic program must reproduce exactly, run to run.
REPEATING_COUNTS = ("place.moves", "route.iterations", "route.heap_reuse",
                    "synth.luts", "pack.clbs", "exp.cache_entries")


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, interpolating between closest ranks."""
    vals = sorted(values)
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = values[0]
        return {"n": len(values), "q1": v, "median": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

class Run:
    """State of one workload run, filled in by a workload module.

    ``attempted`` counts operations run plus correctness checks made;
    every operation that raised and every check that did not hold is
    one entry of ``failures``.
    """

    def __init__(self, workload: str, seed: int, seconds: float, *,
                 smoke: bool, trace: bool, workdir: Path,
                 meter: SpeedMeter):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.trace = trace
        self.workdir = workdir
        self.meter = meter
        self.deadline = math.inf
        self.samples: dict[str, list[float]] = {}
        self.metrics: dict[str, float] = {}      # end to end
        self.raw: dict[str, float] = {}          # ... not rescaled
        self.layers: dict[str, float] = {}       # per layer
        self.failures: list[str] = []
        self.flags: list[str] = []
        self.attempted = 0
        self.layer_calls = 0
        self.tracer = obs.Tracer() if trace else None
        self._lock = threading.Lock()

    # -- bookkeeping ---------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def attempt(self, what: str, fn: Callable, *args, **kwargs):
        """Run one operation; an exception becomes a failure (None)."""
        with self._lock:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:     # noqa: BLE001 -- reported, run goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; one that fails is a failure."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        with self._lock:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    # -- layer calls ---------------------------------------------------
    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Call into one layer and return ``(result, seconds)``.

        In a traced run the call sits inside a ``bench.<layer>`` span
        on :attr:`tracer`; calls never nest, so each span's duration is
        the layer's self time.  Outside a traced run nothing is traced.
        """
        if not self.trace:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - t0
        with obs.capture(self.tracer), obs.span(f"bench.{layer}") as sp:
            out = fn(*args, **kwargs)
        with self._lock:
            self.layer_calls += 1
        return out, sp.seconds

    # -- the timed phase -----------------------------------------------
    def begin(self) -> float:
        """Start the timed phase, which ends :attr:`seconds` later."""
        t0 = time.perf_counter()
        self.deadline = t0 + self.seconds
        return t0

    def passes(self, smoke_count: int, minimum: int = 1):
        """Numbers 1, 2, ... of a steady phase's passes: ``smoke_count``
        of them in a smoke run, else as many as start before the timed
        phase ends, and at least ``minimum``."""
        n = 0
        while (n < smoke_count if self.smoke
               else n < minimum or time.perf_counter() < self.deadline):
            n += 1
            yield n

    def cold_pass(self, jobs: list, config) -> tuple[dict, obs.MetricSet]:
        """``api.submit`` each ``(name, request)`` once into an empty
        cache, one ``cold_s`` sample each, and set ``cold_jobs_per_s``.
        Returns the result values by name and the counters the program
        published meanwhile."""
        values, ms = {}, obs.MetricSet()
        t_start = time.perf_counter()
        for name, req in jobs:
            t0 = time.perf_counter()
            with obs.capture(self.tracer), obs.metrics.collect(ms):
                res = self.attempt(name, api.submit, req, config=config)
            self.sample("cold_s", time.perf_counter() - t0)
            if res is not None:
                values[name] = res.value
        self.throughput(len(values), t_start, time.perf_counter())
        return values, ms

    def warm_passes(self, jobs: list, config, cold: dict,
                    same: Callable[[Any, Any], bool],
                    smoke_passes: int, minimum: int) -> None:
        """Submit all ``jobs`` again, pass after pass, until the timed
        phase ends: one ``warm_ms`` sample per pass, and every value
        must be ``same`` as its cold one."""
        for n in self.passes(smoke_passes, minimum):
            t0 = time.perf_counter()
            with obs.capture():
                warm = [(name, self.attempt(name, api.submit, req,
                                            config=config))
                        for name, req in jobs]
            self.sample("warm_ms", (time.perf_counter() - t0) * 1e3)
            for name, res in warm:
                if res is not None and name in cold:
                    self.check(same(res.value, cold[name]),
                               f"{name}: warm pass {n} differs from the "
                               f"cold result")

    # -- metrics -------------------------------------------------------
    def throughput(self, jobs: int, t0: float, t1: float) -> None:
        """``cold_jobs_per_s``: uncached jobs completed between ``t0``
        and ``t1``, per second of the nominal machine (see
        :mod:`meter`); :attr:`raw` keeps the rate as timed."""
        self.raw["cold_jobs_per_s"] = jobs / (t1 - t0)
        self.metrics["cold_jobs_per_s"] = jobs / self.meter.nominal_s(t0, t1)

    def percentiles(self, name: str, *qs: float) -> list[float]:
        vals = self.samples.get(name) or []
        if not vals:
            self.fail(f"no samples of {name}")
            return [math.nan] * len(qs)
        return [percentile(vals, q) for q in qs]

    def latency_layers(self) -> None:
        """Per-layer latency percentiles, as timed, of the ``cold_s``
        (one uncached job) and ``warm_ms`` (one cached operation)
        samples, and the meter's median tick.  Too few jobs of too mixed
        sizes, or cached operations queued behind a running job, make
        them too noisy to gate on."""
        c50, c90 = self.percentiles("cold_s", 50, 90)
        w50, w90 = self.percentiles("warm_ms", 50, 90)
        self.layers.update({"cold_p50_s": c50, "cold_p90_s": c90,
                            "warm_p50_ms": w50, "warm_p90_ms": w90,
                            "machine.tick_ms": self.meter.median_tick_ms()})


# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------

def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_state() -> tuple[str | None, bool | None]:
    """``(rev, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None, None
    rev = _git("rev-parse", "--short=12", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return rev, bool(status)


def machine() -> dict[str, Any]:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def record_of(run: Run, metrics: dict[str, dict[str, Any]],
              correct: bool) -> dict[str, Any]:
    rev, dirty = git_state()
    code = repro_code_version()
    return {
        "schema": 1,
        "rev": rev or f"src-{code[:12]}",
        "dirty": dirty,
        "code_version": code,
        "utc": datetime.now(timezone.utc).isoformat(),
        "machine": machine(),
        "workload": run.workload, "seed": run.seed,
        "seconds": run.seconds, "smoke": run.smoke, "trace": run.trace,
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures[:50],
        "flags": run.flags,
        "metrics": metrics,
        "end_to_end": dict(run.metrics),
        "end_to_end_raw": dict(run.raw),
        "per_layer": dict(run.layers),
        "samples": run.samples,
        "ticks": run.meter.ticks,
        "summary": {k: quartiles(v) for k, v in run.samples.items() if v},
        "layer_calls": run.layer_calls,
    }


def write_record(record: dict[str, Any],
                 tracer: obs.Tracer | None = None) -> Path:
    """Write ``results/BENCH_<rev>_<utc>_<pid>.json``, and a traced
    run's spans beside it as ``.trace.jsonl``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = RESULTS_DIR / f"BENCH_{record['rev']}_{stamp}_{os.getpid()}.json"
    if tracer is not None:
        trace_path = path.with_suffix(".trace.jsonl")
        tracer.write_jsonl(trace_path)
        record["trace_file"] = trace_path.name
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r["metrics"]]


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def _fmt(q: dict[str, float]) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def compare(parent_paths: list[str], change_paths: list[str]) -> int:
    """Print the parent-vs-change table; 1 on any worse metric or on a
    count that does not repeat, else 0."""
    spec = load_spec()
    parent = [json.loads(Path(p).read_text()) for p in parent_paths]
    change = [json.loads(Path(p).read_text()) for p in change_paths]
    e2e = [[r for r in side if not r["trace"] and not r["smoke"]]
           for side in (parent, change)]
    registry = MetricRegistry()
    for m in spec["end_to_end"]:
        registry.register(MetricSpec(m["name"], GAUGE, m["unit"],
                                     direction=m["better"],
                                     rel_tol=m["bound"]))

    worse = won = pairs = 0
    header = (f"{'workload':<14} {'metric':<16} {'unit':<5} "
              f"{'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
              f"{'bound':>6} {'won':>5}  verdict")
    print(header)
    print("-" * len(header))
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            a, b = _values(e2e[0], wl, name), _values(e2e[1], wl, name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            spread = max((q["q3"] - q["q1"]) / abs(q["median"])
                         if q["median"] else math.inf for q in (qa, qb))
            delta = compare_rows(
                {name: {"name": name, "unit": m["unit"],
                        "value": qa["median"]}},
                {name: {"name": name, "unit": m["unit"],
                        "value": qb["median"]}}, registry=registry)[0]
            verdict = {"regression": "worse", "improvement": "better"
                       }.get(delta.status, "same")
            if all(_beats(y, x, better) for x in a for y in b):
                verdict = "better"
            elif spread > m["bound"]:
                verdict = "unresolved"
            n_won = sum(_beats(y, x, better) for x in a for y in b)
            won += n_won
            pairs += len(a) * len(b)
            worse += verdict == "worse"
            print(f"{wl:<14} {name:<16} {m['unit']:<5} {_fmt(qa):>30} "
                  f"{_fmt(qb):>30} {m['bound']:>6.3f} "
                  f"{n_won / (len(a) * len(b)):>5.2f}  {verdict}")
    if pairs:
        print(f"change won {won}/{pairs} pairs ({won / pairs:.0%}); "
              f"{worse} metric(s) worse")

    unstable = repeat_flags(parent) + repeat_flags(change)
    for flag in unstable:
        print(f"FLAG {flag}")
    return 1 if worse or unstable else 0


def repeat_flags(records: list[dict]) -> list[str]:
    """Counts that differ between traced runs of one workload and seed."""
    seen: dict[tuple, dict[str, set]] = {}
    for rec in records:
        if not rec["trace"]:
            continue
        counts = seen.setdefault((rec["workload"], rec["seed"],
                                  rec["smoke"]), {})
        for name in REPEATING_COUNTS:
            if name in rec["metrics"]:
                counts.setdefault(name, set()).add(
                    rec["metrics"][name]["value"])
    return [f"{wl} seed {seed}: {name} does not repeat: {sorted(vals)}"
            for (wl, seed, _), counts in seen.items()
            for name, vals in counts.items() if len(vals) > 1]
