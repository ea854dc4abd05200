"""paper-sweeps: the seven platform studies through the experiment engine.

Cold pass: ``api.submit`` of Tables 1-3, Figs. 8-10 and the tri-state
study, in that order, with ``Config(jobs=2)`` and an empty result
cache, at the timesteps the goldens in ``benchmarks/results`` were
recorded with.  Warm passes: the same seven submits again until the
run's ``--seconds`` are up (at least ``WARM_MIN`` passes), so each is a
result-cache read.  The work is
deterministic, so the run seed is not used.

The traced run calls the batched simulations (``characterize_detff_batch``,
``clock_cell_energies_batch``, ``measure_routing_batch``) in-process on
each experiment's inputs; the gap to ``api.submit`` is engine dispatch.
"""

from __future__ import annotations

import json
import math
import operator

from harness import ROOT, Run

from repro import api, obs
from repro.circuit.experiments import (FIG_METAL_CONFIGS, FIG_WIDTHS,
                                       FIG_WIRE_LENGTHS,
                                       characterize_detff_batch,
                                       clock_cell_energies_batch,
                                       gated_clock_breakeven)
from repro.circuit.flipflops import DETFF_VARIANTS
from repro.circuit.interconnect import measure_routing_batch
from repro.exp import shutdown_pools

EXPERIMENTS = ("table1", "table2", "table3", "fig8", "fig9", "fig10",
               "tristate")
SMOKE_EXPERIMENTS = ("table2",)
#: Timesteps the goldens were recorded with (tests/test_golden_results.py).
TABLE_DT, FIG_DT = 2e-12, 4e-12
RTOL = 1e-4
SMOKE_WARM_PASSES = 3
WARM_MIN = 20

#: Clock-network configurations of Tables 2 and 3, in the order the
#: experiments simulate them.
CLOCK_CONFIGS = {
    "table2": [{"level": "ble", "gated": False},
               {"level": "ble", "gated": True, "enable": 1},
               {"level": "ble", "gated": True, "enable": 0,
                "data_active": False}],
    "table3": [{"level": "clb", "gated": gated, "n_on": n_on}
               for n_on in (0, 1, 5) for gated in (False, True)],
}

def _dt(experiment: str) -> float:
    return TABLE_DT if experiment.startswith("table") else FIG_DT


def _golden(name: str):
    return json.loads(
        (ROOT / "benchmarks" / "results" / f"{name}.json").read_text())


def setup(run: Run) -> dict:
    names = SMOKE_EXPERIMENTS if run.smoke else EXPERIMENTS
    return {"jobs": [(e, api.JobRequest(kind="experiment", experiment=e,
                                        dt=_dt(e)))
                     for e in names],
            "config": api.Config.from_env(
                jobs=2, cache_dir=str(run.workdir / "cache"))}


def measure(run: Run, state: dict) -> None:
    jobs, cfg = state["jobs"], state["config"]
    run.begin()
    cold, ms = run.cold_pass(jobs, cfg)
    state.update(cold=cold, cold_metrics=ms)
    for name, value in cold.items():
        mismatch = _golden_mismatch(name, value["rows"])
        run.check(mismatch is None, f"{name}: {mismatch}")
    run.warm_passes(jobs, cfg, cold, operator.eq, SMOKE_WARM_PASSES,
                    WARM_MIN)
    run.latency_layers()


def teardown(state: dict) -> None:
    shutdown_pools()


# ---------------------------------------------------------------------------
# Correctness against the goldens
# ---------------------------------------------------------------------------

def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-12)


def _rows_mismatch(rows, golden, key_fields, fields) -> str | None:
    by_key = {tuple(r[k] for k in key_fields): r for r in rows}
    for gold in golden:
        key = tuple(gold[k] for k in key_fields)
        row = by_key.get(key)
        if row is None:
            return f"no row {key}"
        for f in fields:
            if isinstance(gold[f], (bool, str)):
                ok = row[f] == gold[f]
            else:
                ok = _close(row[f], gold[f])
            if not ok:
                return f"row {key} {f}: got {row[f]!r}, golden {gold[f]!r}"
    return None


def _golden_mismatch(name: str, rows) -> str | None:
    """First difference from ``benchmarks/results/<name>.json`` (RTOL)."""
    golden = _golden(name)
    if name == "table1":
        if len(rows) != len(golden):
            return f"{len(rows)} rows, golden has {len(golden)}"
        return _rows_mismatch(rows, golden, ("name",),
                              ("energy_fJ", "delay_ps", "edp_fJ_ps",
                               "functional"))
    if name == "table2":
        bad = [f for f, want in golden.items()
               if not _close(rows[f], want)]
        return f"fields {bad} differ" if bad else None
    if name == "table3":
        if not _close(gated_clock_breakeven(rows), golden["breakeven_p"]):
            return "breakeven_p differs"
        return _rows_mismatch(rows, golden["rows"], ("condition",),
                              ("single_fJ", "gated_fJ", "delta_pct"))
    if name == "tristate":
        return _rows_mismatch(rows, golden, ("wire_len", "width_x"),
                              ("energy_fJ", "delay_ps", "EDA"))
    if len(rows) != len(golden["rows"]):
        return f"{len(rows)} rows, golden has {len(golden['rows'])}"
    return _rows_mismatch(rows, golden["rows"], ("wire_len", "width_x"),
                          ("energy_fJ", "delay_ps", "area_mwta", "EDA"))


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _routing_points(name: str) -> tuple[list, dict]:
    widths = ([w for w in FIG_WIDTHS if w <= 16.0] if name == "tristate"
              else FIG_WIDTHS)
    points = [(w, length) for length in FIG_WIRE_LENGTHS for w in widths]
    kwargs = dict(FIG_METAL_CONFIGS["fig9" if name == "tristate"
                                    else name],
                  switch_type="tbuf" if name == "tristate" else "pass",
                  dt=FIG_DT)
    return points, kwargs


def _direct(run: Run, name: str, sums: dict[str, float]) -> list[float]:
    """One experiment's batched simulation, in-process: the raw numbers the
    api rows are built from.  Adds the call's time to ``sums``."""
    if name == "table1":
        layer, fn, args, kwargs = ("circuit.detff_batch",
                                   characterize_detff_batch,
                                   (list(DETFF_VARIANTS),),
                                   {"dt": TABLE_DT})
    elif name in CLOCK_CONFIGS:
        layer, fn, args, kwargs = ("circuit.clock_cells_batch",
                                   clock_cell_energies_batch,
                                   (CLOCK_CONFIGS[name],),
                                   {"dt": TABLE_DT})
    else:
        points, kwargs = _routing_points(name)
        layer, fn, args = ("circuit.routing_batch", measure_routing_batch,
                           (points,))
    out, secs = run.call(layer, fn, *args, **kwargs)
    sums[layer] = sums.get(layer, 0.0) + secs
    if name == "table1":
        return [v for r in out for v in (r["energy_fJ"], r["delay_ps"])]
    if name in CLOCK_CONFIGS:
        return [e / 1e-15 for e in out]
    return [v for m in out for v in (m.energy / 1e-15, m.delay / 1e-12)]


def _api_numbers(name: str, rows) -> list[float]:
    """The same raw numbers, read back out of the api rows."""
    if name == "table1":
        return [v for r in rows for v in (r["energy_fJ"], r["delay_ps"])]
    if name == "table2":
        return [rows["single_fJ"], rows["gated_en1_fJ"],
                rows["gated_en0_fJ"]]
    if name == "table3":
        return [v for r in rows for v in (r["single_fJ"], r["gated_fJ"])]
    return [v for r in rows for v in (r["energy_fJ"], r["delay_ps"])]


def _total(ms: obs.MetricSet, name: str) -> float:
    return sum(r["total"] for r in ms.export() if r["name"] == name)


def trace_layers(run: Run, state: dict) -> None:
    cold = state["cold"]
    sums: dict[str, float] = {}
    ms = obs.MetricSet()
    for name, _ in state["jobs"]:
        with obs.metrics.collect(ms):
            numbers = run.attempt(f"{name} (direct)", _direct, run, name,
                                  sums)
        if numbers is None or name not in cold:
            continue
        want = _api_numbers(name, cold[name]["rows"])
        run.check(len(numbers) == len(want) and all(
                      math.isclose(a, b, rel_tol=1e-9)
                      for a, b in zip(numbers, want)),
                  f"{name}: in-process simulation differs from api.submit")

    layers = run.layers
    for layer in ("circuit.detff_batch", "circuit.clock_cells_batch",
                  "circuit.routing_batch"):
        layers[f"{layer}_s"] = sums.get(layer, 0.0)
    n_batches = sum(r["n"] for r in ms.export()
                    if r["name"] == "sim.batch_size")
    layers["sim.batch_size"] = _total(ms, "sim.batch_size") / n_batches
    for name in ("exp.pool.dispatch_s", "exp.job_seconds",
                 "exp.pool.spawns"):
        layers[name] = _total(state["cold_metrics"], name)
    # Time inside api.submit not spent running the job in its worker,
    # both from the same cold pass.
    layers["exp.dispatch_s"] = (sum(run.samples["cold_s"])
                                - layers["exp.job_seconds"])

