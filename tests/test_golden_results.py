"""Golden-regression tests against the checked-in benchmark results.

Recomputes the Table 1-3 and Fig. 8-10 rows with the exact settings the
benchmark harness used to produce ``benchmarks/results/*.json`` and
compares them within tolerance, so any numeric drift introduced by an
engine or model rework is caught in tier-1 rather than discovered in a
benchmark run much later.

The recomputation submits through the experiment engine's default
runner, so a warm result cache makes this module near-instant while a
cold one recomputes everything (which is the point: cached and fresh
values must be the same numbers).  The test-wide fixture clears every
``REPRO_*`` variable, but this module hands ``REPRO_JOBS`` from the
shell back to that runner: ``REPRO_JOBS=2`` runs each study as two
shards on the warm pool, and the goldens must hold either way.

The drivers run the batched tensor engine.  The goldens were recorded
with the one-circuit-at-a-time reference loop
(:mod:`tests.oracles.transient`); the batched engine matching them
within RTOL is itself part of the equivalence contract, so no
re-goldening was needed.  Table 2 also keeps a scalar-oracle arm: its
three clock configurations run through that reference loop one at a
time and must hit the same goldens.
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.circuit import experiments
from repro.circuit.experiments import (gated_clock_breakeven,
                                       run_fig_sweep, run_table1,
                                       run_table2, run_table3)
from repro.exp import NullCache, ParallelRunner
from tests.oracles import transient

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: Settings the benchmark harness recorded the goldens with.
TABLE_DT = 2e-12
FIG_DT = 4e-12
FIG_WIDTHS = [1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 32.0, 64.0]
FIG_LENGTHS = [1, 2, 4, 8]

#: Same machine reproduces bit-identically; the tolerance only absorbs
#: libm/compiler differences across platforms while still flagging any
#: genuine modelling drift.
RTOL = 1e-4

#: The shell's worker count, read before any test clears it.
SHELL_JOBS = os.environ.get("REPRO_JOBS")


@pytest.fixture(autouse=True)
def _shell_jobs(_hermetic_env, monkeypatch):
    if SHELL_JOBS is not None:
        monkeypatch.setenv("REPRO_JOBS", SHELL_JOBS)


def _golden(name: str):
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"no golden file {path.name}; run the benchmarks "
                    f"to regenerate it")
    return json.loads(path.read_text())


def _assert_close(got: float, want: float, what: str) -> None:
    assert math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-12), (
        f"{what}: got {got!r}, golden {want!r}")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_table1_matches_golden():
    golden = _golden("table1")
    rows = run_table1(dt=TABLE_DT)
    assert [r["name"] for r in rows] == [g["name"] for g in golden]
    for row, gold in zip(rows, golden):
        for field in ("energy_fJ", "delay_ps", "edp_fJ_ps"):
            _assert_close(row[field], gold[field],
                          f"table1 {row['name']} {field}")
        assert row["functional"] == gold["functional"]


def _simulate_each(circuits, t_ends, *, dt):
    """Drop-in for ``simulate_batch``: one reference transient per
    circuit."""
    return [transient.simulate(c, t, dt=dt)
            for c, t in zip(circuits, t_ends)]


@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_table2_matches_golden(engine, monkeypatch):
    """The batched engine and the scalar oracle hit the same goldens."""
    golden = _golden("table2")
    if engine == "batched":
        data = run_table2(dt=TABLE_DT)
    else:
        # In-process and uncached, so the swapped engine really runs
        # and its values never reach the shared result cache.
        monkeypatch.setattr(experiments, "simulate_batch", _simulate_each)
        data = run_table2(dt=TABLE_DT, runner=ParallelRunner(
            jobs=1, cache=NullCache(), timeout_s=0))
    assert set(data) == set(golden)
    for field, want in golden.items():
        _assert_close(data[field], want, f"table2 {field}")


def test_table3_matches_golden():
    golden = _golden("table3")
    rows = run_table3(dt=TABLE_DT)
    assert ([r["condition"] for r in rows]
            == [g["condition"] for g in golden["rows"]])
    for row, gold in zip(rows, golden["rows"]):
        for field in ("single_fJ", "gated_fJ", "delta_pct"):
            _assert_close(row[field], gold[field],
                          f"table3 {row['condition']} {field}")
    _assert_close(gated_clock_breakeven(rows), golden["breakeven_p"],
                  "table3 breakeven_p")


# ---------------------------------------------------------------------------
# Figures 8-10
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fig", ["fig8", "fig9", "fig10"])
def test_fig_sweep_matches_golden(fig):
    golden = _golden(fig)
    sweep = run_fig_sweep(fig, widths=FIG_WIDTHS,
                          wire_lengths=FIG_LENGTHS, dt=FIG_DT)

    rows = [m for length in FIG_LENGTHS for m in sweep[length]]
    assert len(rows) == len(golden["rows"])
    for m, gold in zip(rows, golden["rows"]):
        assert m.wire_length == gold["wire_len"]
        assert m.width_mult == gold["width_x"]
        _assert_close(m.energy / 1e-15, gold["energy_fJ"],
                      f"{fig} L{m.wire_length} w{m.width_mult} energy")
        _assert_close(m.delay / 1e-12, gold["delay_ps"],
                      f"{fig} L{m.wire_length} w{m.width_mult} delay")
        _assert_close(m.area, gold["area_mwta"],
                      f"{fig} L{m.wire_length} w{m.width_mult} area")

    optima = {length: min(sweep[length], key=lambda m: m.eda).width_mult
              for length in FIG_LENGTHS}
    assert optima == {int(k): v for k, v in golden["optima"].items()}
