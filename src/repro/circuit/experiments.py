"""End-to-end experiment drivers for the platform-side tables and figures.

Each function reproduces one published artifact and returns plain data
structures (lists of row dicts) so the benchmark harness, tests and
examples can all share them:

* :func:`run_table1` -- DETFF energy / worst-case delay / EDP (Table 1)
* :func:`run_table2` -- BLE-level single vs gated clock (Table 2)
* :func:`run_table3` -- CLB-level single vs gated clock (Table 3)
* :func:`run_fig_sweep` -- E*D*A vs routing switch width (Figs. 8-10
  and the section 3.3.2 tri-state buffer study)

Every driver fans its independent measurements out through the batch
experiment engine (:mod:`repro.exp`): pass ``runner=ParallelRunner(...)``
to control worker count and caching, or set ``REPRO_JOBS`` /
``REPRO_NO_CACHE`` in the environment to configure the default.
Results are deterministic and row order matches the paper regardless
of how many workers computed them.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..exp import JobSpec, ParallelRunner, default_runner
from .batchsim import simulate_batch
from .clockgate import GatedClockSetup, build_ble_clock, build_clb_clock
from .flipflops import DETFF_VARIANTS
from .interconnect import RoutingMeasurement
from .metrics import crossing_times, worst_case_delay
from .network import Circuit
from .technology import Technology, STM018
from .waveforms import fig4_stimulus

#: Flip-flop output load during characterisation (F).
FF_CHAR_LOAD = 1.5e-15

#: Width sweep used by the paper in Figs. 8-10 (multiples of minimum).
FIG_WIDTHS = [1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 32.0, 64.0]

#: Logical wire lengths evaluated in Figs. 8-10.
FIG_WIRE_LENGTHS = [1, 2, 4, 8]

#: Metal configurations of Figs. 8, 9 and 10 respectively.
FIG_METAL_CONFIGS = {
    "fig8": {"metal_width": 1.0, "metal_spacing": 1.0},
    "fig9": {"metal_width": 1.0, "metal_spacing": 2.0},
    "fig10": {"metal_width": 2.0, "metal_spacing": 2.0},
}


def _detff_circuit(name: str, tech: Technology) -> tuple[Circuit, float]:
    """Fig. 4 characterisation circuit for one DETFF variant."""
    builder = DETFF_VARIANTS[name]
    ckt = Circuit(tech=tech, title=f"detff-{name}")
    d = ckt.node("d")
    clk = ckt.node("clk")
    q = ckt.node("q")
    builder(ckt, d, clk, q, "ff")
    ckt.capacitor(q, FF_CHAR_LOAD)
    clkw, dataw, t_end = fig4_stimulus(tech.vdd)
    ckt.voltage_source(clk, clkw)
    ckt.voltage_source(d, dataw)
    return ckt, t_end


def _detff_row(name: str, res, tech: Technology) -> dict[str, float]:
    """Energy / delay / EDP / functional row from one transient."""
    t = res.time
    vq, vd, vc = res.v("q"), res.v("d"), res.v("clk")
    th = tech.vdd / 2.0
    functional = True
    for te in crossing_times(t, vc, th):
        i_before = np.searchsorted(t, te - 10e-12)
        i_after = min(np.searchsorted(t, te + 800e-12), len(t) - 1)
        if (vd[i_before] > th) != (vq[i_after] > th):
            functional = False
    energy = res.energy
    delay = worst_case_delay(t, vc, vq, tech.vdd, max_delay=0.9e-9)
    return {
        "name": name,
        "energy_fJ": energy / 1e-15,
        "delay_ps": delay / 1e-12,
        "edp_fJ_ps": energy * delay / 1e-27,
        "functional": functional,
    }


def characterize_detff_batch(names: list[str], *,
                             tech: Technology = STM018,
                             dt: float = 1e-12
                             ) -> list[dict[str, float]]:
    """Characterise several DETFFs in one batched transient run.

    Each row holds total supply energy over the Fig. 4 sequence,
    worst-case clock-to-Q delay over all edge/data combinations, their
    product, and a functional-correctness flag (Q equals D-at-edge
    after every clock edge).
    """
    built = [_detff_circuit(name, tech) for name in names]
    results = simulate_batch([c for c, _ in built],
                             [t for _, t in built], dt=dt)
    return [_detff_row(name, res, tech)
            for name, res in zip(names, results)]


def clock_cell_setup(level: str, gated: bool, *,
                     enable: int | None = None,
                     data_active: bool = True,
                     n_on: int | None = None) -> GatedClockSetup:
    """Build one Table 2/3 clock-network configuration."""
    if level == "ble":
        return build_ble_clock(gated=gated, enable=enable,
                               data_active=data_active)
    if level == "clb":
        if n_on is None:
            raise ValueError("clb clock cell needs n_on")
        return build_clb_clock(gated=gated, n_on=n_on)
    raise ValueError(f"unknown clock level {level!r}")


def clock_cell_energies_batch(configs: list[dict], *,
                              dt: float = 1e-12) -> list[float]:
    """Steady-state energies of several clock configurations (J).

    ``configs`` entries are keyword dicts for :func:`clock_cell_setup`;
    all transients run as one batch.
    """
    setups = [clock_cell_setup(**cfg) for cfg in configs]
    results = simulate_batch([s.circuit for s in setups],
                             [s.t_sim for s in setups], dt=dt)
    return [res.energy_between(s.t_start, s.t_end)
            for s, res in zip(setups, results)]


def _sharded(kind: str, field: str, items: list,
             runner: ParallelRunner | None, driver: str,
             **params) -> list:
    """Run ``items`` as the ``field`` list of ``kind`` jobs, one job per
    worker; return one result per item, in input order.

    The list is cut into ``k = min(runner.jobs, len(items))`` strided
    shards ``items[i::k]``, each one engine job.  A circuit's result in
    the batched engine does not depend on which circuits share its
    batch, so the results are the same for any ``k``.  Strided shards
    keep the whole list's mix of step counts, which is what balances
    a lock-step batch.  With ``jobs == 1`` this submits the one job of
    the whole list.  ``runner=None`` uses the env-configured default.
    """
    if runner is None:
        runner = default_runner()
    k = max(1, min(runner.jobs, len(items)))
    specs = [JobSpec.make(kind, **{field: items[i::k]}, **params)
             for i in range(k)]
    with obs.span(f"exp.{driver}", n_specs=k):
        shards = runner.run_values(specs)
    values: list = [None] * len(items)
    for i, shard in enumerate(shards):
        values[i::k] = shard
    return values


def _run_table1(*, tech: Technology = STM018, dt: float = 1e-12,
                runner: ParallelRunner | None = None
                ) -> list[dict[str, float]]:
    """Table 1: all five DETFF candidates, in the paper's row order.

    The flip-flops run as tensor-shaped transients, one batched job
    per worker.
    """
    return _sharded("detff_batch", "names", list(DETFF_VARIANTS), runner,
                    "table1", tech=tech, dt=dt)


def _clock_cell_energies(configs: list[dict], dt: float,
                         runner: ParallelRunner | None,
                         driver: str) -> list[float]:
    """Table 2/3 energies, the configurations batched one job per
    worker."""
    return _sharded("clock_cells_batch", "configs", configs, runner,
                    driver, dt=dt)


def _run_table2(*, dt: float = 1e-12,
                runner: ParallelRunner | None = None) -> dict[str, float]:
    """Table 2: BLE-level single vs gated clock energies (fJ/cycle).

    Returns single-clock energy, gated energy with enable=1 and
    enable=0, and the derived percentages the paper quotes (saving at
    enable=0, overhead at enable=1).
    """
    configs = [
        {"level": "ble", "gated": False},
        {"level": "ble", "gated": True, "enable": 1},
        {"level": "ble", "gated": True, "enable": 0,
         "data_active": False},
    ]
    e_single, e_gate1, e_gate0 = _clock_cell_energies(
        configs, dt, runner, "table2")
    return {
        "single_fJ": e_single / 1e-15,
        "gated_en1_fJ": e_gate1 / 1e-15,
        "gated_en0_fJ": e_gate0 / 1e-15,
        "saving_en0_pct": 100.0 * (1.0 - e_gate0 / e_single),
        "overhead_en1_pct": 100.0 * (e_gate1 / e_single - 1.0),
    }


def _run_table3(*, dt: float = 1e-12,
                runner: ParallelRunner | None = None
                ) -> list[dict[str, float]]:
    """Table 3: CLB-level single vs gated clock for three conditions."""
    conditions = (("all_off", 0), ("one_on", 1), ("all_on", 5))
    configs = [{"level": "clb", "gated": gated, "n_on": n_on}
               for _, n_on in conditions for gated in (False, True)]
    energies = iter(_clock_cell_energies(configs, dt, runner, "table3"))
    rows = []
    for label, n_on in conditions:
        e_single = next(energies)
        e_gated = next(energies)
        rows.append({
            "condition": label,
            "single_fJ": e_single / 1e-15,
            "gated_fJ": e_gated / 1e-15,
            "delta_pct": 100.0 * (e_gated / e_single - 1.0),
        })
    return rows


def gated_clock_breakeven(rows: list[dict[str, float]]) -> float:
    """Probability of the all-off state above which CLB gating wins.

    The paper argues gating pays off when P(all FFs off) > ~1/3.  With
    energies E_single/E_gated for the all-off and all-on conditions,
    the break-even P solves
    ``P*Eg_off + (1-P)*Eg_on = P*Es_off + (1-P)*Es_on``.
    """
    by = {r["condition"]: r for r in rows}
    es_off, eg_off = by["all_off"]["single_fJ"], by["all_off"]["gated_fJ"]
    es_on, eg_on = by["all_on"]["single_fJ"], by["all_on"]["gated_fJ"]
    num = eg_on - es_on
    den = (eg_on - es_on) + (es_off - eg_off)
    if den <= 0:
        raise ValueError("gating never pays off under these energies")
    return num / den


def _run_fig_sweep(fig: str, *, widths: list[float] | None = None,
                   wire_lengths: list[int] | None = None,
                   switch_type: str = "pass",
                   tech: Technology = STM018,
                   dt: float = 2e-12,
                   runner: ParallelRunner | None = None
                   ) -> dict[int, list[RoutingMeasurement]]:
    """Figs. 8/9/10 (or the 3.3.2 buffer study): EDA vs switch width.

    ``fig`` is one of ``"fig8"``, ``"fig9"``, ``"fig10"``.  The grid
    runs as tensor-shaped batches, one job per worker; rows come back
    grouped by wire length with widths in the order given.
    """
    if fig not in FIG_METAL_CONFIGS:
        raise ValueError(f"unknown figure {fig!r}")
    cfg = FIG_METAL_CONFIGS[fig]
    widths = FIG_WIDTHS if widths is None else widths
    wire_lengths = FIG_WIRE_LENGTHS if wire_lengths is None else wire_lengths
    if switch_type == "tbuf":
        # The paper caps buffers at 16x minimum.
        widths = [w for w in widths if w <= 16.0]
    points = [[w, length] for length in wire_lengths for w in widths]
    values = iter(_sharded("fig_sweep_batch", "points", points, runner,
                           fig, switch_type=switch_type, tech=tech,
                           dt=dt, **cfg))
    return {length: [next(values) for _ in widths]
            for length in wire_lengths}


# ---------------------------------------------------------------------------
# Deprecated public entrypoints.  The typed facade `repro.api.submit`
# (a JobRequest with kind="experiment") is the supported way to run the
# paper sweeps; these shims keep existing callers working unchanged.

def _deprecated_entrypoint(public: str, impl):
    def shim(*args, **kwargs):
        import warnings
        warnings.warn(
            f"repro.circuit.experiments.{public}() is deprecated; "
            f"submit a JobRequest(kind='experiment') through "
            f"repro.api.submit() instead",
            DeprecationWarning, stacklevel=2)
        return impl(*args, **kwargs)
    shim.__name__ = public
    shim.__qualname__ = public
    shim.__doc__ = (f"Deprecated alias of the experiment engine behind "
                    f"``repro.api.submit``.\n\n{impl.__doc__}")
    return shim


run_table1 = _deprecated_entrypoint("run_table1", _run_table1)
run_table2 = _deprecated_entrypoint("run_table2", _run_table2)
run_table3 = _deprecated_entrypoint("run_table3", _run_table3)
run_fig_sweep = _deprecated_entrypoint("run_fig_sweep", _run_fig_sweep)
