"""Differential tests: vectorized hot paths vs their reference oracles.

The product ships one implementation per hot path.  The references
they were derived from live in :mod:`tests.oracles`.  This suite pins
the equivalence contract:

* transients -- batched waveforms match the one-circuit-at-a-time
  reference loop (:mod:`tests.oracles.transient`) within the Newton
  solver tolerance on arbitrary RC / pass-transistor circuits
  (hypothesis-generated), and bit-for-bit when the batch engine uses
  its dense solver, which :func:`repro.circuit.simulate` always does;
* placement and routing -- with the oracle swapped in for the
  incremental cost model / router (``monkeypatch`` on the module
  attribute), the product entrypoints reproduce the same results
  *exactly* (same placements, costs, move and evaluation counts, same
  routing trees) for the same seeds;
* placer invariant -- the incremental bbox total equals a from-scratch
  :func:`~repro.place.placer.wirelength_cost` of the live coordinates
  at every temperature step;
* failure surfacing -- a :class:`NewtonConvergenceError` crossing the
  experiment engine arrives as a structured ``JobError`` that still
  names the offending nodes and timestep.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import DEFAULT_ARCH, build_rr_graph
from repro.arch.fabric import Site
from repro.bench import counter, random_logic
from repro.circuit import (Circuit, NewtonConvergenceError, STM018,
                           simulate, simulate_batch)
from repro.circuit.cells import inverter, pass_nmos
from repro.circuit.clockgate import build_ble_clock
from repro.circuit.experiments import _detff_circuit
from repro.circuit.waveforms import pulse_train
from repro.exp import JobSpec, NullCache, ParallelRunner
from repro.exp.tasks import task
from repro.obs.metrics import MetricSet, collect
from repro.pack import pack_netlist
from repro.place import place, placer
from repro.place.placer import wirelength_cost
from repro.route import route, route_min_channel_width, router
from repro.synth import optimize_and_map
from tests.oracles import transient
from tests.oracles.place import ScalarCost
from tests.oracles.route import route_all

VDD = STM018.vdd

#: The Newton convergence tolerance of both loops (V); the batched
#: banded solve may deviate from the reference's dense solve by machine
#: epsilon only, so matching within solver tolerance is a loose bound.
SOLVER_TOL = 1e-4


# ---------------------------------------------------------------------------
# Random circuit strategies
# ---------------------------------------------------------------------------

@st.composite
def rc_params(draw):
    """Parameters of one random RC ladder."""
    n_stages = draw(st.integers(1, 4))
    r_kohm = draw(st.lists(st.integers(1, 40), min_size=n_stages,
                           max_size=n_stages))
    c_ff = draw(st.lists(st.integers(2, 150), min_size=n_stages,
                         max_size=n_stages))
    t_rise_ps = draw(st.integers(50, 400))
    return r_kohm, c_ff, t_rise_ps


@st.composite
def pass_chain_params(draw):
    """Parameters of one inverter-driven pass-transistor chain."""
    n_pass = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 8), min_size=n_pass,
                           max_size=n_pass))
    c_ff = draw(st.integers(5, 60))
    return widths, c_ff


def _rc_circuit(params):
    r_kohm, c_ff, t_rise_ps = params
    ckt = Circuit(tech=STM018, title="rc")
    node = ckt.node("in")
    ckt.voltage_source(node, pulse_train(
        [(t_rise_ps * 1e-12, VDD), (2e-9, 0.0)], v_init=0.0))
    for i, (r, c) in enumerate(zip(r_kohm, c_ff)):
        nxt = ckt.node(f"n{i}")
        ckt.resistor(node, nxt, r * 1e3)
        ckt.capacitor(nxt, c * 1e-15)
        node = nxt
    return ckt, 4e-9


def _pass_circuit(params):
    widths, c_ff = params
    ckt = Circuit(tech=STM018, title="pass")
    a = ckt.node("a")
    ckt.voltage_source(a, pulse_train([(0.2e-9, VDD), (2e-9, 0.0)],
                                      v_init=0.0))
    node = ckt.node("drv")
    inverter(ckt, a, node, name="drv")
    for i, w in enumerate(widths):
        nxt = ckt.node(f"p{i}")
        pass_nmos(ckt, node, nxt, en=ckt.vdd, w=float(w),
                  name=f"sw{i}")
        ckt.capacitor(nxt, c_ff * 1e-15)
        node = nxt
    return ckt, 4e-9


def _assert_within_tol(ckts, t_ends, dt=2e-12):
    scalar = [transient.simulate(c, t, dt=dt)
              for c, t in zip(ckts, t_ends)]
    batched = simulate_batch(ckts, t_ends, dt=dt)
    for rs, rb in zip(scalar, batched):
        assert np.array_equal(rs.time, rb.time)
        assert rs.node_names == rb.node_names
        dv = np.abs(rs.voltages - rb.voltages).max()
        assert dv <= SOLVER_TOL, f"waveform deviation {dv:.3e} V"
        di = np.abs(rs.supply_current - rb.supply_current).max()
        assert di <= SOLVER_TOL, f"supply deviation {di:.3e} A"


class TestTransientEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(rc_params(), min_size=1, max_size=3))
    def test_random_rc_within_solver_tolerance(self, param_sets):
        ckts, t_ends = zip(*[_rc_circuit(p) for p in param_sets])
        _assert_within_tol(list(ckts), list(t_ends))

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(pass_chain_params(), min_size=1, max_size=3))
    def test_random_pass_chains_within_solver_tolerance(self,
                                                       param_sets):
        ckts, t_ends = zip(*[_pass_circuit(p) for p in param_sets])
        _assert_within_tol(list(ckts), list(t_ends))

    def test_dense_solver_is_bit_identical(self):
        """solver="dense", and so simulate(), reproduces the reference
        loop bit-for-bit: on narrow-band circuits (an RC ladder, a pass
        chain) and wide-band ones (a DETFF under the Fig. 4 stimulus,
        the gated BLE clock)."""
        ble = build_ble_clock(gated=True, enable=1)
        ckts, t_ends = zip(*[
            _rc_circuit(([5, 20], [30, 80], 150)),
            _pass_circuit(([2, 6], 25)),
            _detff_circuit("chung1", STM018),
            (ble.circuit, ble.t_sim),
        ])
        scalar = [transient.simulate(c, t, dt=2e-12)
                  for c, t in zip(ckts, t_ends)]
        single = [simulate(c, t, dt=2e-12) for c, t in zip(ckts, t_ends)]
        batched = simulate_batch(list(ckts), list(t_ends), dt=2e-12,
                                 solver="dense")
        for rs, r1, rb in zip(scalar, single, batched):
            for r in (r1, rb):
                assert np.array_equal(rs.time, r.time)
                assert rs.node_names == r.node_names
                assert np.array_equal(rs.voltages, r.voltages)
                assert np.array_equal(rs.supply_current,
                                      r.supply_current)

    def test_heterogeneous_batch_time_axes(self):
        """Mixed step counts repack correctly mid-batch."""
        ckts = []
        t_ends = []
        for n, t_end in ((1, 1.5e-9), (3, 4e-9), (2, 2.5e-9)):
            c, _ = _rc_circuit(([10] * n, [50] * n, 100))
            ckts.append(c)
            t_ends.append(t_end)
        _assert_within_tol(ckts, t_ends)


# ---------------------------------------------------------------------------
# Place and route: exact reproduction
# ---------------------------------------------------------------------------

def _packed(net):
    return pack_netlist(optimize_and_map(net, 4).network)


@pytest.fixture(scope="module")
def pr_netlists():
    return {
        "counter8": _packed(counter(8)),
        "rand": _packed(random_logic("veq", n_pi=6, n_po=4,
                                     n_nodes=45, seed=11)),
    }


class TestPlacerEquivalence:
    @pytest.mark.parametrize("name,seed", [("counter8", 5),
                                           ("counter8", 9),
                                           ("rand", 3)])
    def test_incremental_placement_exact(self, pr_netlists, monkeypatch,
                                         name, seed):
        cn = pr_netlists[name]
        mb, ma = MetricSet(), MetricSet()
        with collect(mb):
            b = place(cn, DEFAULT_ARCH, seed=seed, effort=0.5)
        monkeypatch.setattr(placer, "_IncrementalCost", ScalarCost)
        with collect(ma):
            a = place(cn, DEFAULT_ARCH, seed=seed, effort=0.5)
        assert a.loc == b.loc
        assert a.cost == b.cost
        assert a.grid_size == b.grid_size
        for metric in ("place.moves", "place.incremental_evals"):
            assert ma.value(metric) == mb.value(metric) > 0

    @pytest.mark.parametrize("name,seed", [("counter8", 5), ("rand", 3)])
    def test_incremental_total_matches_recompute(self, pr_netlists,
                                                 monkeypatch, name, seed):
        """Every temperature step's drift-cancel total is exact.

        The reference cost is taken over the model's live coordinates:
        the placer builds its ``loc`` only after the anneal.
        """
        checked = []

        class Checked(placer._IncrementalCost):
            def __init__(self, loc, nets):
                super().__init__(loc, nets)
                self._kinds = {b: s.kind for b, s in loc.items()}
                self._nets = nets

            def total(self):
                got = super().total()
                live = {b: Site(kind, x, y) for (b, kind), x, y
                        in zip(self._kinds.items(), self.x, self.y)}
                assert got == wirelength_cost(live, self._nets)
                checked.append(got)
                return got

        monkeypatch.setattr(placer, "_IncrementalCost", Checked)
        place(pr_netlists[name], DEFAULT_ARCH, seed=seed, effort=0.5)
        # The initial total plus one per temperature step.
        assert len(checked) > 2


class TestRouterEquivalence:
    @pytest.mark.parametrize("name,seed", [("counter8", 5),
                                           ("rand", 2)])
    def test_incremental_routing_exact(self, pr_netlists, monkeypatch,
                                       name, seed):
        cn = pr_netlists[name]
        pl = place(cn, DEFAULT_ARCH, seed=seed, effort=0.5)
        g = build_rr_graph(DEFAULT_ARCH, pl.grid_size)
        b = route(pl, g)
        monkeypatch.setattr(router, "_route_all_incremental", route_all)
        a = route(pl, g)
        assert a.success == b.success
        assert a.iterations == b.iterations
        assert a.overused == b.overused
        assert {k: t.parents for k, t in a.trees.items()} \
            == {k: t.parents for k, t in b.trees.items()}

    @pytest.mark.parametrize("width,iterations,success",
                             [(8, 12, True), (6, 40, False)])
    def test_incremental_routing_exact_under_congestion(
            self, pr_netlists, monkeypatch, width, iterations, success):
        """Many PathFinder iterations, where present and history costs
        grow: every cached node cost the router refreshes is read.

        Trees are compared with their insertion order and net names.
        """
        pl = place(pr_netlists["rand"], DEFAULT_ARCH, seed=5, effort=0.5)
        g = build_rr_graph(replace(DEFAULT_ARCH, channel_width=width),
                           pl.grid_size)
        b = route(pl, g)
        monkeypatch.setattr(router, "_route_all_incremental", route_all)
        a = route(pl, g)
        assert (b.iterations, b.success) == (iterations, success)
        assert (a.success, a.iterations, a.overused) \
            == (b.success, b.iterations, b.overused)
        assert [(k, t.net, list(t.parents.items()))
                for k, t in a.trees.items()] \
            == [(k, t.net, list(t.parents.items()))
                for k, t in b.trees.items()]

    def test_min_width_search_exact(self, pr_netlists, monkeypatch):
        pl = place(pr_netlists["counter8"], DEFAULT_ARCH, seed=5,
                   effort=0.5)
        wb, rb, _ = route_min_channel_width(pl, DEFAULT_ARCH)
        monkeypatch.setattr(router, "_route_all_incremental", route_all)
        wa, ra, _ = route_min_channel_width(pl, DEFAULT_ARCH)
        assert wa == wb
        assert ra.iterations == rb.iterations
        assert ra.overused == rb.overused
        assert {k: t.parents for k, t in ra.trees.items()} \
            == {k: t.parents for k, t in rb.trees.items()}


# ---------------------------------------------------------------------------
# Convergence-failure surfacing through the engine
# ---------------------------------------------------------------------------

@task("_test_newton_fail")
def _newton_fail(**_ignored):
    raise NewtonConvergenceError.at_step(
        time=3.2e-10, dt=1e-12, nodes=["ff.q", "ff.qb"],
        detail="injected")


class TestConvergenceErrorSurfacing:
    def test_error_names_nodes_and_timestep(self):
        err = NewtonConvergenceError.at_step(
            time=3.2e-10, dt=1e-12, nodes=["ff.q", "ff.qb"])
        assert err.nodes == ["ff.q", "ff.qb"]
        assert err.time == 3.2e-10
        assert err.dt == 1e-12
        assert "ff.q" in str(err) and "3.2000e-10" in str(err)

    def test_surfaces_as_structured_job_error(self):
        runner = ParallelRunner(jobs=1, cache=NullCache())
        (res,) = runner.run([JobSpec.make("_test_newton_fail")])
        assert not res.ok
        assert res.error.kind == "error"
        assert res.error.exc_type == "NewtonConvergenceError"
        assert "ff.q" in res.error.message
        assert "t=3.2000e-10" in res.error.message
        assert "dt=1.000e-12" in res.error.message
