"""Cross-module integration tests: the whole flow, behaviour-preserving.

The strongest invariant the flow must satisfy: at every representation
change (VHDL -> gates -> BLIF -> optimised -> mapped -> packed ->
bitstream) the circuit's cycle-accurate behaviour is identical, and the
bitstream's LUT configuration agrees with the mapped network's truth
tables.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_ARCH, build_rr_graph
from repro.bench import counter, mcnc_class_suite, random_logic
from repro.bitgen import generate_config, unpack_bitstream
from repro.flow import DesignFlow, FlowOptions
from repro.pack import pack_netlist
from repro.place import place
from repro.route import route
from repro.synth import optimize_and_map


def _rand_vecs(inputs, n, seed):
    rng = random.Random(seed)
    return [{i: rng.randint(0, 1) for i in inputs} for _ in range(n)]


class TestBehaviourThroughFlow:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_combinational_equivalence(self, seed):
        net = random_logic("r", n_pi=7, n_po=4, n_nodes=35, seed=seed)
        res = DesignFlow(FlowOptions(seed=1)).run(net)
        vecs = _rand_vecs(net.inputs, 16, seed + 1)
        assert net.simulate(vecs) == res.mapped.simulate(vecs)

    def test_sequential_equivalence(self):
        net = random_logic("r", n_pi=6, n_po=4, n_nodes=40, seed=77,
                           registered=True)
        res = DesignFlow(FlowOptions(seed=1)).run(net)
        vecs = _rand_vecs(net.inputs, 25, 3)
        assert net.simulate(vecs) == res.mapped.simulate(vecs)

    def test_suite_routes_and_programs(self):
        for net in mcnc_class_suite()[:6]:
            res = DesignFlow(FlowOptions(seed=2)).run(net)
            assert res.routing.success, net.name
            assert res.bitstream, net.name


class TestBitstreamAgreesWithNetlist:
    def test_decoded_luts_reproduce_functions(self):
        mapped = optimize_and_map(counter(6), 4).network
        cn = pack_netlist(mapped)
        pl = place(cn, DEFAULT_ARCH, seed=8)
        g = build_rr_graph(DEFAULT_ARCH, pl.grid_size)
        rr = route(pl, g)
        cfg = generate_config(mapped, cn, pl, rr, g, DEFAULT_ARCH)
        # Evaluate each configured LUT against the mapped node.
        for c in cn.clusters:
            site = pl.loc[c.name]
            clb = cfg.clbs[(site.x, site.y)]
            for j, b in enumerate(c.bles):
                if b.lut is None:
                    continue
                node = mapped.nodes[b.lut]
                n_in = len(node.fanins)
                for m in range(1 << n_in):
                    values = {f: (m >> i) & 1
                              for i, f in enumerate(node.fanins)}
                    assert clb.lut_bits[j][m] == node.eval(values)

    def test_every_used_clb_has_clock_iff_registered(self):
        mapped = optimize_and_map(counter(6), 4).network
        cn = pack_netlist(mapped)
        pl = place(cn, DEFAULT_ARCH, seed=8)
        g = build_rr_graph(DEFAULT_ARCH, pl.grid_size)
        rr = route(pl, g)
        cfg = generate_config(mapped, cn, pl, rr, g, DEFAULT_ARCH)
        for c in cn.clusters:
            site = pl.loc[c.name]
            clb = cfg.clbs[(site.x, site.y)]
            has_ff = any(b.registered for b in c.bles)
            assert clb.clb_clk_en == (1 if has_ff else 0)


class TestQoRSanity:
    def test_wirelength_grows_with_circuit_size(self):
        small = DesignFlow(FlowOptions(seed=1)).run(
            random_logic("s", n_pi=6, n_po=3, n_nodes=20, seed=1))
        big = DesignFlow(FlowOptions(seed=1)).run(
            random_logic("b", n_pi=12, n_po=8, n_nodes=120, seed=1))
        wl_s = small.routing.total_wirelength(small.rr_graph)
        wl_b = big.routing.total_wirelength(big.rr_graph)
        assert wl_b > wl_s

    def test_seed_changes_placement_not_function(self):
        net = counter(6)
        a = DesignFlow(FlowOptions(seed=1)).run(net)
        b = DesignFlow(FlowOptions(seed=99)).run(net)
        vecs = [{"en": 1}] * 10
        assert a.mapped.simulate(vecs) == b.mapped.simulate(vecs)
