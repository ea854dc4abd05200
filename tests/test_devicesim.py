"""Tests for the bitstream-level device simulator.

These are the flow's strongest end-to-end checks: the FPGA model is
configured *only* from the generated bitstream and must reproduce the
mapped netlist's cycle-accurate behaviour.  The product decodes with
the chipdb disassembler; the switch-box flood decoder of
:mod:`tests.oracles.devicesim` is its independent reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_ARCH, build_rr_graph
from repro.bench import alu_slice, counter, lfsr, random_logic
from repro.bitgen import DisasmError, generate_bitstream, unpack_bitstream
from repro.bitgen.devicesim import (DeviceSimulator,
                                    pad_map_from_placement)
from repro.pack import pack_netlist
from repro.place import place
from repro.route import route
from repro.synth import optimize_and_map
from tests.oracles.devicesim import FloodDeviceSimulator


def _configure(net, seed):
    """Run the back half of the flow; return the packing, placement and
    the unpacked bitstream."""
    mapped = optimize_and_map(net, 4).network
    cn = pack_netlist(mapped)
    pl = place(cn, DEFAULT_ARCH, seed=seed)
    g = build_rr_graph(DEFAULT_ARCH, pl.grid_size)
    rr = route(pl, g)
    assert rr.success
    bs = generate_bitstream(mapped, cn, pl, rr, g, DEFAULT_ARCH)
    return mapped, cn, pl, unpack_bitstream(bs, DEFAULT_ARCH)


def program_device(net, seed=6):
    """Run the back half of the flow and boot a device simulator."""
    mapped, _, pl, cfg = _configure(net, seed)
    dev = DeviceSimulator(cfg, pad_map_from_placement(pl))
    return mapped, dev


def _rand_vecs(inputs, n, seed):
    rng = random.Random(seed)
    return [{i: rng.randint(0, 1) for i in inputs} for _ in range(n)]


class TestDeviceMatchesNetlist:
    def test_counter(self):
        mapped, dev = program_device(counter(6))
        vecs = [{"en": 1}] * 20
        assert dev.run(vecs) == mapped.simulate(vecs)

    def test_alu(self):
        net = alu_slice(4)
        mapped, dev = program_device(net)
        vecs = _rand_vecs(net.inputs, 20, 4)
        assert dev.run(vecs) == mapped.simulate(vecs)

    def test_lfsr(self):
        net = lfsr(8, (0, 2, 3, 4))
        mapped, dev = program_device(net)
        vecs = [{"seed_in": 1}] + [{"seed_in": 0}] * 30
        assert dev.run(vecs) == mapped.simulate(vecs)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_designs(self, seed):
        net = random_logic("r", n_pi=6, n_po=4, n_nodes=30, seed=seed,
                           registered=bool(seed % 2))
        mapped, dev = program_device(net, seed=1 + seed % 3)
        vecs = _rand_vecs(net.inputs, 12, seed)
        assert dev.run(vecs) == mapped.simulate(vecs)

    def test_placement_seed_invariance(self):
        # Different placements, same bitstream-level behaviour.
        net = counter(5)
        vecs = [{"en": 1}] * 12
        _, dev_a = program_device(net, seed=1)
        _, dev_b = program_device(net, seed=42)
        assert dev_a.run(vecs) == dev_b.run(vecs)


class TestDeviceInternals:
    def test_reset_clears_state(self):
        mapped, dev = program_device(counter(4))
        dev.run([{"en": 1}] * 7)
        dev.reset()
        out = dev.run([{"en": 1}] * 3)
        vals = [sum(o[f"out{i}"] << i for i in range(4)) for o in out]
        assert vals == [0, 1, 2]

    def test_inconsistent_configuration_raises(self):
        """A pad-map output the configuration does not drive, or an
        output pad with no driver, is a DisasmError, never 0s."""
        _, _, pl, cfg = _configure(counter(4), 6)
        pad_map = pad_map_from_placement(pl)
        with pytest.raises(DisasmError, match="name no pad"):
            DeviceSimulator(cfg, {**pad_map, "ghost": ("out", 0, 0, 0)})
        key = next(k for k in sorted(cfg.ios) if cfg.ios[k].mode == 2)
        cfg.ios[key].cb = [0] * len(cfg.ios[key].cb)
        with pytest.raises(DisasmError):
            DeviceSimulator(cfg, pad_map)

    def test_recovered_nets_single_driver(self):
        mapped, dev = program_device(counter(6))
        # Every CLB input pin with a CB bit set is a sink of exactly
        # one recovered net.
        dis = dev.disassembly
        for (x, y), clb in dis.cfg.clbs.items():
            for p, row in enumerate(clb.cb_in):
                if any(row):
                    pin = ("clb_in", x, y, p)
                    assert sum(pin in n.sinks for n in dis.nets) == 1

    def test_flood_oracle_nets_single_driver(self):
        _, _, pl, cfg = _configure(counter(6), 6)
        dev = FloodDeviceSimulator(cfg, pad_map_from_placement(pl))
        # driver_of construction already asserts single-driver; also
        # check every CLB input pin with a CB bit has a driver.
        for (x, y), clb in dev.cfg.clbs.items():
            for p, row in enumerate(clb.cb_in):
                if any(row):
                    assert ("clb_in", x, y, p) in dev.driver_of

    @pytest.mark.parametrize("net,seed", [
        (counter(6), 6),
        # A primary output of each random design maps to a constant-0
        # LUT, whose BLE frame is all zero.
        *[(random_logic("r", n_pi=6, n_po=4, n_nodes=30, seed=s,
                        registered=False), 1 + s % 3) for s in (14, 16)],
    ], ids=["counter6", "rand14", "rand16"])
    def test_active_ble_count_matches_packing(self, net, seed):
        _, cn, pl, cfg = _configure(net, seed)
        dev = DeviceSimulator(cfg, pad_map_from_placement(pl))
        assert len(dev.disassembly.bles) == cn.ble_count()
