"""Tests for the transient circuit simulator and cell library."""

import numpy as np
import pytest

from repro.circuit.cells import (inverter, inverter_chain, lut4, mux2_tg,
                                 nand2, nor2, transmission_gate,
                                 tristate_inverter_a,
                                 tristate_inverter_b, xor2)
from repro.circuit.metrics import (crossing_times, logic_level,
                                   propagation_delays, worst_case_delay)
from repro.circuit.network import Circuit
from repro.circuit.simulator import simulate
from repro.circuit.waveforms import clock, dc, pulse_train

VDD = 1.8


def settled(res, node):
    return logic_level(float(res.v(node)[-1]), VDD)


class TestRC:
    def test_rc_charging_time_constant(self):
        # A pure RC ladder charges like exp(-t/RC).
        ckt = Circuit()
        a = ckt.node("a")
        y = ckt.node("y")
        ckt.resistor(a, y, 10e3)
        ckt.capacitor(y, 100e-15)        # tau = 1 ns
        ckt.voltage_source(a, pulse_train([(0.1e-9, VDD)],
                                          t_rise=1e-12))
        res = simulate(ckt, 5e-9, dt=1e-12)
        t0 = 0.101e-9
        i = np.searchsorted(res.time, t0 + 1e-9)
        v_tau = res.v("y")[i]
        assert v_tau == pytest.approx(VDD * (1 - np.exp(-1)), rel=0.05)

    def test_resistor_divider_steady_state(self):
        ckt = Circuit()
        mid = ckt.node("mid")
        ckt.resistor(ckt.vdd, mid, 10e3)
        ckt.resistor(mid, ckt.gnd, 10e3)
        res = simulate(ckt, 2e-9, dt=2e-12)
        assert res.v("mid")[-1] == pytest.approx(VDD / 2, rel=0.02)

    def test_zero_resistance_rejected(self):
        ckt = Circuit()
        with pytest.raises(ValueError):
            ckt.resistor(ckt.vdd, ckt.gnd, 0.0)


class TestInverter:
    def test_static_levels(self):
        for vin, expect in ((0.0, 1), (VDD, 0)):
            ckt = Circuit()
            a, y = ckt.node("a"), ckt.node("y")
            inverter(ckt, a, y)
            ckt.voltage_source(a, dc(vin))
            res = simulate(ckt, 1e-9, dt=2e-12)
            assert settled(res, "y") == expect

    def test_energy_is_cv2_per_cycle(self):
        # One full charge/discharge cycle of load C draws ~C*Vdd^2.
        ckt = Circuit()
        a, y = ckt.node("a"), ckt.node("y")
        inverter(ckt, a, y)
        c_load = 20e-15
        ckt.capacitor(y, c_load)
        ckt.voltage_source(a, clock(4e-9, 1, VDD))
        res = simulate(ckt, 4e-9, dt=1e-12)
        expected = c_load * VDD * VDD
        assert res.energy == pytest.approx(expected, rel=0.25)

    def test_bigger_driver_is_faster(self):
        delays = []
        for wn in (1.0, 4.0):
            ckt = Circuit()
            a, y = ckt.node("a"), ckt.node("y")
            inverter(ckt, a, y, wn=wn, wp=2 * wn)
            ckt.capacitor(y, 20e-15)
            ckt.voltage_source(a, clock(6e-9, 1, VDD))
            res = simulate(ckt, 6e-9, dt=1e-12)
            delays.append(worst_case_delay(res.time, res.v("a"),
                                           res.v("y"), VDD,
                                           max_delay=3e-9))
        assert delays[1] < delays[0] / 2

    def test_chain_output_polarity(self):
        ckt = Circuit()
        a = ckt.node("a")
        out = inverter_chain(ckt, a, 3, name="ch")
        ckt.voltage_source(a, dc(0.0))
        res = simulate(ckt, 2e-9, dt=2e-12)
        assert logic_level(float(res.voltages[-1, out]), VDD) == 1


class TestGates:
    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (0, 1, 1),
                                            (1, 0, 1), (1, 1, 0)])
    def test_nand_truth_table(self, a, b, expect):
        ckt = Circuit()
        na, nb, y = ckt.node("a"), ckt.node("b"), ckt.node("y")
        nand2(ckt, na, nb, y)
        ckt.voltage_source(na, dc(a * VDD))
        ckt.voltage_source(nb, dc(b * VDD))
        res = simulate(ckt, 1.5e-9, dt=2e-12)
        assert settled(res, "y") == expect

    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (0, 1, 0),
                                            (1, 0, 0), (1, 1, 0)])
    def test_nor_truth_table(self, a, b, expect):
        ckt = Circuit()
        na, nb, y = ckt.node("a"), ckt.node("b"), ckt.node("y")
        nor2(ckt, na, nb, y)
        ckt.voltage_source(na, dc(a * VDD))
        ckt.voltage_source(nb, dc(b * VDD))
        res = simulate(ckt, 1.5e-9, dt=2e-12)
        assert settled(res, "y") == expect

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_xor_truth_table(self, a, b):
        ckt = Circuit()
        na, nb, y = ckt.node("a"), ckt.node("b"), ckt.node("y")
        xor2(ckt, na, nb, y)
        ckt.voltage_source(na, dc(a * VDD))
        ckt.voltage_source(nb, dc(b * VDD))
        res = simulate(ckt, 1.5e-9, dt=2e-12)
        assert settled(res, "y") == (a ^ b)

    def test_transmission_gate_passes_when_on(self):
        ckt = Circuit()
        a, b = ckt.node("a"), ckt.node("b")
        en, enb = ckt.node("en"), ckt.node("enb")
        transmission_gate(ckt, a, b, en=en, en_b=enb)
        ckt.capacitor(b, 5e-15)
        ckt.voltage_source(a, dc(VDD))
        ckt.voltage_source(en, dc(VDD))
        ckt.voltage_source(enb, dc(0.0))
        res = simulate(ckt, 2e-9, dt=2e-12)
        assert settled(res, "b") == 1

    def test_transmission_gate_isolates_when_off(self):
        ckt = Circuit()
        a, b = ckt.node("a"), ckt.node("b")
        en, enb = ckt.node("en"), ckt.node("enb")
        transmission_gate(ckt, a, b, en=en, en_b=enb)
        ckt.capacitor(b, 5e-15)
        ckt.voltage_source(a, dc(VDD))
        ckt.voltage_source(en, dc(0.0))
        ckt.voltage_source(enb, dc(VDD))
        res = simulate(ckt, 2e-9, dt=2e-12)
        assert res.v("b")[-1] < 0.3      # only gmin leakage trickle

    @pytest.mark.parametrize("builder", [tristate_inverter_a,
                                         tristate_inverter_b])
    def test_tristate_drives_when_enabled(self, builder):
        ckt = Circuit()
        a, y = ckt.node("a"), ckt.node("y")
        builder(ckt, a, y, en=ckt.vdd, en_b=ckt.gnd)
        ckt.capacitor(y, 3e-15)
        ckt.voltage_source(a, dc(0.0))
        res = simulate(ckt, 2e-9, dt=2e-12)
        assert settled(res, "y") == 1

    @pytest.mark.parametrize("sel,expect", [(0, 0), (1, 1)])
    def test_mux2(self, sel, expect):
        ckt = Circuit()
        d0, d1, y = ckt.node("d0"), ckt.node("d1"), ckt.node("y")
        s, sb = ckt.node("s"), ckt.node("sb")
        mux2_tg(ckt, d0, d1, y, sel=s, sel_b=sb)
        ckt.capacitor(y, 2e-15)
        ckt.voltage_source(d0, dc(0.0))
        ckt.voltage_source(d1, dc(VDD))
        ckt.voltage_source(s, dc(sel * VDD))
        ckt.voltage_source(sb, dc((1 - sel) * VDD))
        res = simulate(ckt, 2e-9, dt=2e-12)
        assert settled(res, "y") == expect


class TestLut4:
    @pytest.mark.parametrize("pattern", [0, 5, 11, 15])
    def test_lut_implements_configured_function(self, pattern):
        bits = [(pattern * 2654435761 >> m) & 1 for m in range(16)]
        idx = pattern  # evaluate at input vector = pattern bits
        sel_vals = [(idx >> i) & 1 for i in range(4)]
        ckt = Circuit()
        ins = [ckt.node(f"i{k}") for k in range(4)]
        insb = [ckt.node(f"ib{k}") for k in range(4)]
        for k in range(4):
            inverter(ckt, ins[k], insb[k], name=f"inv{k}")
            ckt.voltage_source(ins[k], dc(sel_vals[k] * VDD))
        y = ckt.node("y")
        lut4(ckt, ins, insb, bits, y)
        out = ckt.node("out")
        inverter(ckt, y, out, name="ob")
        res = simulate(ckt, 2.5e-9, dt=2e-12)
        assert settled(res, "out") == 1 - bits[idx]


class TestMetrics:
    def test_crossing_times_directions(self):
        t = np.linspace(0, 1, 101)
        v = np.where((t > 0.25) & (t < 0.75), 1.0, 0.0)
        rises = crossing_times(t, v, 0.5, "rise")
        falls = crossing_times(t, v, 0.5, "fall")
        assert len(rises) == 1 and len(falls) == 1
        assert rises[0] < falls[0]

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            crossing_times(np.array([0.0]), np.array([0.0]), 0.5, "up")

    def test_no_response_raises(self):
        t = np.linspace(0, 1e-9, 100)
        vin = np.where(t > 0.5e-9, VDD, 0.0)
        vout = np.zeros_like(t)
        with pytest.raises(ValueError):
            worst_case_delay(t, vin, vout, VDD)

    def test_logic_level_indeterminate(self):
        with pytest.raises(ValueError):
            logic_level(0.9, VDD)

    def test_propagation_delay_pairs_events(self):
        t = np.linspace(0, 4e-9, 4001)
        vin = np.where((t > 1e-9), VDD, 0.0)
        vout = np.where((t > 1.2e-9), VDD, 0.0)
        d = propagation_delays(t, vin, vout, VDD)
        assert len(d) == 1
        assert d[0] == pytest.approx(0.2e-9, rel=0.05)


class TestEnergyAccounting:
    def test_static_cmos_draws_no_steady_current(self):
        ckt = Circuit()
        a, y = ckt.node("a"), ckt.node("y")
        inverter(ckt, a, y)
        ckt.voltage_source(a, dc(0.0))
        res = simulate(ckt, 3e-9, dt=2e-12)
        # After settling, supply current is leakage only (<< 1 uA).
        assert abs(res.supply_current[-1]) < 1e-6

    def test_energy_between_window(self):
        ckt = Circuit()
        a, y = ckt.node("a"), ckt.node("y")
        inverter(ckt, a, y)
        ckt.capacitor(y, 10e-15)
        ckt.voltage_source(a, clock(2e-9, 2, VDD))
        res = simulate(ckt, 4e-9, dt=1e-12)
        both = res.energy_between(0, 4e-9)
        first = res.energy_between(0, 2e-9)
        second = res.energy_between(2e-9, 4e-9)
        assert both == pytest.approx(first + second, rel=0.01)
        assert first == pytest.approx(second, rel=0.15)
