"""Transistor-level cell library.

Every cell the paper's FPGA platform is built from, expressed as builder
functions over :class:`~repro.circuit.network.Circuit`: static CMOS
gates, transmission gates, the two tri-state inverter types of Fig. 3,
pass-transistor multiplexers, and the 16:1 mux-based 4-input LUT of
Fig. 2 (control signals = LUT inputs, mux data inputs = SRAM cells).

Sizing convention: ``wn``/``wp`` are multiples of the technology minimum
contactable width; the paper uses minimum-size devices throughout the
logic to minimise effective capacitance, so the defaults are 1x.
"""

from __future__ import annotations

from .network import Circuit


def _w(ckt: Circuit, mult: float) -> float:
    return mult * ckt.tech.w_min


def inverter(ckt: Circuit, a: int, y: int, *, wn: float = 1.0,
             wp: float = 2.0, name: str = "inv") -> None:
    """Static CMOS inverter a -> y."""
    ckt.nmos(y, a, ckt.gnd, _w(ckt, wn), name=f"{name}.mn")
    ckt.pmos(y, a, ckt.vdd, _w(ckt, wp), name=f"{name}.mp")


def inverter_chain(ckt: Circuit, a: int, n_stages: int, *,
                   wn: float = 1.0, wp: float = 2.0, taper: float = 1.0,
                   name: str = "chain") -> int:
    """A chain of inverters; returns the final output node."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    node = a
    for i in range(n_stages):
        out = ckt.node(f"{name}.s{i}")
        scale = taper ** i
        inverter(ckt, node, out, wn=wn * scale, wp=wp * scale,
                 name=f"{name}.i{i}")
        node = out
    return node


def nand2(ckt: Circuit, a: int, b: int, y: int, *, wn: float = 2.0,
          wp: float = 2.0, name: str = "nand") -> None:
    """Two-input static CMOS NAND (series NMOS sized up to match drive)."""
    mid = ckt.node(f"{name}.mid")
    ckt.nmos(y, a, mid, _w(ckt, wn), name=f"{name}.mna")
    ckt.nmos(mid, b, ckt.gnd, _w(ckt, wn), name=f"{name}.mnb")
    ckt.pmos(y, a, ckt.vdd, _w(ckt, wp), name=f"{name}.mpa")
    ckt.pmos(y, b, ckt.vdd, _w(ckt, wp), name=f"{name}.mpb")


def nor2(ckt: Circuit, a: int, b: int, y: int, *, wn: float = 1.0,
         wp: float = 4.0, name: str = "nor") -> None:
    """Two-input static CMOS NOR (series PMOS sized up)."""
    mid = ckt.node(f"{name}.mid")
    ckt.pmos(y, a, mid, _w(ckt, wp), name=f"{name}.mpa")
    ckt.pmos(mid, b, ckt.vdd, _w(ckt, wp), name=f"{name}.mpb")
    ckt.nmos(y, a, ckt.gnd, _w(ckt, wn), name=f"{name}.mna")
    ckt.nmos(y, b, ckt.gnd, _w(ckt, wn), name=f"{name}.mnb")


def xor2(ckt: Circuit, a: int, b: int, y: int, *, name: str = "xor") -> None:
    """Transmission-gate XOR: y = a ^ b (needs local inverters)."""
    abar = ckt.node(f"{name}.abar")
    bbar = ckt.node(f"{name}.bbar")
    inverter(ckt, a, abar, name=f"{name}.ia")
    inverter(ckt, b, bbar, name=f"{name}.ib")
    # y = b ? abar : a, implemented with two transmission gates.
    transmission_gate(ckt, a, y, en=bbar, en_b=b, name=f"{name}.t0")
    transmission_gate(ckt, abar, y, en=b, en_b=bbar, name=f"{name}.t1")


def transmission_gate(ckt: Circuit, a: int, b: int, *, en: int, en_b: int,
                      wn: float = 1.0, wp: float = 1.0,
                      name: str = "tg") -> None:
    """CMOS transmission gate between ``a`` and ``b``; on when en=1."""
    ckt.nmos(a, en, b, _w(ckt, wn), name=f"{name}.mn")
    ckt.pmos(a, en_b, b, _w(ckt, wp), name=f"{name}.mp")


def pass_nmos(ckt: Circuit, a: int, b: int, *, en: int, w: float = 1.0,
              name: str = "pt") -> None:
    """Single NMOS pass transistor (the routing-switch style of Fig. 7)."""
    ckt.nmos(a, en, b, _w(ckt, w), name=f"{name}.mn")


def tristate_inverter_a(ckt: Circuit, a: int, y: int, *, en: int, en_b: int,
                        wn: float = 1.0, wp: float = 2.0,
                        name: str = "tsa") -> None:
    """Fig. 3 type (a): clocked inverter, 4 stacked transistors.

    P(in) - P(en_b) - out - N(en) - N(in).  The enable devices sit next
    to the output.  Input loads one N + one P gate; enable loads one of
    each.
    """
    pm = ckt.node(f"{name}.pm")
    nm = ckt.node(f"{name}.nm")
    ckt.pmos(pm, a, ckt.vdd, _w(ckt, wp), name=f"{name}.mpi")
    ckt.pmos(y, en_b, pm, _w(ckt, wp), name=f"{name}.mpe")
    ckt.nmos(y, en, nm, _w(ckt, wn), name=f"{name}.mne")
    ckt.nmos(nm, a, ckt.gnd, _w(ckt, wn), name=f"{name}.mni")


def tristate_inverter_b(ckt: Circuit, a: int, y: int, *, en: int, en_b: int,
                        wn: float = 1.0, wp: float = 2.0,
                        name: str = "tsb") -> None:
    """Fig. 3 type (b): plain inverter followed by a transmission gate.

    Smaller clock load per branch polarity but an extra internal node;
    the inverter output keeps switching even while tri-stated, which
    costs energy when the input is active during the opaque phase.
    """
    mid = ckt.node(f"{name}.mid")
    inverter(ckt, a, mid, wn=wn, wp=wp, name=f"{name}.inv")
    transmission_gate(ckt, mid, y, en=en, en_b=en_b, name=f"{name}.tg")


def mux2_tg(ckt: Circuit, d0: int, d1: int, y: int, *, sel: int,
            sel_b: int, wn_ovr: float = 1.0, name: str = "mux") -> None:
    """2:1 transmission-gate mux: y = sel ? d1 : d0."""
    transmission_gate(ckt, d0, y, en=sel_b, en_b=sel, wn=wn_ovr,
                      wp=wn_ovr, name=f"{name}.t0")
    transmission_gate(ckt, d1, y, en=sel, en_b=sel_b, wn=wn_ovr,
                      wp=wn_ovr, name=f"{name}.t1")


def mux2_nmos(ckt: Circuit, d0: int, d1: int, y: int, *, sel: int,
              sel_b: int, w: float = 1.0, name: str = "mux") -> None:
    """2:1 NMOS-pass mux: y = sel ? d1 : d0.

    Half the clocked transistors of a TG mux (the low-power choice of
    the Llopis flip-flops) at the cost of a degraded high level
    (Vdd - Vtn) on ``y``, which slows whatever gate ``y`` drives.
    """
    ckt.nmos(d0, sel_b, y, w * ckt.tech.w_min, name=f"{name}.n0")
    ckt.nmos(d1, sel, y, w * ckt.tech.w_min, name=f"{name}.n1")


def keeper(ckt: Circuit, node: int, node_b: int, *, w: float = 0.6,
           name: str = "keep") -> None:
    """Weak cross-coupled inverter pair holding ``node``/``node_b``."""
    inverter(ckt, node, node_b, wn=w, wp=1.6 * w, name=f"{name}.fwd")
    inverter(ckt, node_b, node, wn=0.5 * w, wp=0.8 * w, name=f"{name}.bwd")


def sram_cell_outputs(ckt: Circuit, bits: list[int], *,
                      name: str = "sram") -> list[int]:
    """Configuration memory modelled as hard rails.

    A programmed SRAM cell holds a static rail voltage; for transient
    experiments its internal dynamics are irrelevant, so each bit is a
    node pinned to vdd or gnd.  Returns the output node of each cell.
    """
    outs = []
    for i, b in enumerate(bits):
        outs.append(ckt.vdd if b else ckt.gnd)
    return outs


def lut4(ckt: Circuit, sel: list[int], sel_b: list[int], bits: list[int],
         y: int, *, name: str = "lut") -> None:
    """Fig. 2: 4-input LUT as a 16:1 transmission-gate mux tree.

    ``sel``/``sel_b`` are the 4 LUT inputs and complements (the mux
    *control* lines); ``bits`` are the 16 configuration values
    (S0..S15), stored in SRAM cells (modelled as rails).  Minimum-size
    transistors, per the paper.
    """
    if len(sel) != 4 or len(sel_b) != 4 or len(bits) != 16:
        raise ValueError("lut4 needs 4 selects and 16 bits")
    level = sram_cell_outputs(ckt, bits, name=f"{name}.cfg")
    for stage in range(4):
        s = sel[stage]
        sb = sel_b[stage]
        nxt = []
        for j in range(0, len(level), 2):
            out = (y if len(level) == 2
                   else ckt.node(f"{name}.l{stage}n{j // 2}"))
            mux2_tg(ckt, level[j], level[j + 1], out, sel=s, sel_b=sb,
                    name=f"{name}.m{stage}_{j // 2}")
            nxt.append(out)
        level = nxt


def buffer2(ckt: Circuit, a: int, y: int, *, w1: float = 1.0,
            w2: float = 4.0, name: str = "buf") -> None:
    """Two-stage (non-inverting) buffer with stage-2 upsizing."""
    mid = ckt.node(f"{name}.mid")
    inverter(ckt, a, mid, wn=w1, wp=2.0 * w1, name=f"{name}.i0")
    inverter(ckt, mid, y, wn=w2, wp=2.0 * w2, name=f"{name}.i1")
