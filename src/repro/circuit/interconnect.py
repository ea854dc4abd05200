"""Routing-switch sizing experiments (Fig. 7 circuitry; Figs. 8-10).

The paper sweeps the width of island-style routing pass transistors
(1x..64x minimum) for wires of logical length 1/2/4/8 under three metal
configurations, and picks the width minimising the energy-delay-area
product.  This module builds the Fig. 7 experiment circuit:

    CLB output buffer -> output-connection pass transistor
        -> [ wire segment (distributed RC over L CLB spans)
             -> switch-box pass transistor ] x (n_segments - 1)
        -> last wire segment -> CLB input buffer -> load

with the parasitics the paper describes:

* per CLB span: one *off* output-connection pass transistor junction
  (sized like the routing switches, so it scales with the swept width)
  and one input-connection buffer gate (Fc = 1 worst case);
* per switch-box: the two other *off* switches of the disjoint
  Fs = 3 topology (junction capacitance scaling with width);
* wire laid out in metal 3 (lowest capacitance of the stack), with
  width/spacing multipliers for the Fig. 8/9/10 configurations.

Off-path devices never conduct, so they are modelled as their junction
capacitance (keeps the transient fast without changing the physics).

The area term uses the Betz minimum-width-transistor-area convention
over the *full per-tile switch population* (every switch-box and
connection-box transistor in the fabric is sized at the swept width --
the design decision under study), which is why very wide switches are
"unacceptable": as the paper notes, total area is dominated by the
switch boxes, while the metal-3 wires ride above the active area.

The same harness with ``switch_type="tbuf"`` runs the tri-state buffer
study of section 3.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .batchsim import simulate_batch
from .cells import buffer2, inverter, pass_nmos, tristate_inverter_a
from .metrics import worst_case_delay
from .network import Circuit
from .technology import Technology, STM018
from .waveforms import pulse_train

#: Physical pitch of one CLB tile (m).  A 5-BLE / 4-LUT cluster with
#: its share of routing in 0.18 um is on the order of 120 um square.
CLB_PITCH = 120e-6

#: RC sections used to discretise each CLB span of wire.
SECTIONS_PER_SPAN = 1

#: Nominal channel width used for the per-tile area accounting (the
#: platform's default routing channel).
AREA_CHANNEL_WIDTH = 12

#: Switch-box switches per track (disjoint topology: six pair switches)
#: and connection switches per tile (I input + N output pins).
SB_SWITCHES_PER_TRACK = 6
CB_SWITCHES_PER_TILE = 17

#: Fixed logic area per tile in minimum-width transistor units: the
#: 5-BLE / 4-LUT cluster (LUT SRAM + mux trees + DETFFs + crossbar,
#: ~2000 transistors) that the routing fabric surrounds.
CLB_FIXED_AREA_UNITS = 1400.0


@dataclass(frozen=True)
class RoutingMeasurement:
    """Outcome of one sizing point."""

    width_mult: float
    wire_length: int
    energy: float          # J per full output cycle
    delay: float           # worst-case s
    area: float            # minimum-width transistor units
    @property
    def eda(self) -> float:
        """Energy-delay-area product (J * s * min-width-transistor)."""
        return self.energy * self.delay * self.area


def build_routing_experiment(
    *,
    width_mult: float,
    wire_length: int,
    metal_width: float = 1.0,
    metal_spacing: float = 1.0,
    n_segments: int = 3,
    switch_type: str = "pass",
    tech: Technology = STM018,
) -> tuple[Circuit, str, str, float]:
    """Build the Fig. 7 circuit.

    Returns ``(circuit, input_node, output_node, area_units)``.
    ``switch_type`` is ``"pass"`` (NMOS pass transistor, Figs. 8-10) or
    ``"tbuf"`` (two-stage tri-state buffer, section 3.3.2; for buffers
    the swept width applies to the second stage, capped at 16x in the
    paper because energy becomes prohibitive beyond that).
    """
    if wire_length < 1:
        raise ValueError("wire_length must be >= 1")
    if n_segments < 1:
        raise ValueError("need at least one wire segment")
    if switch_type not in ("pass", "tbuf"):
        raise ValueError(f"unknown switch type {switch_type!r}")

    ckt = Circuit(tech=tech, title=f"routing-w{width_mult}-L{wire_length}")
    m3 = tech.metal("metal3")
    r_per_m = m3.wire_res_per_m(metal_width)
    c_per_m = m3.wire_cap_per_m(metal_width, metal_spacing)
    span_r = r_per_m * CLB_PITCH
    span_c = c_per_m * CLB_PITCH

    w_sw = width_mult * tech.w_min
    cj_sw = tech.junction_cap(w_sw)
    # Input-connection buffer load per span (first-stage gate of a
    # minimum buffer).
    c_in_buf = 2.0 * tech.gate_cap(tech.w_min)

    a = ckt.node("a")
    # The driving CLB output buffer.
    drv = ckt.node("drv")
    buffer2(ckt, a, drv, w1=2.5, w2=16.0, name="drvbuf")

    # Per-tile routing-fabric area: all switch-box and connection-box
    # transistors in every tile the route spans are sized at the swept
    # width (uniform fabric sizing -- the decision being explored).
    tiles = n_segments * wire_length
    per_tile_switches = (SB_SWITCHES_PER_TRACK * AREA_CHANNEL_WIDTH
                         + CB_SWITCHES_PER_TILE)
    if switch_type == "tbuf":
        # A buffer switch point costs two tri-state buffers (one per
        # direction): four W-sized + two minimum devices each.
        per_switch = (4 * tech.transistor_area_units(w_sw)
                      + 2 * tech.transistor_area_units(tech.w_min)) / 2
        area = tiles * (SB_SWITCHES_PER_TRACK * AREA_CHANNEL_WIDTH
                        * per_switch
                        + CB_SWITCHES_PER_TILE
                        * tech.transistor_area_units(w_sw))
    else:
        area = (tiles * per_tile_switches
                * tech.transistor_area_units(w_sw))
    area += tiles * CLB_FIXED_AREA_UNITS
    area += 4 * tech.transistor_area_units(tech.w_min)  # driver approx

    # Output-connection pass transistor onto the first track (always
    # sized like the routing switches).
    node = ckt.node("seg0_in")
    pass_nmos(ckt, drv, node, en=ckt.vdd, w=width_mult, name="outpass")

    seg_idx = 0
    for seg in range(n_segments):
        # Distributed RC of one wire segment spanning `wire_length` CLBs.
        for span in range(wire_length):
            for sec in range(SECTIONS_PER_SPAN):
                nxt = ckt.node(f"w{seg}_{span}_{sec}")
                ckt.capacitor(node, span_c / SECTIONS_PER_SPAN / 2)
                ckt.capacitor(nxt, span_c / SECTIONS_PER_SPAN / 2)
                ckt.resistor(node, nxt, span_r / SECTIONS_PER_SPAN)
                node = nxt
            # Per-span parasitics: off out-pass junction + input buffer.
            ckt.capacitor(node, cj_sw, name=f"offpass{seg}_{span}")
            ckt.capacitor(node, c_in_buf, name=f"inbuf{seg}_{span}")

        if seg == n_segments - 1:
            break

        # Switch box: the series switch under test plus the two other
        # off switches of the disjoint Fs=3 pattern.
        nxt = ckt.node(f"sb{seg}_out")
        if switch_type == "pass":
            pass_nmos(ckt, node, nxt, en=ckt.vdd, w=width_mult,
                      name=f"sw{seg}")
        else:
            # Two-stage tri-state buffer; two of them (one per
            # direction) occupy the switch point.
            mid = ckt.node(f"sb{seg}_mid")
            inverter(ckt, node, mid, wn=1.0, wp=1.0,
                     name=f"sw{seg}.st1")
            tristate_inverter_a(ckt, mid, nxt, en=ckt.vdd, en_b=ckt.gnd,
                                wn=width_mult, wp=width_mult,
                                name=f"sw{seg}.st2")
            # Inverting stage count is even end-to-end only if the
            # segment count is odd; polarity does not affect E/D here.
        ckt.capacitor(nxt, 2 * cj_sw, name=f"sboff{seg}")
        node = nxt
        seg_idx += 1

    # Receiving CLB input buffer (logic-threshold adjusted first stage,
    # restoring the pass-transistor degraded level).
    out = ckt.node("out")
    buffer2(ckt, node, out, w1=1.0, w2=4.0, name="rxbuf")
    ckt.capacitor(out, 5e-15, name="rxload")
    area += 4 * tech.transistor_area_units(tech.w_min)

    # Metal area: the route is laid out in metal 3 *above* the active
    # area, so (as the paper notes) it only consumes silicon when the
    # channel becomes pitch-limited: total area "is limited by the
    # area occupied by the Switch Box".  Charge only any excess of the
    # channel footprint over the tile pitch (zero for every
    # configuration explored here).
    pitch = m3.wire_pitch(metal_width, metal_spacing)
    channel_footprint = AREA_CHANNEL_WIDTH * pitch
    if channel_footprint > CLB_PITCH:
        excess = ((channel_footprint - CLB_PITCH) * CLB_PITCH
                  * n_segments * wire_length)
        area += excess / tech.min_transistor_area()

    return ckt, "a", "out", area


def measure_routing(
    *,
    width_mult: float,
    wire_length: int,
    metal_width: float = 1.0,
    metal_spacing: float = 1.0,
    n_segments: int = 3,
    switch_type: str = "pass",
    tech: Technology = STM018,
    dt: float = 2e-12,
) -> RoutingMeasurement:
    """Simulate one sizing point and return (E, D, A)."""
    (row,) = measure_routing_batch(
        [(width_mult, wire_length)], metal_width=metal_width,
        metal_spacing=metal_spacing, n_segments=n_segments,
        switch_type=switch_type, tech=tech, dt=dt)
    return row


def measure_routing_batch(
    points: list[tuple[float, int]],
    *,
    metal_width: float = 1.0,
    metal_spacing: float = 1.0,
    n_segments: int = 3,
    switch_type: str = "pass",
    tech: Technology = STM018,
    dt: float = 2e-12,
) -> list[RoutingMeasurement]:
    """Simulate many ``(width_mult, wire_length)`` sizing points at once.

    Each point's Fig. 7 circuit is driven through one full output
    cycle (a rise, then a fall, each given time to settle), and all of
    them run through the batched transient engine in a single
    tensor-shaped pass; rows come back in the order of ``points``.

    A point may also carry its own metal geometry as a 4-tuple
    ``(width_mult, wire_length, metal_width, metal_spacing)``, which
    overrides the keyword defaults for that row -- so a multi-figure
    study (Figs. 8-10 differ only in metal pitch) can run as one
    batch.
    """
    vdd = tech.vdd
    ckts = []
    t_ends = []
    meta = []
    for point in points:
        width_mult, wire_length = point[0], point[1]
        mw = point[2] if len(point) > 2 else metal_width
        msp = point[3] if len(point) > 3 else metal_spacing
        ckt, a, out, area = build_routing_experiment(
            width_mult=width_mult, wire_length=wire_length,
            metal_width=mw, metal_spacing=msp,
            n_segments=n_segments, switch_type=switch_type, tech=tech)
        t_half = max(4e-9, wire_length * n_segments * 0.5e-9)
        wave = pulse_train([(0.2e-9, vdd), (0.2e-9 + t_half, 0.0)],
                           v_init=0.0)
        ckt.voltage_source(ckt.node(a), wave)
        ckts.append(ckt)
        t_ends.append(0.2e-9 + 2 * t_half)
        meta.append((width_mult, wire_length, a, out, area, t_half))

    results = simulate_batch(ckts, t_ends, dt=dt)
    out_rows = []
    for res, (width_mult, wire_length, a, out, area, t_half) in zip(
            results, meta):
        energy = res.energy
        delay = worst_case_delay(res.time, res.v(a), res.v(out), vdd,
                                 max_delay=t_half)
        out_rows.append(RoutingMeasurement(
            width_mult=width_mult, wire_length=wire_length,
            energy=energy, delay=delay, area=area))
    return out_rows


def sweep_pass_transistor(
    widths: list[float],
    wire_lengths: list[int],
    *,
    metal_width: float = 1.0,
    metal_spacing: float = 1.0,
    switch_type: str = "pass",
    tech: Technology = STM018,
    dt: float = 2e-12,
) -> dict[int, list[RoutingMeasurement]]:
    """Full Fig. 8/9/10-style sweep: EDA vs width for each wire length.

    The whole grid runs as one batch; rows come back grouped by wire
    length with widths in the order given.
    """
    rows = iter(measure_routing_batch(
        [(w, length) for length in wire_lengths for w in widths],
        metal_width=metal_width, metal_spacing=metal_spacing,
        switch_type=switch_type, tech=tech, dt=dt))
    return {length: [next(rows) for _ in widths]
            for length in wire_lengths}


def optimum_width(measurements: list[RoutingMeasurement]) -> float:
    """Width multiplier with the minimum energy-delay-area product."""
    best = min(measurements, key=lambda m: m.eda)
    return best.width_mult
