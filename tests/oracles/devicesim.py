"""Switch-box flood decoder: the product decoder's independent reference.

The product boots :class:`~repro.bitgen.devicesim.DeviceSimulator` from
the strict chipdb decoder (:func:`~repro.bitgen.disasm.disassemble`).
:class:`FloodDeviceSimulator` decodes the same
:class:`~repro.bitgen.bitstream.BitstreamConfig` with its own code, as
the silicon would:

1. **connectivity recovery** -- connection-box and switch-box bits are
   flooded over the fabric geometry to reconstruct every routed net
   (driver pin -> sink pins, in ``nets`` and its reverse ``driver_of``);
2. **logic recovery** -- each BLE's LUT bits, crossbar selects and
   use-FF bit define its function (``bles``);
3. **cycle simulation** -- a per-BLE interpreter, flip-flop state
   updated once per clock event.

It is lenient where the product is strict: a missing driver or an
unconfigured BLE reads 0 rather than raising.  The differential fuzz
runs it beside the product so that a decoding bug must be made twice,
in two implementations, to escape.  It shares only the bitstream
container and the fabric geometry with the product.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.fabric import FabricGrid, Site
from repro.bitgen.bitstream import BitstreamConfig, XBAR_UNUSED

__all__ = ["FloodDeviceSimulator"]

_SIDE_OF_PAIR = [("L", "R"), ("L", "D"), ("L", "U"),
                 ("R", "D"), ("R", "U"), ("D", "U")]


@dataclass
class _Ble:
    x: int
    y: int
    j: int
    lut_bits: list[int]
    use_ff: bool
    sels: list[int]


class FloodDeviceSimulator:
    """Interpret a bitstream configuration as a running FPGA."""

    def __init__(self, cfg: BitstreamConfig,
                 pad_map: dict[str, tuple]):
        self.cfg = cfg
        self.arch = cfg.arch
        self.grid = FabricGrid(cfg.arch, cfg.size)
        self.pad_map = dict(pad_map)
        self._recover_connectivity()
        self._recover_logic()
        self.reset()

    # ------------------------------------------------------------------
    # Connectivity recovery
    # ------------------------------------------------------------------
    def _track(self, kind: str, x: int, y: int, t: int):
        return ("trk", kind, x, y, t)

    def _adj_tracks(self, kind: str, x: int, y: int, t: int):
        """Neighbour tracks enabled by switch-box bits."""
        size = self.cfg.size
        # Corners this wire end touches.
        if kind == "chanx":
            corners = [(x - 1, y), (x, y)]
        else:
            corners = [(x, y - 1), (x, y)]
        out = []
        for cx, cy in corners:
            if not (0 <= cx <= size and 0 <= cy <= size):
                continue
            sb = self.cfg.sbs.get((cx, cy))
            if sb is None:
                continue
            # Side of *this* wire at that corner.
            if kind == "chanx":
                my_side = "L" if (x, y) == (cx, cy) else "R"
            else:
                my_side = "D" if (x, y) == (cx, cy) else "U"
            sides = {
                "L": ("chanx", cx, cy),
                "R": ("chanx", cx + 1, cy),
                "D": ("chany", cx, cy),
                "U": ("chany", cx, cy + 1),
            }
            for p_idx, (a, b) in enumerate(_SIDE_OF_PAIR):
                if not sb.pair_bits[t][p_idx]:
                    continue
                other = None
                if a == my_side:
                    other = b
                elif b == my_side:
                    other = a
                if other is None:
                    continue
                okind, ox, oy = sides[other]
                if okind == "chanx" and not (1 <= ox <= size
                                             and 0 <= oy <= size):
                    continue
                if okind == "chany" and not (0 <= ox <= size
                                             and 1 <= oy <= size):
                    continue
                out.append(self._track(okind, ox, oy, t))
        return out

    def _recover_connectivity(self) -> None:
        """driver pin -> sink pins, by flooding enabled switches."""
        size = self.cfg.size
        w = self.arch.channel_width
        n_in = self.arch.inputs_per_clb

        # Sinks per track: (track) -> list of sink pin descriptors.
        track_sinks: dict[tuple, list[tuple]] = {}
        for (x, y), clb in self.cfg.clbs.items():
            chans = self.grid.clb_channels(x, y)
            for p, row in enumerate(clb.cb_in):
                kind, cx, cy = chans[p % 4]
                for t, bit in enumerate(row):
                    if bit:
                        track_sinks.setdefault(
                            self._track(kind, cx, cy, t), []).append(
                            ("clb_in", x, y, p))
        for (x, y, sub), io in self.cfg.ios.items():
            if io.mode != 2:
                continue
            kind, cx, cy = self.grid.io_channel(Site("io", x, y, sub))
            for t, bit in enumerate(io.cb):
                if bit:
                    track_sinks.setdefault(
                        self._track(kind, cx, cy, t), []).append(
                        ("pad_out", x, y, sub))

        def flood(start_tracks: list[tuple]) -> list[tuple]:
            seen = set(start_tracks)
            stack = list(start_tracks)
            sinks: list[tuple] = []
            while stack:
                trk = stack.pop()
                sinks.extend(track_sinks.get(trk, ()))
                _, kind, x, y, t = trk
                for nxt in self._adj_tracks(kind, x, y, t):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return sinks

        #: driver descriptor -> list of sink descriptors
        self.nets: dict[tuple, list[tuple]] = {}
        for (x, y), clb in self.cfg.clbs.items():
            chans = self.grid.clb_channels(x, y)
            for p, row in enumerate(clb.cb_out):
                start = []
                kind, cx, cy = chans[p % 4]
                for t, bit in enumerate(row):
                    if bit:
                        start.append(self._track(kind, cx, cy, t))
                if start:
                    self.nets[("clb_out", x, y, p)] = flood(start)
        for (x, y, sub), io in self.cfg.ios.items():
            if io.mode != 1:
                continue
            kind, cx, cy = self.grid.io_channel(Site("io", x, y, sub))
            start = [self._track(kind, cx, cy, t)
                     for t, bit in enumerate(io.cb) if bit]
            if start:
                self.nets[("pad_in", x, y, sub)] = flood(start)

        # Reverse index: sink pin -> driver.
        self.driver_of: dict[tuple, tuple] = {}
        for drv, sinks in self.nets.items():
            for s in sinks:
                key = s
                if key in self.driver_of:
                    raise ValueError(f"pin {key} driven twice")
                self.driver_of[key] = drv

    # ------------------------------------------------------------------
    # Logic recovery
    # ------------------------------------------------------------------
    def _recover_logic(self) -> None:
        self.bles: list[_Ble] = []
        for (x, y), clb in sorted(self.cfg.clbs.items()):
            for j in range(self.arch.n):
                sels = clb.xbar_sel[j]
                active = (any(clb.lut_bits[j]) or clb.use_ff[j]
                          or any(s != XBAR_UNUSED for s in sels))
                if not active:
                    continue
                self.bles.append(_Ble(x, y, j, list(clb.lut_bits[j]),
                                      bool(clb.use_ff[j]), list(sels)))
        self._ble_by_pos = {(b.x, b.y, b.j): b for b in self.bles}

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all flip-flop state (the CLB asynchronous Clear)."""
        self.state = {(b.x, b.y, b.j): 0 for b in self.bles
                      if b.use_ff}

    def _ble_input_value(self, ble: _Ble, pin: int, comb, pi_vals):
        sel = ble.sels[pin]
        if sel == XBAR_UNUSED:
            return 0
        if sel >= self.arch.inputs_per_clb:
            j = sel - self.arch.inputs_per_clb
            return self._signal(("clb", ble.x, ble.y, j), comb, pi_vals)
        drv = self.driver_of.get(("clb_in", ble.x, ble.y, sel))
        if drv is None:
            return 0
        return self._driver_value(drv, comb, pi_vals)

    def _driver_value(self, drv: tuple, comb, pi_vals):
        if drv[0] == "pad_in":
            name = self._pad_name(drv[1], drv[2], drv[3], "in")
            return pi_vals.get(name, 0)
        _, x, y, p = drv
        j = self.cfg.clbs[(x, y)].out_src[p]
        if j == XBAR_UNUSED:
            return 0
        return self._signal(("clb", x, y, j), comb, pi_vals)

    def _signal(self, key: tuple, comb, pi_vals):
        _, x, y, j = key
        ble = self._ble_by_pos.get((x, y, j))
        if ble is None:
            return 0
        if ble.use_ff:
            return self.state[(x, y, j)]
        return self._eval_ble(ble, comb, pi_vals)

    def _eval_ble(self, ble: _Ble, comb, pi_vals) -> int:
        key = (ble.x, ble.y, ble.j)
        if key in comb:
            val = comb[key]
            if val is None:
                raise ValueError("combinational loop in device netlist")
            return val
        comb[key] = None    # cycle marker
        m = 0
        for pin in range(self.arch.k):
            if self._ble_input_value(ble, pin, comb, pi_vals):
                m |= 1 << pin
        val = ble.lut_bits[m]
        comb[key] = val
        return val

    def step(self, pi_vals: dict[str, int]) -> dict[str, int]:
        """One clock cycle: sample outputs, then update all FFs."""
        comb: dict[tuple, int | None] = {}
        # Evaluate primary outputs.
        outputs: dict[str, int] = {}
        for name, desc in self.pad_map.items():
            if desc[0] != "out":
                continue
            drv = self.driver_of.get(("pad_out", desc[1], desc[2],
                                      desc[3]))
            outputs[name] = (0 if drv is None
                             else self._driver_value(drv, comb, pi_vals))
        # FF updates: D = the LUT value of the same BLE.
        new_state = {}
        for ble in self.bles:
            if not ble.use_ff:
                continue
            d = self._eval_ble(ble, comb, pi_vals)
            new_state[(ble.x, ble.y, ble.j)] = d
        self.state.update(new_state)
        return outputs

    def run(self, vectors: list[dict[str, int]]) -> list[dict[str, int]]:
        """Cycle-accurate run over PI vectors (like LogicNetwork)."""
        return [self.step(v) for v in vectors]

    def _pad_name(self, x, y, sub, direction) -> str:
        for name, desc in self.pad_map.items():
            if desc == (direction, x, y, sub):
                return name
        return f"pad{x}_{y}_{sub}"
