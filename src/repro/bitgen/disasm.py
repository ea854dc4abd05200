"""Bitstream disassembler: frames + chipdb -> placed-and-routed netlist.

The inverse of DAGGER, in the spirit of prjoxide's core capability:
given nothing but a DAGR bitstream (or its unpacked
:class:`~repro.bitgen.bitstream.BitstreamConfig`) and the chip
database, recover

* every active BLE -- LUT truth table, use-FF bit, crossbar selects;
* every routed net -- driver pin, the track segments it occupies
  (flooded through the enabled switch-box pairs), and its sink pins;
* every IO pad mode;
* a simulatable :class:`~repro.netlist.logic.LogicNetwork` equivalent
  to the configured device.

This is the package's one bitstream decoder:
:class:`~repro.bitgen.devicesim.DeviceSimulator` boots a running
device from the recovered network.  In the differential suite
``source netlist -> bitstream -> disassemble -> simulate`` must agree
cycle-for-cycle with a logic-level simulation of the source, and with
the switch-box flood decoder kept as an independent reference
implementation in ``tests/oracles/devicesim.py``.

Malformed or inconsistent configurations -- selects out of range,
tracks claimed by two drivers, pads in impossible modes, clock enables
contradicting FF usage -- raise :class:`DisasmError` (a
:class:`~repro.bitgen.bitstream.BitstreamError`) naming the offending
tile, never a silently wrong netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.fabric import FabricGrid, Site
from ..arch.params import ArchParams
from ..netlist.logic import LogicNetwork
from .bitstream import BitstreamConfig, BitstreamError, unpack_bitstream
from .chipdb import (MODE_INPUT, MODE_OUTPUT, MODE_UNUSED, PAIR_ORDER,
                     SEL_UNUSED, ChipDb, build_chipdb)

__all__ = ["DisasmError", "Disassembly", "RecoveredBle", "RecoveredNet",
           "disassemble"]


class DisasmError(BitstreamError):
    """Configuration bits are internally inconsistent."""


@dataclass(frozen=True)
class RecoveredBle:
    """One active BLE lifted out of a CLB frame."""

    x: int
    y: int
    j: int
    lut_bits: tuple[int, ...]
    use_ff: bool
    sels: tuple[int, ...]

    @property
    def signal(self) -> str:
        """The BLE output net (FF Q when registered, LUT otherwise)."""
        return f"ble_{self.x}_{self.y}_{self.j}"

    @property
    def lut_signal(self) -> str:
        """The LUT output net (= FF D input when registered)."""
        return f"{self.signal}_d" if self.use_ff else self.signal


@dataclass(frozen=True)
class RecoveredNet:
    """One routed net: driver pin, occupied tracks, sink pins."""

    driver: tuple               # ("clb_out", x, y, p) | ("pad_in", x, y, s)
    signal: str                 # net name in the recovered network
    sinks: tuple[tuple, ...]    # ("clb_in", x, y, p) | ("pad_out", x, y, s)
    tracks: tuple[tuple, ...]   # ("chanx" | "chany", x, y, t)


@dataclass
class Disassembly:
    """Everything recovered from one bitstream."""

    db: ChipDb
    cfg: BitstreamConfig
    bles: list[RecoveredBle] = field(default_factory=list)
    nets: list[RecoveredNet] = field(default_factory=list)
    inputs: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    outputs: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    network: LogicNetwork = field(default_factory=LogicNetwork)

    def stats(self) -> dict[str, int]:
        return {
            "bles": len(self.bles),
            "ffs": sum(1 for b in self.bles if b.use_ff),
            "nets": len(self.nets),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "track_segments": sum(len(n.tracks) for n in self.nets),
        }


def disassemble(data: bytes | BitstreamConfig,
                arch: ArchParams | None = None,
                pad_map: dict[str, tuple] | None = None,
                db: ChipDb | None = None) -> Disassembly:
    """Recover the placed-and-routed netlist from a bitstream.

    ``pad_map`` (net name -> ``(dir, x, y, sub)``, as produced by
    :func:`repro.bitgen.devicesim.pad_map_from_placement`) names the
    primary IO; without it pads get synthetic ``pad{x}_{y}_{sub}``
    names, which is enough for simulation but not for comparison
    against a named source netlist.
    """
    if isinstance(data, BitstreamConfig):
        cfg = data
        if db is None:
            db = build_chipdb(cfg.arch, cfg.size)
    else:
        cfg = unpack_bitstream(data, arch, db)
        if db is None:
            db = build_chipdb(cfg.arch, cfg.size)
    return _Disassembler(db, cfg, pad_map or {}).run()


class _Disassembler:
    def __init__(self, db: ChipDb, cfg: BitstreamConfig,
                 pad_map: dict[str, tuple]):
        self.db = db
        self.cfg = cfg
        self.grid = FabricGrid(cfg.arch, db.size)
        self.pad_name = {(d[1], d[2], d[3]): (name, d[0])
                         for name, d in pad_map.items()}

    # -- entry ---------------------------------------------------------
    def run(self) -> Disassembly:
        self._check_frames()
        self._recover_nets()
        bles = self._recover_bles()
        network = self._build_network(bles)
        return Disassembly(db=self.db, cfg=self.cfg, bles=bles,
                           nets=self.nets, inputs=self.pi_pads,
                           outputs=self.po_pads, network=network)

    # -- frame-level consistency ---------------------------------------
    def _check_frames(self) -> None:
        db = self.db
        hi = db.inputs + db.n
        for (x, y), clb in sorted(self.cfg.clbs.items()):
            any_ff = 0
            for j in range(db.n):
                for pin, sel in enumerate(clb.xbar_sel[j]):
                    if sel != SEL_UNUSED and sel >= hi:
                        raise DisasmError(
                            f"CLB ({x},{y}) BLE {j} input {pin}: "
                            f"crossbar select {sel} is out of range "
                            f"(valid: 0..{hi - 1} or {SEL_UNUSED} for "
                            f"unused)")
                if clb.ble_clk_en[j] != clb.use_ff[j]:
                    raise DisasmError(
                        f"CLB ({x},{y}) BLE {j}: clock enable "
                        f"{clb.ble_clk_en[j]} contradicts use-FF bit "
                        f"{clb.use_ff[j]}")
                any_ff |= clb.use_ff[j]
            if clb.clb_clk_en != any_ff:
                raise DisasmError(
                    f"CLB ({x},{y}): CLB clock enable "
                    f"{clb.clb_clk_en} contradicts its BLE use-FF "
                    f"bits (any_ff={any_ff})")
            for p, sel in enumerate(clb.out_src):
                if sel != SEL_UNUSED and sel >= db.n:
                    raise DisasmError(
                        f"CLB ({x},{y}) output pin {p}: source select "
                        f"{sel} names no BLE (valid: 0..{db.n - 1} or "
                        f"{SEL_UNUSED})")
        for (x, y, sub), io in sorted(self.cfg.ios.items()):
            if io.mode not in (MODE_UNUSED, MODE_INPUT, MODE_OUTPUT):
                raise DisasmError(
                    f"IO pad ({x},{y},{sub}): mode {io.mode} is not a "
                    f"legal pad mode (0 unused / 1 input / 2 output)")

    # -- connectivity --------------------------------------------------
    def _io_channel(self, x: int, y: int) -> tuple[str, int, int]:
        """The channel a perimeter pad at (x, y) connects to."""
        return self.grid.io_channel(Site("io", x, y, 0))

    def _adjacent_tracks(self, kind: str, x: int, y: int, t: int):
        """Neighbour tracks reachable through enabled switch pairs."""
        size = self.db.size
        corners = ([(x - 1, y), (x, y)] if kind == "chanx"
                   else [(x, y - 1), (x, y)])
        for cx, cy in corners:
            if not (0 <= cx <= size and 0 <= cy <= size):
                continue
            sb = self.cfg.sbs.get((cx, cy))
            if sb is None:
                continue
            if kind == "chanx":
                my_side = "L" if (x, y) == (cx, cy) else "R"
            else:
                my_side = "D" if (x, y) == (cx, cy) else "U"
            sides = {"L": ("chanx", cx, cy),
                     "R": ("chanx", cx + 1, cy),
                     "D": ("chany", cx, cy),
                     "U": ("chany", cx, cy + 1)}
            for p_idx, (a, b) in enumerate(PAIR_ORDER):
                if not sb.pair_bits[t][p_idx]:
                    continue
                other = b if a == my_side else a if b == my_side else None
                if other is None:
                    continue
                okind, ox, oy = sides[other]
                if okind == "chanx" and not (1 <= ox <= size
                                             and 0 <= oy <= size):
                    continue
                if okind == "chany" and not (0 <= ox <= size
                                             and 1 <= oy <= size):
                    continue
                yield (okind, ox, oy, t)

    def _recover_nets(self) -> None:
        db, cfg = self.db, self.cfg

        # Sink pins listening per track.
        track_sinks: dict[tuple, list[tuple]] = {}
        for (x, y), clb in sorted(cfg.clbs.items()):
            for p, row in enumerate(clb.cb_in):
                kind, cx, cy = self.grid.clb_pin_channel(x, y, p)
                for t, bit in enumerate(row):
                    if bit:
                        track_sinks.setdefault(
                            (kind, cx, cy, t), []).append(
                            ("clb_in", x, y, p))
        for (x, y, sub), io in sorted(cfg.ios.items()):
            if io.mode != MODE_OUTPUT:
                continue
            kind, cx, cy = self._io_channel(x, y)
            for t, bit in enumerate(io.cb):
                if bit:
                    track_sinks.setdefault(
                        (kind, cx, cy, t), []).append(
                        ("pad_out", x, y, sub))

        # Drivers and their starting tracks.
        drivers: list[tuple[tuple, list[tuple]]] = []
        for (x, y), clb in sorted(cfg.clbs.items()):
            for p, row in enumerate(clb.cb_out):
                kind, cx, cy = self.grid.clb_pin_channel(x, y, p)
                start = [(kind, cx, cy, t)
                         for t, bit in enumerate(row) if bit]
                if start:
                    if clb.out_src[p] == SEL_UNUSED:
                        raise DisasmError(
                            f"CLB ({x},{y}) output pin {p} drives "
                            f"routing tracks but its source select is "
                            f"unused -- no BLE feeds it")
                    drivers.append((("clb_out", x, y, p), start))
        for (x, y, sub), io in sorted(cfg.ios.items()):
            if io.mode != MODE_INPUT:
                continue
            kind, cx, cy = self._io_channel(x, y)
            start = [(kind, cx, cy, t)
                     for t, bit in enumerate(io.cb) if bit]
            if not start:
                raise DisasmError(
                    f"IO pad ({x},{y},{sub}) is configured as an input "
                    f"but enables no connection-box track")
            drivers.append((("pad_in", x, y, sub), start))

        claimed: dict[tuple, tuple] = {}   # track -> driver
        pin_driver: dict[tuple, tuple] = {}
        nets: list[RecoveredNet] = []
        for drv, start in drivers:
            seen = set(start)
            stack = list(start)
            sinks: list[tuple] = []
            while stack:
                trk = stack.pop()
                owner = claimed.get(trk)
                if owner is not None and owner != drv:
                    raise DisasmError(
                        f"track {trk} is reached by two drivers: "
                        f"{owner} and {drv} (shorted nets)")
                claimed[trk] = drv
                sinks.extend(track_sinks.get(trk, ()))
                for nxt in self._adjacent_tracks(*trk):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            uniq_sinks = sorted(set(sinks))
            if not uniq_sinks:
                raise DisasmError(
                    f"net driven by {drv} occupies "
                    f"{len(seen)} track(s) but reaches no sink pin")
            for s in uniq_sinks:
                other = pin_driver.get(s)
                if other is not None and other != drv:
                    raise DisasmError(
                        f"pin {s} listens to nets from two drivers: "
                        f"{other} and {drv}")
                pin_driver[s] = drv
            nets.append(RecoveredNet(
                driver=drv, signal="", sinks=tuple(uniq_sinks),
                tracks=tuple(sorted(seen))))

        self.pin_driver = pin_driver
        self.nets = nets

    # -- logic ---------------------------------------------------------
    def _recover_bles(self) -> list[RecoveredBle]:
        db = self.db
        # A constant-0 LUT leaves its whole BLE frame zero (no truth
        # table bits, no FF, no crossbar selects) and is therefore
        # indistinguishable from an unconfigured BLE on its own.  It is
        # configured exactly when something consumes it: a routed CLB
        # output pin's source select or another BLE's feedback select.
        referenced: set[tuple[int, int, int]] = set()
        for net in self.nets:
            if net.driver[0] != "clb_out":
                continue
            _, x, y, p = net.driver
            referenced.add((x, y, self.cfg.clbs[(x, y)].out_src[p]))
        for (x, y), clb in self.cfg.clbs.items():
            for j in range(db.n):
                for sel in clb.xbar_sel[j]:
                    if sel != SEL_UNUSED and sel >= db.inputs:
                        referenced.add((x, y, sel - db.inputs))
        bles: list[RecoveredBle] = []
        for (x, y), clb in sorted(self.cfg.clbs.items()):
            for j in range(db.n):
                active = (any(clb.lut_bits[j]) or clb.use_ff[j]
                          or any(s != SEL_UNUSED
                                 for s in clb.xbar_sel[j])
                          or (x, y, j) in referenced)
                if active:
                    bles.append(RecoveredBle(
                        x, y, j, tuple(clb.lut_bits[j]),
                        bool(clb.use_ff[j]), tuple(clb.xbar_sel[j])))
        self.ble_at = {(b.x, b.y, b.j): b for b in bles}
        return bles

    def _pad_signal(self, x: int, y: int, sub: int,
                    direction: str) -> str:
        named = self.pad_name.get((x, y, sub))
        if named is not None and named[1] == direction:
            return named[0]
        return f"pad{x}_{y}_{sub}"

    def _driver_signal(self, drv: tuple) -> str:
        """Net name carried by a recovered driver pin."""
        if drv[0] == "pad_in":
            return self._pad_signal(drv[1], drv[2], drv[3], "in")
        _, x, y, p = drv
        j = self.cfg.clbs[(x, y)].out_src[p]
        ble = self.ble_at.get((x, y, j))
        if ble is None:
            raise DisasmError(
                f"CLB ({x},{y}) output pin {p} selects BLE {j}, which "
                f"is not configured (no LUT bits, FF or crossbar "
                f"selects)")
        return ble.signal

    def _ble_fanin(self, ble: RecoveredBle, pin: int, sel: int) -> str:
        db = self.db
        if sel >= db.inputs:                       # local feedback
            j2 = sel - db.inputs
            fb = self.ble_at.get((ble.x, ble.y, j2))
            if fb is None:
                raise DisasmError(
                    f"CLB ({ble.x},{ble.y}) BLE {ble.j} input {pin} "
                    f"selects feedback from BLE {j2}, which is not "
                    f"configured")
            return fb.signal
        drv = self.pin_driver.get(("clb_in", ble.x, ble.y, sel))
        if drv is None:
            raise DisasmError(
                f"CLB ({ble.x},{ble.y}) BLE {ble.j} input {pin} "
                f"selects CLB input pin {sel}, but no routed net "
                f"drives that pin")
        return self._driver_signal(drv)

    def _lut_cover(self, ble: RecoveredBle,
                   fanin_pins: list[int]) -> list[str]:
        """Minterm SOP over the connected pins, unused pins held at 0."""
        n_in = len(fanin_pins)
        cover = []
        for m in range(1 << n_in):
            full = 0
            for i, pin in enumerate(fanin_pins):
                full |= ((m >> i) & 1) << pin
            if ble.lut_bits[full]:
                cover.append("".join(str((m >> i) & 1)
                                     for i in range(n_in)))
        if not n_in:
            return [""] if ble.lut_bits[0] else []
        return cover

    def _build_network(self, bles: list[RecoveredBle]) -> LogicNetwork:
        net = LogicNetwork(name="disasm")

        self.pi_pads: dict[str, tuple[int, int, int]] = {}
        self.po_pads: dict[str, tuple[int, int, int]] = {}
        for (x, y, sub), io in sorted(self.cfg.ios.items()):
            if io.mode == MODE_INPUT:
                name = self._pad_signal(x, y, sub, "in")
                net.add_input(name)
                self.pi_pads[name] = (x, y, sub)

        for ble in bles:
            pins = [p for p, s in enumerate(ble.sels)
                    if s != SEL_UNUSED]
            fanins = [self._ble_fanin(ble, p, ble.sels[p])
                      for p in pins]
            net.add_node(ble.lut_signal, fanins,
                         self._lut_cover(ble, pins))
            if ble.use_ff:
                net.add_latch(ble.lut_signal, ble.signal)

        for (x, y, sub), io in sorted(self.cfg.ios.items()):
            if io.mode != MODE_OUTPUT:
                continue
            drv = self.pin_driver.get(("pad_out", x, y, sub))
            if drv is None:
                raise DisasmError(
                    f"IO pad ({x},{y},{sub}) is configured as an "
                    f"output but no routed net drives it")
            name = self._pad_signal(x, y, sub, "out")
            net.add_node(name, [self._driver_signal(drv)], ["1"])
            net.add_output(name)
            self.po_pads[name] = (x, y, sub)

        # Name the recovered nets now that drivers resolve to signals.
        self.nets = [RecoveredNet(n.driver,
                                  self._driver_signal(n.driver),
                                  n.sinks, n.tracks)
                     for n in self.nets]
        try:
            net.validate()
        except ValueError as exc:
            raise DisasmError(
                f"recovered netlist is not well-formed: {exc}") \
                from None
        return net

