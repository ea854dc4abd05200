"""FPGA device simulator: execute a design from its bitstream alone.

This is the strongest verification the DAGGER stage can get: the
decoded :class:`~repro.bitgen.bitstream.BitstreamConfig` -- and nothing
else from the flow -- is booted as a running FPGA:

1. **decoding** -- :func:`~repro.bitgen.disasm.disassemble` recovers
   every routed net from the connection-box and switch-box bits, every
   active BLE from its LUT bits, crossbar selects and use-FF bit, and
   the :class:`~repro.netlist.logic.LogicNetwork` they form.
   Inconsistent bits raise :class:`~repro.bitgen.disasm.DisasmError`;
2. **cycle simulation** -- combinational evaluation in dependency
   order, flip-flop state updated once per clock event.

Primary IO is identified by pad coordinates; a pad map (net name ->
pad location) is taken from the placement, mirroring how a board-level
harness would know the pinout.

If ``DeviceSimulator`` produces the same traces as the mapped BLIF
network, then packing, placement, routing, the crossbar configuration
and the bitstream encoding are all simultaneously correct.
"""

from __future__ import annotations

from ..place.placer import Placement
from .bitstream import BitstreamConfig
from .disasm import DisasmError, disassemble

__all__ = ["DeviceSimulator", "pad_map_from_placement"]


def pad_map_from_placement(placement: Placement) -> dict[str, tuple]:
    """IO net name -> pad ``(dir, x, y, sub)`` from a placement, where
    ``dir`` is ``"in"`` or ``"out"``."""
    out = {}
    for block, site in placement.loc.items():
        if block.startswith("pi:"):
            out[block[3:]] = ("in", site.x, site.y, site.sub)
        elif block.startswith("po:"):
            out[block[3:]] = ("out", site.x, site.y, site.sub)
    return out


class DeviceSimulator:
    """Interpret a bitstream configuration as a running FPGA.

    ``disassembly`` is what the configuration decodes to.  Every
    flip-flop starts at 0.
    """

    def __init__(self, cfg: BitstreamConfig,
                 pad_map: dict[str, tuple]):
        self.disassembly = disassemble(cfg, pad_map=pad_map)
        self._outputs = [name for name, desc in pad_map.items()
                         if desc[0] == "out"]
        missing = [name for name in self._outputs
                   if name not in self.disassembly.outputs]
        if missing:
            raise DisasmError(
                f"pad map output(s) {missing} name no pad the "
                f"configuration drives as an output")
        self.reset()

    def reset(self) -> None:
        """Clear all flip-flop state (the CLB asynchronous Clear)."""
        self.state = {latch.output: 0
                      for latch in self.disassembly.network.latches}

    def step(self, pi_vals: dict[str, int]) -> dict[str, int]:
        """One clock cycle: sample outputs, then update all FFs.

        A primary input missing from ``pi_vals`` reads 0.
        """
        net = self.disassembly.network
        values = net.eval_comb({pi: pi_vals.get(pi, 0)
                                for pi in net.inputs}, self.state)
        self.state = {latch.output: values[latch.input]
                      for latch in net.latches}
        return {name: values[name] for name in self._outputs}

    def run(self, vectors: list[dict[str, int]]) -> list[dict[str, int]]:
        """Cycle-accurate run over PI vectors (like LogicNetwork)."""
        return [self.step(v) for v in vectors]
