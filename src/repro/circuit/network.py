"""Circuit netlist container and builder API.

A :class:`Circuit` is a flat transistor-level netlist: named nodes plus
MOSFETs / resistors / capacitors, with PWL voltage sources pinned to
nodes.  Cells (inverters, gates, flip-flops, ...) are built on top of
this API in :mod:`repro.circuit.cells` and friends.

Two nodes are always present: ``gnd`` (0 V) and ``vdd`` (the supply).
The simulator measures energy as the charge delivered by the ``vdd``
source, which is exactly what the paper reports (total energy drawn
from the supply over a stimulus).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .devices import Capacitor, Mosfet, Resistor
from .technology import Technology, STM018
from .waveforms import PWL, dc

GND = "gnd"
VDD = "vdd"


@dataclass
class Circuit:
    """A mutable transistor-level netlist bound to a :class:`Technology`."""

    tech: Technology = field(default_factory=lambda: STM018)
    title: str = ""

    def __post_init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self.mosfets: list[Mosfet] = []
        self.resistors: list[Resistor] = []
        self.capacitors: list[Capacitor] = []
        self.sources: dict[int, PWL] = {}
        self._uniq = 0
        # Ground and supply are nodes 0 and 1 by construction.
        self.node(GND)
        self.node(VDD)
        self.sources[self._index[GND]] = dc(0.0)
        self.sources[self._index[VDD]] = dc(self.tech.vdd)

    # -- nodes ----------------------------------------------------------
    def node(self, name: str | None = None) -> int:
        """Get or create a node by name; anonymous if ``name`` is None."""
        if name is None:
            name = f"_n{self._uniq}"
            self._uniq += 1
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._names.append(name)
            self._index[name] = idx
        return idx

    def node_name(self, idx: int) -> str:
        return self._names[idx]

    @property
    def n_nodes(self) -> int:
        return len(self._names)

    @property
    def gnd(self) -> int:
        return self._index[GND]

    @property
    def vdd(self) -> int:
        return self._index[VDD]

    def names(self) -> list[str]:
        return list(self._names)

    # -- sources ---------------------------------------------------------
    def voltage_source(self, node: int | str, wave: PWL) -> int:
        """Pin ``node`` to the PWL waveform (an ideal voltage source)."""
        idx = self.node(node) if isinstance(node, str) else node
        self.sources[idx] = wave
        return idx

    # -- elements ---------------------------------------------------------
    def nmos(self, d: int, g: int, s: int, w: float | None = None,
             l: float | None = None, name: str = "") -> Mosfet:
        return self._mos(d, g, s, w, l, False, name)

    def pmos(self, d: int, g: int, s: int, w: float | None = None,
             l: float | None = None, name: str = "") -> Mosfet:
        return self._mos(d, g, s, w, l, True, name)

    def _mos(self, d: int, g: int, s: int, w: float | None, l: float | None,
             ptype: bool, name: str) -> Mosfet:
        w = self.tech.w_min if w is None else w
        l = self.tech.l_min if l is None else l
        if w <= 0 or l <= 0:
            raise ValueError("MOSFET dimensions must be positive")
        m = Mosfet(d=d, g=g, s=s, w=w, l=l, ptype=ptype, name=name)
        self.mosfets.append(m)
        return m

    def resistor(self, a: int, b: int, r: float, name: str = "") -> Resistor:
        el = Resistor(a=a, b=b, r=r, name=name)
        self.resistors.append(el)
        return el

    def capacitor(self, n: int, c: float, name: str = "") -> Capacitor:
        el = Capacitor(n=n, c=c, name=name)
        self.capacitors.append(el)
        return el

    def stats(self) -> dict[str, int]:
        return {
            "nodes": self.n_nodes,
            "mosfets": len(self.mosfets),
            "resistors": len(self.resistors),
            "capacitors": len(self.capacitors),
            "sources": len(self.sources),
        }
