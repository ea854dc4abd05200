"""Island-style FPGA fabric model: grid geometry and block sites.

Follows the VPR conventions: CLBs occupy (1..size, 1..size); IO pads
sit on the perimeter ring (x = 0 / size+1 or y = 0 / size+1, corners
unused) with ``io_rat`` pads per location.  Horizontal routing channels
``chanx(x, y)`` run above row y (y = 0..size); vertical channels
``chany(x, y)`` run right of column x (x = 0..size).
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ArchParams

__all__ = ["Site", "FabricGrid"]


@dataclass(frozen=True)
class Site:
    """One placement site: a CLB location or an IO pad slot."""

    kind: str       # 'clb' | 'io'
    x: int
    y: int
    sub: int = 0    # pad slot index within an IO location

    def key(self) -> tuple:
        return (self.kind, self.x, self.y, self.sub)


class FabricGrid:
    """Geometry of a square island-style fabric."""

    def __init__(self, arch: ArchParams, size: int):
        if size < 1:
            raise ValueError("grid size must be >= 1")
        self.arch = arch
        self.size = size

    # -- sites -----------------------------------------------------------
    def clb_sites(self) -> list[Site]:
        s = self.size
        return [Site("clb", x, y)
                for x in range(1, s + 1) for y in range(1, s + 1)]

    def io_sites(self) -> list[Site]:
        s = self.size
        out: list[Site] = []
        for sub in range(self.arch.io_rat):
            for x in range(1, s + 1):
                out.append(Site("io", x, 0, sub))          # bottom
                out.append(Site("io", x, s + 1, sub))      # top
            for y in range(1, s + 1):
                out.append(Site("io", 0, y, sub))          # left
                out.append(Site("io", s + 1, y, sub))      # right
        return out

    # -- channels ------------------------------------------------------
    def chanx_positions(self) -> list[tuple[int, int]]:
        """(x, y) pairs for horizontal channel segments."""
        s = self.size
        return [(x, y) for y in range(0, s + 1) for x in range(1, s + 1)]

    def chany_positions(self) -> list[tuple[int, int]]:
        s = self.size
        return [(x, y) for x in range(0, s + 1) for y in range(1, s + 1)]

    def io_channel(self, site: Site) -> tuple[str, int, int]:
        """The channel an IO pad connects to: (kind, x, y)."""
        s = self.size
        if site.y == 0:
            return ("chanx", site.x, 0)
        if site.y == s + 1:
            return ("chanx", site.x, s)
        if site.x == 0:
            return ("chany", 0, site.y)
        if site.x == s + 1:
            return ("chany", s, site.y)
        raise ValueError(f"{site} is not a perimeter location")

    def clb_channels(self, x: int, y: int) -> list[tuple[str, int, int]]:
        """Channels adjacent to CLB (x, y): bottom, top, left, right."""
        return [("chanx", x, y - 1), ("chanx", x, y),
                ("chany", x - 1, y), ("chany", x, y)]

    def clb_pin_channel(self, x: int, y: int,
                        pin: int) -> tuple[str, int, int]:
        """The channel CLB pin ``pin`` at (x, y) connects to.

        Pins are distributed round-robin over the four sides, matching
        the routing-resource graph's assignment; both the connection
        boxes in the bitstream and the disassembler key off this.
        """
        return self.clb_channels(x, y)[pin % 4]
