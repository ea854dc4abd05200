"""Versioned chip database: the fabric's configuration-bit layout.

prjoxide and apicula both decouple bitstream tooling from architecture
code through a serialized *chip database*: a per-device description of
the tile grid, each tile's fuse map (which configuration bit controls
which mux/LUT/pad), and the switch-box pair tables.  This module plays
the same role for the paper's platform.  A :class:`ChipDb` is generated
purely from :class:`~repro.arch.params.ArchParams` plus the
:class:`~repro.arch.fabric.FabricGrid` geometry -- no flow state -- and
fully determines the DAGR frame layout:

* **tile grid** -- one tile per CLB (row-major over x, then y), per
  switch-box corner and per IO pad slot, each with its absolute bit
  offset into the frame body;
* **fuse maps** -- per-tile-kind templates of :class:`BitField`\\ s
  (relative bit offset + width): LUT truth bits, use-FF and clock
  enables, crossbar selects, output-source selects, connection-box
  track masks, switch-box pair rows and IO mode/connection fields;
* **switch-box pair table** -- the fixed LR/LD/LU/RD/RU/DU order of a
  disjoint switch box's per-track pair bits;
* **header layout** -- the byte order of the DAGR stream header;
* **canonical content hash** -- SHA-256 over the canonical JSON
  serialization, so two databases are interchangeable exactly when
  their hashes match.  The hash joins experiment/stage cache keys
  (:mod:`repro.exp`, :class:`repro.flow.flow.DesignFlow`) so cached
  results can never alias across fabric layout revisions.

:func:`repro.bitgen.bitstream.pack_bitstream` /
:func:`~repro.bitgen.bitstream.unpack_bitstream` and the disassembler
(:mod:`repro.bitgen.disasm`) consume the database instead of doing
their own ``ArchParams`` arithmetic, which is what makes third-party
bitstream tooling (and the round-trip differential suite) possible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..arch.params import ArchParams

__all__ = ["BitField", "ChipDb", "ChipDbError", "ClbTileMap",
           "IoTileMap", "SbTileMap", "Tile", "build_chipdb",
           "chipdb_schema_hash", "CHIPDB_FORMAT_VERSION", "MAGIC",
           "STREAM_VERSION", "HEADER_FIELDS", "HEADER_BYTES",
           "PAIR_ORDER", "SEL_BITS", "SEL_UNUSED", "MODE_BITS",
           "MODE_UNUSED", "MODE_INPUT", "MODE_OUTPUT", "CRC_BYTES"]

#: Bump on any change to the layout algorithm or schema below.  The
#: value folds into every chipdb content hash and into the experiment /
#: flow-stage cache keys, so a format revision atomically invalidates
#: every cached artifact that embedded the old layout.
CHIPDB_FORMAT_VERSION = 1

#: DAGR stream framing (moved here from the bitstream module: the
#: header is part of the layout the database describes).
MAGIC = b"DAGR"
STREAM_VERSION = 1
#: Header bytes after the magic, in stream order.
HEADER_FIELDS = ("version", "size", "channel_width", "n", "k",
                 "inputs", "outputs", "io_rat")
HEADER_BYTES = len(MAGIC) + len(HEADER_FIELDS)
CRC_BYTES = 4

#: Crossbar / output-source select encoding.
SEL_BITS = 5
SEL_UNUSED = 31

#: IO pad mode field.
MODE_BITS = 2
MODE_UNUSED, MODE_INPUT, MODE_OUTPUT = 0, 1, 2

#: Disjoint switch-box pair-bit order (L = west chanx, R = east chanx,
#: D = south chany, U = north chany).
PAIR_ORDER = (("L", "R"), ("L", "D"), ("L", "U"),
              ("R", "D"), ("R", "U"), ("D", "U"))


class ChipDbError(ValueError):
    """Malformed, inconsistent or mismatched chip database."""


@dataclass(frozen=True)
class BitField:
    """One contiguous little-endian bit field inside a tile's frame."""

    offset: int     # bit offset, relative to the owning tile's base
    width: int

    def end(self) -> int:
        return self.offset + self.width


@dataclass(frozen=True)
class Tile:
    """One grid tile: kind, coordinates and absolute frame offset."""

    kind: str       # 'clb' | 'sb' | 'io'
    x: int
    y: int
    sub: int        # pad slot for IO tiles, 0 otherwise
    base: int       # absolute bit offset of this tile's frame

    def key(self) -> tuple[str, int, int, int]:
        return (self.kind, self.x, self.y, self.sub)


@dataclass(frozen=True)
class ClbTileMap:
    """Fuse map of one CLB tile (offsets relative to the tile base).

    Connection-box rows are exposed as track *masks*: one ``w``-wide
    field per pin whose integer value has bit ``t`` set when the pin
    connects to track ``t``.
    """

    lut: tuple[BitField, ...]                   # per BLE, 2^K bits
    use_ff: tuple[BitField, ...]                # per BLE, 1 bit
    xbar: tuple[tuple[BitField, ...], ...]      # [ble][pin], SEL_BITS
    ble_clk_en: tuple[BitField, ...]            # per BLE, 1 bit
    clb_clk_en: BitField                        # 1 bit
    out_src: tuple[BitField, ...]               # per OPIN, SEL_BITS
    cb_in: tuple[BitField, ...]                 # per IPIN, W-bit mask
    cb_out: tuple[BitField, ...]                # per OPIN, W-bit mask
    bits: int                                   # total tile frame bits


@dataclass(frozen=True)
class SbTileMap:
    """Fuse map of one disjoint switch-box corner."""

    pairs: tuple[BitField, ...]     # per track, 6 pair bits (PAIR_ORDER)
    bits: int


@dataclass(frozen=True)
class IoTileMap:
    """Fuse map of one IO pad slot."""

    mode: BitField                  # MODE_BITS
    cb: BitField                    # W-bit track mask
    bits: int


@dataclass(frozen=True)
class ChipDb:
    """Complete configuration-bit layout of one fabric instance."""

    format_version: int
    size: int                       # CLB grid side length
    n: int                          # BLEs per CLB
    k: int                          # LUT inputs
    inputs: int                     # CLB input pins (Eq. 1 resolved)
    outputs: int                    # CLB output pins
    channel_width: int
    io_rat: int
    clb_map: ClbTileMap
    sb_map: SbTileMap
    io_map: IoTileMap
    tiles: tuple[Tile, ...]         # in frame order
    body_bits: int
    _by_key: dict = field(default=None, repr=False, compare=False,
                          hash=False)

    # -- lookups -------------------------------------------------------
    def tile_at(self, kind: str, x: int, y: int, sub: int = 0) -> Tile:
        index = self._index()
        try:
            return index[(kind, x, y, sub)]
        except KeyError:
            raise ChipDbError(
                f"no {kind!r} tile at ({x}, {y}, {sub}) in a "
                f"size-{self.size} fabric") from None

    def _index(self) -> dict:
        if self._by_key is None:
            object.__setattr__(self, "_by_key",
                               {t.key(): t for t in self.tiles})
        return self._by_key

    def tiles_of(self, kind: str) -> list[Tile]:
        return [t for t in self.tiles if t.kind == kind]

    def stream_bytes(self) -> int:
        """Exact byte length of a DAGR stream over this fabric."""
        return HEADER_BYTES + (self.body_bits + 7) // 8 + CRC_BYTES

    def header_values(self) -> dict[str, int]:
        """The stream header fields this database corresponds to."""
        return {"version": STREAM_VERSION, "size": self.size,
                "channel_width": self.channel_width, "n": self.n,
                "k": self.k, "inputs": self.inputs,
                "outputs": self.outputs, "io_rat": self.io_rat}

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        """Canonical (sorted-keys, compact) JSON serialization."""
        def bf(f: BitField):
            return [f.offset, f.width]

        doc = {
            "schema": "repro-chipdb",
            "format_version": self.format_version,
            "stream": {
                "magic": MAGIC.decode(),
                "version": STREAM_VERSION,
                "header_fields": list(HEADER_FIELDS),
                "crc": "crc32-le",
            },
            "arch": {
                "size": self.size, "n": self.n, "k": self.k,
                "inputs": self.inputs, "outputs": self.outputs,
                "channel_width": self.channel_width,
                "io_rat": self.io_rat,
            },
            "sel": {"bits": SEL_BITS, "unused": SEL_UNUSED,
                    "feedback_base": self.inputs},
            "pair_order": ["".join(p) for p in PAIR_ORDER],
            "clb_map": {
                "lut": [bf(f) for f in self.clb_map.lut],
                "use_ff": [bf(f) for f in self.clb_map.use_ff],
                "xbar": [[bf(f) for f in row]
                         for row in self.clb_map.xbar],
                "ble_clk_en": [bf(f) for f in self.clb_map.ble_clk_en],
                "clb_clk_en": bf(self.clb_map.clb_clk_en),
                "out_src": [bf(f) for f in self.clb_map.out_src],
                "cb_in": [bf(f) for f in self.clb_map.cb_in],
                "cb_out": [bf(f) for f in self.clb_map.cb_out],
                "bits": self.clb_map.bits,
            },
            "sb_map": {"pairs": [bf(f) for f in self.sb_map.pairs],
                       "bits": self.sb_map.bits},
            "io_map": {"mode": bf(self.io_map.mode),
                       "cb": bf(self.io_map.cb),
                       "bits": self.io_map.bits},
            "tiles": [[t.kind, t.x, t.y, t.sub, t.base]
                      for t in self.tiles],
            "body_bits": self.body_bits,
        }
        return json.dumps(doc, sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChipDb":
        """Parse a serialized database, validating the schema."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChipDbError(f"chipdb is not valid JSON: {exc}") \
                from None
        if not isinstance(doc, dict) or \
                doc.get("schema") != "repro-chipdb":
            raise ChipDbError(
                "not a repro chip database (missing "
                "'schema': 'repro-chipdb')")
        if doc.get("format_version") != CHIPDB_FORMAT_VERSION:
            raise ChipDbError(
                f"chipdb format version {doc.get('format_version')!r} "
                f"is not supported (this build reads version "
                f"{CHIPDB_FORMAT_VERSION})")

        def bf(v) -> BitField:
            return BitField(int(v[0]), int(v[1]))

        try:
            a = doc["arch"]
            cm = doc["clb_map"]
            clb = ClbTileMap(
                lut=tuple(bf(f) for f in cm["lut"]),
                use_ff=tuple(bf(f) for f in cm["use_ff"]),
                xbar=tuple(tuple(bf(f) for f in row)
                           for row in cm["xbar"]),
                ble_clk_en=tuple(bf(f) for f in cm["ble_clk_en"]),
                clb_clk_en=bf(cm["clb_clk_en"]),
                out_src=tuple(bf(f) for f in cm["out_src"]),
                cb_in=tuple(bf(f) for f in cm["cb_in"]),
                cb_out=tuple(bf(f) for f in cm["cb_out"]),
                bits=int(cm["bits"]),
            )
            sb = SbTileMap(pairs=tuple(bf(f)
                                       for f in doc["sb_map"]["pairs"]),
                           bits=int(doc["sb_map"]["bits"]))
            io = IoTileMap(mode=bf(doc["io_map"]["mode"]),
                           cb=bf(doc["io_map"]["cb"]),
                           bits=int(doc["io_map"]["bits"]))
            tiles = tuple(Tile(t[0], int(t[1]), int(t[2]), int(t[3]),
                               int(t[4])) for t in doc["tiles"])
            db = cls(format_version=int(doc["format_version"]),
                     size=int(a["size"]), n=int(a["n"]), k=int(a["k"]),
                     inputs=int(a["inputs"]), outputs=int(a["outputs"]),
                     channel_width=int(a["channel_width"]),
                     io_rat=int(a["io_rat"]), clb_map=clb, sb_map=sb,
                     io_map=io, tiles=tiles,
                     body_bits=int(doc["body_bits"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ChipDbError(
                f"chipdb document is structurally invalid: "
                f"{type(exc).__name__}: {exc}") from None
        return db

    def content_hash(self) -> str:
        """SHA-256 over the canonical serialization.

        Two databases describe the same frame layout exactly when
        their hashes are equal; any change to the grid, a fuse map, the
        pair table or the schema version changes the digest.
        """
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def chipdb_schema_hash() -> str:
    """Digest of the layout *schema* (not any one fabric instance).

    Folded into every experiment job key and flow stage key: bumping
    :data:`CHIPDB_FORMAT_VERSION` -- or revising the header layout,
    select encoding or switch-box pair table -- invalidates every
    cached result that could embed frames of the old layout, without
    having to know each job's fabric size.
    """
    h = hashlib.sha256(b"repro-chipdb-schema")
    h.update(str(CHIPDB_FORMAT_VERSION).encode())
    h.update(MAGIC)
    h.update(str(STREAM_VERSION).encode())
    h.update("|".join(HEADER_FIELDS).encode())
    h.update("|".join("".join(p) for p in PAIR_ORDER).encode())
    h.update(f"{SEL_BITS},{SEL_UNUSED},{MODE_BITS}".encode())
    return h.hexdigest()


def build_chipdb(arch: ArchParams, size: int) -> ChipDb:
    """Generate the chip database for ``arch`` at grid side ``size``.

    Pure function of the architecture parameters and the
    :class:`~repro.arch.fabric.FabricGrid` geometry; everything the
    bitstream tools need is derived here, once.  The fabric loads here,
    not with the module: a job key needs only the schema constants.
    """
    from ..arch.fabric import FabricGrid
    if size < 1:
        raise ChipDbError(f"grid size must be >= 1, got {size}")
    grid = FabricGrid(arch, size)
    n, k = arch.n, arch.k
    n_in, n_out = arch.inputs_per_clb, arch.clb_outputs
    w = arch.channel_width

    # -- CLB tile template ---------------------------------------------
    pos = 0

    def take(width: int) -> BitField:
        nonlocal pos
        f = BitField(pos, width)
        pos += width
        return f

    lut, use_ff, xbar, ble_clk_en = [], [], [], []
    for _ in range(n):
        lut.append(take(1 << k))
        use_ff.append(take(1))
        xbar.append(tuple(take(SEL_BITS) for _ in range(k)))
        ble_clk_en.append(take(1))
    clb_clk_en = take(1)
    out_src = tuple(take(SEL_BITS) for _ in range(n_out))
    cb_in = tuple(take(w) for _ in range(n_in))
    cb_out = tuple(take(w) for _ in range(n_out))
    clb_map = ClbTileMap(lut=tuple(lut), use_ff=tuple(use_ff),
                         xbar=tuple(xbar),
                         ble_clk_en=tuple(ble_clk_en),
                         clb_clk_en=clb_clk_en, out_src=out_src,
                         cb_in=cb_in, cb_out=cb_out, bits=pos)

    # -- switch-box tile template --------------------------------------
    sb_map = SbTileMap(
        pairs=tuple(BitField(t * len(PAIR_ORDER), len(PAIR_ORDER))
                    for t in range(w)),
        bits=w * len(PAIR_ORDER))

    # -- IO tile template ----------------------------------------------
    io_map = IoTileMap(mode=BitField(0, MODE_BITS),
                       cb=BitField(MODE_BITS, w),
                       bits=MODE_BITS + w)

    # -- tile grid in frame order --------------------------------------
    tiles: list[Tile] = []
    base = 0
    for x in range(1, size + 1):            # CLBs, row-major x then y
        for y in range(1, size + 1):
            tiles.append(Tile("clb", x, y, 0, base))
            base += clb_map.bits
    for cx in range(size + 1):              # switch-box corners
        for cy in range(size + 1):
            tiles.append(Tile("sb", cx, cy, 0, base))
            base += sb_map.bits
    # IO pad frames in sorted (x, y, sub) order -- the canonical pad
    # enumeration the stream uses.
    for x, y, sub in sorted((s.x, s.y, s.sub)
                            for s in grid.io_sites()):
        tiles.append(Tile("io", x, y, sub, base))
        base += io_map.bits

    return ChipDb(format_version=CHIPDB_FORMAT_VERSION, size=size,
                  n=n, k=k, inputs=n_in, outputs=n_out,
                  channel_width=w, io_rat=arch.io_rat,
                  clb_map=clb_map, sb_map=sb_map, io_map=io_map,
                  tiles=tuple(tiles), body_bits=base)
