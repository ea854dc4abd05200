"""DAGGER role: bitstream generation, decoding and verification.

Each name loads its submodule on first access.  A job key needs only
:func:`~repro.bitgen.chipdb.chipdb_schema_hash`, so it loads the chip
database's constants and not the fabric, packer, placer and router
that the bitstream writer and the disassembler import.
"""

import importlib

#: Public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(("BitstreamConfig", "BitstreamError", "ClbConfig",
                     "IoConfig", "SwitchBoxConfig", "generate_bitstream",
                     "generate_config", "pack_bitstream",
                     "unpack_bitstream"), "bitstream"),
    **dict.fromkeys(("ChipDb", "ChipDbError", "build_chipdb",
                     "chipdb_schema_hash"), "chipdb"),
    **dict.fromkeys(("DisasmError", "Disassembly", "disassemble"),
                    "disasm"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{source}", __name__), name)
