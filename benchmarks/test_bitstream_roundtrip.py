"""Bitstream round-trip throughput over the benchmark suite.

Measures the full decode path the chipdb refactor introduced: chip
database construction, ``pack``/``unpack`` and the disassembler
(bitstream -> recovered netlist), per circuit of the MCNC-class
suite.  The numbers bound the cost of the three-oracle differential
check that now rides along every fuzz case and golden run.
"""

import time

from conftest import print_table, save_results
from repro.bench import mcnc_class_suite
from repro.bitgen import (build_chipdb, disassemble, pack_bitstream,
                          unpack_bitstream)
from repro.bitgen.devicesim import pad_map_from_placement
from repro.flow import DesignFlow, FlowOptions


def _roundtrip_rows():
    rows = []
    for net in mcnc_class_suite():
        res = DesignFlow(FlowOptions(seed=1)).run(net)
        arch, size = res.placement.arch, res.placement.grid_size

        t0 = time.perf_counter()
        db = build_chipdb(arch, size)
        t_db = time.perf_counter() - t0

        t0 = time.perf_counter()
        cfg = unpack_bitstream(res.bitstream, arch, db)
        t_unpack = time.perf_counter() - t0

        t0 = time.perf_counter()
        repacked = pack_bitstream(cfg, db)
        t_pack = time.perf_counter() - t0
        assert repacked == res.bitstream

        t0 = time.perf_counter()
        dis = disassemble(cfg, pad_map=pad_map_from_placement(
            res.placement), db=db)
        t_disasm = time.perf_counter() - t0

        rows.append({
            "circuit": net.name,
            "bytes": len(res.bitstream),
            "body_bits": db.body_bits,
            "bles": dis.stats()["bles"],
            "nets": dis.stats()["nets"],
            "chipdb_ms": round(t_db * 1e3, 2),
            "unpack_ms": round(t_unpack * 1e3, 2),
            "pack_ms": round(t_pack * 1e3, 2),
            "disasm_ms": round(t_disasm * 1e3, 2),
        })
    return rows


def test_bitstream_roundtrip_suite(benchmark):
    rows = benchmark.pedantic(_roundtrip_rows, iterations=1, rounds=1)
    print_table("Bitstream round-trip over the MCNC-class suite", rows,
                ["circuit", "bytes", "body_bits", "bles", "nets",
                 "chipdb_ms", "unpack_ms", "pack_ms", "disasm_ms"])
    save_results("bitstream_roundtrip", rows)
    assert len(rows) == 10
    for row in rows:
        # The whole decode path must stay interactive-fast: the
        # differential oracle runs it on every fuzz case.
        assert row["unpack_ms"] + row["pack_ms"] + row["disasm_ms"] \
            < 2000, f"{row['circuit']}: round-trip too slow ({row})"
