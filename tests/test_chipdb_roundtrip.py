"""Chipdb-driven round-trip properties and the golden differential.

Three layers of guarantees:

1. **Bit-exact pack/unpack** (property-based): for random architecture
   parameters and *arbitrary* field values -- not just configurations a
   sane flow would emit -- ``unpack(pack(cfg))`` recovers every frame
   field exactly and repacking is byte-for-byte identical.
2. **Netlist equivalence** (golden differential): for every circuit of
   the 10-circuit golden suite, bitstream -> disassembled netlist ->
   logic simulation matches a simulation of the source network
   cycle-for-cycle, and ``unpack -> repack`` reproduces the stream.
3. **Cache safety**: a chipdb schema revision provably changes the
   flow stage keys and experiment job keys, so results computed under
   one fabric layout can never be served for another.

The hypothesis suites honour the ``ci`` profile registered in
``conftest.py`` (``HYPOTHESIS_PROFILE=ci`` bounds examples for the
fast CI leg).
"""

import random
import zlib
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.arch import ArchParams, DEFAULT_ARCH
from repro.bench.generators import mcnc_class_suite
from repro.bitgen import chipdb as chipdb_mod
from repro.bitgen import (BitstreamConfig, BitstreamError, ClbConfig,
                          IoConfig, SwitchBoxConfig, build_chipdb,
                          chipdb_schema_hash, disassemble,
                          pack_bitstream, unpack_bitstream)
from repro.bitgen.chipdb import ChipDb, ChipDbError
from repro.bitgen.devicesim import pad_map_from_placement
from repro.exp import JobSpec
from repro.flow.flow import DesignFlow, FlowOptions, run_flow_from_logic

# ---------------------------------------------------------------------------
# Property 1: bit-exact pack/unpack for arbitrary configurations
# ---------------------------------------------------------------------------

#: Small-but-diverse architecture space.  inputs + n must stay below
#: the 5-bit select encoding's unused sentinel (31).
arch_st = st.builds(
    lambda n, k, w, io_rat: replace(
        DEFAULT_ARCH, n=n, k=k, channel_width=w, io_rat=io_rat),
    n=st.integers(2, 6), k=st.integers(2, 5),
    w=st.integers(4, 16), io_rat=st.integers(1, 3))


def _random_config(arch: ArchParams, size: int,
                   seed: int) -> BitstreamConfig:
    """Arbitrary field values for every tile -- no flow semantics."""
    db = build_chipdb(arch, size)
    rng = random.Random(seed)
    bit = lambda: rng.randint(0, 1)
    cfg = BitstreamConfig(arch=arch, size=size)
    for t in db.tiles_of("clb"):
        cfg.clbs[(t.x, t.y)] = ClbConfig(
            lut_bits=[[bit() for _ in range(1 << db.k)]
                      for _ in range(db.n)],
            use_ff=[bit() for _ in range(db.n)],
            xbar_sel=[[rng.randint(0, 31) for _ in range(db.k)]
                      for _ in range(db.n)],
            ble_clk_en=[bit() for _ in range(db.n)],
            clb_clk_en=bit(),
            out_src=[rng.randint(0, 31) for _ in range(db.outputs)],
            cb_in=[[bit() for _ in range(db.channel_width)]
                   for _ in range(db.inputs)],
            cb_out=[[bit() for _ in range(db.channel_width)]
                    for _ in range(db.outputs)])
    for t in db.tiles_of("sb"):
        cfg.sbs[(t.x, t.y)] = SwitchBoxConfig(
            pair_bits=[[bit() for _ in range(6)]
                       for _ in range(db.channel_width)])
    for t in db.tiles_of("io"):
        cfg.ios[(t.x, t.y, t.sub)] = IoConfig(
            mode=rng.randint(0, 3),
            cb=[bit() for _ in range(db.channel_width)])
    return cfg


@given(arch=arch_st, size=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_pack_unpack_bit_exact(arch, size, seed):
    cfg = _random_config(arch, size, seed)
    db = build_chipdb(arch, size)
    data = pack_bitstream(cfg, db)
    assert len(data) == db.stream_bytes()
    back = unpack_bitstream(data, arch, db)
    assert back.size == cfg.size
    assert back.clbs == cfg.clbs
    assert back.sbs == cfg.sbs
    assert back.ios == cfg.ios
    assert pack_bitstream(back, db) == data


@given(arch=arch_st, size=st.integers(2, 4))
def test_chipdb_json_roundtrip(arch, size):
    db = build_chipdb(arch, size)
    back = ChipDb.from_json(db.to_json())
    assert back == db
    assert back.content_hash() == db.content_hash()
    # The hash is a function of content: any two distinct layouts in
    # the drawn space must not collide on equality.
    assert back.header_values() == db.header_values()


@given(arch=arch_st, size=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_header_binds_stream_to_chipdb(arch, size, seed):
    """A stream packed under one db is rejected by a different db."""
    cfg = _random_config(arch, size, seed)
    data = pack_bitstream(cfg)
    other = build_chipdb(replace(arch, channel_width=arch.channel_width + 1),
                         size)
    with pytest.raises(BitstreamError):
        unpack_bitstream(data, arch, other)


# ---------------------------------------------------------------------------
# Property 2: netlist equivalence through the full flow (hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 63))
def test_flow_roundtrip_equivalent_random_netlists(seed):
    """Random netlist -> flow -> bitstream -> disasm == source sim."""
    from repro.bench import random_logic
    rng = random.Random(0xD15A + seed)
    net = random_logic(f"prop{seed}", seed=seed,
                       n_pi=rng.randint(3, 7), n_po=rng.randint(2, 4),
                       n_nodes=rng.randint(8, 24),
                       registered=seed % 2 == 0)
    res = run_flow_from_logic(
        net, FlowOptions(seed=1 + seed % 3, place_effort=0.2,
                         use_cache=False))
    dis = disassemble(res.bitstream, res.placement.arch,
                      pad_map=pad_map_from_placement(res.placement))
    vecs = [{pi: rng.randint(0, 1) for pi in net.inputs}
            for _ in range(8)]
    assert dis.network.simulate(vecs) == net.simulate(vecs)
    cfg = unpack_bitstream(res.bitstream, res.placement.arch)
    assert pack_bitstream(cfg) == res.bitstream


def test_flow_roundtrip_constant_zero_lut():
    """A constant-0 LUT leaves its BLE frame all-zero; the disassembler
    must still lift it (it is referenced by an output source select)."""
    from repro.netlist import LogicNetwork
    net = LogicNetwork("const0")
    a = net.add_input("a")
    net.add_node("zero", [], [])            # constant 0
    net.add_node("buf", [a], ["1"])
    net.add_output("zero")
    net.add_output("buf")
    res = run_flow_from_logic(net, FlowOptions(seed=1, use_cache=False))
    dis = disassemble(res.bitstream, res.placement.arch,
                      pad_map=pad_map_from_placement(res.placement))
    vecs = [{"a": v} for v in (0, 1)]
    assert dis.network.simulate(vecs) == net.simulate(vecs)
    cfg = unpack_bitstream(res.bitstream, res.placement.arch)
    assert pack_bitstream(cfg) == res.bitstream


# ---------------------------------------------------------------------------
# Golden differential: the 10-circuit suite
# ---------------------------------------------------------------------------

_SUITE = {net.name: net for net in mcnc_class_suite()}


@pytest.mark.parametrize("name", sorted(_SUITE))
def test_golden_suite_roundtrip(name):
    net = _SUITE[name]
    res = run_flow_from_logic(
        net, FlowOptions(seed=4, use_cache=False))
    assert res.routing is not None and res.routing.success

    dis = disassemble(res.bitstream, res.placement.arch,
                      pad_map=pad_map_from_placement(res.placement))
    # crc32, not hash(): str hashes change with PYTHONHASHSEED, and a
    # failure must replay with the same vectors.
    rng = random.Random(zlib.crc32(name.encode()))
    vecs = [{pi: rng.randint(0, 1) for pi in net.inputs}
            for _ in range(16)]
    got = dis.network.simulate(vecs)
    want = net.simulate(vecs)
    assert got == want, (
        f"{name}: disassembled netlist diverges from source at cycle "
        f"{next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)}")

    cfg = unpack_bitstream(res.bitstream, res.placement.arch)
    assert pack_bitstream(cfg) == res.bitstream, (
        f"{name}: unpack -> repack is not byte-identical")

    # Structural sanity: every recovered BLE/net is accounted for.
    stats = dis.stats()
    assert stats["bles"] > 0 and stats["nets"] > 0
    assert stats["outputs"] == len(net.outputs)


# ---------------------------------------------------------------------------
# Cache safety: chipdb schema hash keys stage + experiment caches
# ---------------------------------------------------------------------------

def test_schema_hash_tracks_format_version(monkeypatch):
    before = chipdb_schema_hash()
    monkeypatch.setattr(chipdb_mod, "CHIPDB_FORMAT_VERSION", 999)
    assert chipdb_schema_hash() != before


def test_schema_change_invalidates_flow_stage_keys(monkeypatch):
    flow = DesignFlow(FlowOptions(use_cache=False))
    flow._seed_fingerprint("blif", "dummy")
    key_before = flow._stage_key("bitstream", ("h",))
    monkeypatch.setattr(chipdb_mod, "CHIPDB_FORMAT_VERSION", 999)
    key_after = flow._stage_key("bitstream", ("h",))
    assert key_before != key_after


def test_schema_change_invalidates_jobspec_keys(monkeypatch):
    spec = JobSpec.make("transient", circuit="inv", dt=1e-12)
    key_before = spec.key()
    monkeypatch.setattr(chipdb_mod, "CHIPDB_FORMAT_VERSION", 999)
    assert spec.key() != key_before


def test_schema_change_forces_stage_recompute(tmp_path, monkeypatch):
    """End-to-end: cached bitstream stage misses after a schema bump."""
    from repro.bench.generators import counter
    opts = FlowOptions(seed=2, use_cache=True,
                       cache_dir=str(tmp_path / "cache"))
    net = counter(4)
    run_flow_from_logic(net, opts)
    res_hit = run_flow_from_logic(net, opts)
    assert res_hit.cache_hits["bitstream"] is True

    monkeypatch.setattr(chipdb_mod, "CHIPDB_FORMAT_VERSION", 999)
    res_miss = run_flow_from_logic(net, opts)
    assert res_miss.cache_hits["bitstream"] is False
    assert res_miss.bitstream  # still produces a stream


def test_content_hash_differs_across_archs():
    a = build_chipdb(DEFAULT_ARCH, 3)
    b = build_chipdb(replace(DEFAULT_ARCH, channel_width=10), 3)
    c = build_chipdb(DEFAULT_ARCH, 4)
    assert len({a.content_hash(), b.content_hash(),
                c.content_hash()}) == 3


def test_tile_lookup_errors_are_structured():
    db = build_chipdb(DEFAULT_ARCH, 2)
    with pytest.raises(ChipDbError):
        db.tile_at("clb", 99, 1)
    with pytest.raises(ChipDbError):
        ChipDb.from_json("{}")
