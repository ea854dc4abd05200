"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *arbitrary* inputs, not just the curated
cases: format round-trips, minimisation semantics, mapping equivalence,
packing legality, bitstream codec identity.
"""

import pickle
import random
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arch import ArchParams, generate_arch_file, parse_arch_file
from repro.bench import random_logic
from repro.circuit.technology import STM018
from repro.exp import JobSpec, ParallelRunner, ResultCache
from repro.exp.tasks import task
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.logic import Cube, LogicNetwork
from repro.pack import pack_netlist
from repro.synth import optimize_and_map
from repro.synth.espresso import minimize_cover


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def covers(draw, max_inputs=5, max_cubes=6):
    n = draw(st.integers(1, max_inputs))
    cubes = draw(st.lists(
        st.text(alphabet="01-", min_size=n, max_size=n),
        min_size=0, max_size=max_cubes))
    return n, cubes


@st.composite
def small_networks(draw):
    seed = draw(st.integers(0, 10 ** 6))
    n_pi = draw(st.integers(3, 8))
    n_nodes = draw(st.integers(5, 35))
    registered = draw(st.booleans())
    return random_logic("prop", n_pi=n_pi, n_po=min(4, n_nodes),
                        n_nodes=n_nodes, seed=seed,
                        registered=registered)


def _truth_set(cover, n):
    out = set()
    for m in range(1 << n):
        mt = "".join(str((m >> i) & 1) for i in range(n))
        if any(Cube.covers(c, mt) for c in cover):
            out.add(m)
    return out


# ---------------------------------------------------------------------------
# Espresso
# ---------------------------------------------------------------------------

class TestEspressoProperties:
    @settings(max_examples=100, deadline=None)
    @given(covers())
    def test_minimise_preserves_truth_table(self, nc):
        n, cubes = nc
        out = minimize_cover(cubes, n)
        assert _truth_set(out, n) == _truth_set(cubes, n)

    @settings(max_examples=50, deadline=None)
    @given(covers())
    def test_minimise_is_idempotent(self, nc):
        n, cubes = nc
        once = minimize_cover(cubes, n)
        twice = minimize_cover(once, n)
        assert _truth_set(once, n) == _truth_set(twice, n)
        assert len(twice) <= len(once)

    @settings(max_examples=50, deadline=None)
    @given(covers())
    def test_no_cube_is_contained_in_another(self, nc):
        n, cubes = nc
        out = minimize_cover(cubes, n)
        for i, a in enumerate(out):
            for j, b in enumerate(out):
                if i != j:
                    assert not Cube.contains(a, b)


# ---------------------------------------------------------------------------
# BLIF round-trip
# ---------------------------------------------------------------------------

class TestBlifProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_networks())
    def test_roundtrip_behaviour(self, net):
        net2 = parse_blif(write_blif(net))
        rng = random.Random(0)
        vecs = [{i: rng.randint(0, 1) for i in net.inputs}
                for _ in range(8)]
        assert net.simulate(vecs) == net2.simulate(vecs)

    @settings(max_examples=25, deadline=None)
    @given(small_networks())
    def test_roundtrip_stats(self, net):
        net2 = parse_blif(write_blif(net))
        assert net2.stats() == net.stats()


# ---------------------------------------------------------------------------
# Mapping and packing
# ---------------------------------------------------------------------------

class TestMapPackProperties:
    @settings(max_examples=12, deadline=None)
    @given(small_networks(), st.integers(3, 6))
    def test_mapping_equivalence_any_k(self, net, k):
        res = optimize_and_map(net, k)
        assert res.network.is_k_feasible(k)
        rng = random.Random(1)
        vecs = [{i: rng.randint(0, 1) for i in net.inputs}
                for _ in range(10)]
        assert net.simulate(vecs) == res.network.simulate(vecs)

    @settings(max_examples=10, deadline=None)
    @given(small_networks(), st.integers(2, 8), st.integers(6, 18))
    def test_packing_always_legal(self, net, n, i):
        assume(i >= 4)
        mapped = optimize_and_map(net, 4).network
        cn = pack_netlist(mapped, n=n, i=i, k=4)
        for c in cn.clusters:
            assert len(c.bles) <= n
            assert len(c.external_inputs()) <= i
        packed = sorted(b.name for c in cn.clusters for b in c.bles)
        assert len(packed) == len(set(packed))


# ---------------------------------------------------------------------------
# DUTYS round-trip
# ---------------------------------------------------------------------------

class TestArchFileProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(3, 6), st.integers(4, 40),
           st.sampled_from([1.0, 4.0, 10.0, 16.0, 64.0]))
    def test_roundtrip(self, n, k, w, sw):
        a = ArchParams(n=n, k=k, channel_width=w, switch_width_mult=sw)
        b = parse_arch_file(generate_arch_file(a))
        assert (b.n, b.k, b.channel_width) == (n, k, w)
        assert b.switch_width_mult == sw
        assert b.inputs_per_clb == a.inputs_per_clb


# ---------------------------------------------------------------------------
# Experiment-engine result cache
# ---------------------------------------------------------------------------

@task("_prop_echo")
def _prop_echo(**params):
    """Test-only job kind: its result is its own parameter dict."""
    return dict(params)


#: JSON-safe scalars as they appear in experiment row dicts.
_scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-10 ** 9, 10 ** 9),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)

_row_dicts = st.lists(
    st.dictionaries(st.text(min_size=1, max_size=10), _scalars,
                    max_size=5),
    max_size=5)

_spec_params = st.dictionaries(
    st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
    _scalars, max_size=5)


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(_spec_params)
    def test_same_spec_same_key(self, params):
        a = JobSpec.make("fig_sweep_batch", tech=STM018, **params)
        b = JobSpec.make("fig_sweep_batch", tech=STM018, **params)
        assert a.key() == b.key()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.5,
                     allow_nan=False))
    def test_perturbed_technology_param_misses(self, eps):
        base = JobSpec.make("fig_sweep_batch", points=[[2.0, 4]],
                            tech=STM018)
        perturbed = JobSpec.make(
            "fig_sweep_batch", points=[[2.0, 4]],
            tech=STM018.scaled(vdd=STM018.vdd * (1.0 + eps)))
        assert base.key() != perturbed.key()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=100.0,
                     allow_nan=False))
    def test_perturbed_spec_field_misses(self, delta):
        base = JobSpec.make("fig_sweep_batch", points=[[2.0, 4]])
        moved = JobSpec.make("fig_sweep_batch",
                             points=[[2.0 + delta, 4]])
        assert base.key() != moved.key()

    @settings(max_examples=25, deadline=None)
    @given(_spec_params)
    def test_same_spec_hits_with_bit_identical_result(self, params):
        spec = JobSpec.make("_prop_echo", **params)
        with tempfile.TemporaryDirectory() as d:
            runner = ParallelRunner(jobs=1, cache=ResultCache(d))
            first, = runner.run([spec])
            second, = runner.run([spec])
            assert not first.cached and second.cached
            assert pickle.dumps(first.value) == pickle.dumps(
                second.value)

    @settings(max_examples=25, deadline=None)
    @given(_row_dicts)
    def test_disk_roundtrip_preserves_row_dicts(self, rows):
        spec = JobSpec.make("_prop_echo", n=len(rows))
        key = spec.key()
        with tempfile.TemporaryDirectory() as d:
            ResultCache(d).put(key, rows)
            hit, back = ResultCache(d).get(key)
        assert hit
        assert pickle.dumps(back) == pickle.dumps(rows)


# ---------------------------------------------------------------------------
# Bitstream codec
# ---------------------------------------------------------------------------

class TestBitstreamProperties:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_pack_unpack_identity_random_configs(self, seed):
        from repro.bitgen.bitstream import (SwitchBoxConfig, _empty_clb,
                                            pack_bitstream,
                                            unpack_bitstream,
                                            BitstreamConfig, IoConfig)
        from repro.arch import DEFAULT_ARCH, FabricGrid

        rng = random.Random(seed)
        arch = DEFAULT_ARCH
        size = rng.randint(1, 3)
        cfg = BitstreamConfig(arch=arch, size=size)
        w = arch.channel_width
        for x in range(1, size + 1):
            for y in range(1, size + 1):
                clb = _empty_clb(arch)
                for j in range(arch.n):
                    clb.lut_bits[j] = [rng.randint(0, 1)
                                       for _ in range(16)]
                    clb.use_ff[j] = rng.randint(0, 1)
                    clb.xbar_sel[j] = [rng.randint(0, 31)
                                       for _ in range(arch.k)]
                clb.clb_clk_en = rng.randint(0, 1)
                clb.out_src = [rng.randint(0, 31)
                               for _ in range(arch.clb_outputs)]
                cfg.clbs[(x, y)] = clb
        for cx in range(size + 1):
            for cy in range(size + 1):
                cfg.sbs[(cx, cy)] = SwitchBoxConfig(
                    [[rng.randint(0, 1) for _ in range(6)]
                     for _ in range(w)])
        for s in FabricGrid(arch, size).io_sites():
            cfg.ios[(s.x, s.y, s.sub)] = IoConfig(
                rng.randint(0, 2),
                [rng.randint(0, 1) for _ in range(w)])

        back = unpack_bitstream(pack_bitstream(cfg), arch)
        assert back.clbs == cfg.clbs
        assert back.sbs == cfg.sbs
        assert back.ios == cfg.ios
