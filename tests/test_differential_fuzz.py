"""Differential fuzzing: random netlists through the complete flow.

Each case seeds a random multi-level logic network, pushes it through
the *entire* flow -- technology mapping, packing, placement, routing,
bitstream generation -- then checks THREE oracles against a
logic-level simulation of the ORIGINAL source network:

1. the switch-box flood decoder of :mod:`tests.oracles.devicesim`,
   booted from nothing but the unpacked bitstream -- the independent
   decoder, which interprets the configuration cycle by cycle with
   code of its own;
2. the product's chipdb decoder, both as the device simulator booted
   from the bitstream and as the disassembler's recovered netlist
   simulated at logic level (the device simulator runs that netlist);
3. byte-exact ``unpack -> repack`` of the bitstream itself.

Any divergence pins a bug somewhere between synthesis and
configuration decode, which is exactly the class of bug unit tests on
individual stages cannot see -- and the two decoders are independent
implementations, so a shared-misreading escape needs the same bug
twice.

The sweep is marked ``slow`` (~20 flows); the fast suite runs a
two-seed smoke version of the same oracle.
"""

import random

import pytest

from repro.arch import ArchParams
from repro.bench import random_logic
from repro.bitgen import disassemble, pack_bitstream, unpack_bitstream
from repro.bitgen.devicesim import (DeviceSimulator,
                                    pad_map_from_placement)
from repro.flow.flow import FlowOptions, run_flow_from_logic
from tests.oracles.devicesim import FloodDeviceSimulator

N_CASES = 20


def _case_params(seed: int) -> dict:
    """Deterministic per-seed shape of the fuzzed network."""
    rng = random.Random(0xF0 + seed)
    return {
        "n_pi": rng.randint(4, 9),
        "n_po": rng.randint(2, 5),
        "n_nodes": rng.randint(12, 45),
        "max_fanin": rng.randint(2, 5),
        "registered": seed % 3 != 0,
    }


def _assert_traces_match(got, want, what: str, seed: int,
                         params: dict) -> None:
    assert got == want, (
        f"{what} diverges from source network for seed {seed} "
        f"({params}): first mismatch at cycle "
        f"{next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)}")


def _run_case(seed: int) -> None:
    params = _case_params(seed)
    net = random_logic(f"fuzz{seed}", seed=seed, **params)
    res = run_flow_from_logic(
        net, FlowOptions(seed=1 + seed % 4, place_effort=0.3,
                         use_cache=False))
    assert res.routing is not None and res.routing.success

    # Oracle 1: boot the flood decoder from the bitstream alone.
    cfg = unpack_bitstream(res.bitstream, res.placement.arch)
    pad_map = pad_map_from_placement(res.placement)
    rng = random.Random(1000 + seed)
    vecs = [{pi: rng.randint(0, 1) for pi in net.inputs}
            for _ in range(12)]
    want = net.simulate(vecs)
    _assert_traces_match(FloodDeviceSimulator(cfg, pad_map).run(vecs),
                         want, "flood decoder", seed, params)

    # Oracle 2: the product decoder -- the device booted from the
    # bitstream, then the disassembled netlist simulated directly.
    _assert_traces_match(DeviceSimulator(cfg, pad_map).run(vecs), want,
                         "device", seed, params)
    dis = disassemble(res.bitstream, res.placement.arch, pad_map=pad_map)
    _assert_traces_match(dis.network.simulate(vecs), want,
                         "disassembled netlist", seed, params)

    # Oracle 3: unpack -> repack must be byte-for-byte lossless.
    assert pack_bitstream(cfg) == res.bitstream, (
        f"unpack->repack is not byte-identical for seed {seed}")


def test_differential_smoke():
    """Two-seed fast version so every push exercises the oracle."""
    for seed in (0, 1):
        _run_case(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(N_CASES))
def test_differential_fuzz(seed):
    _run_case(seed)
