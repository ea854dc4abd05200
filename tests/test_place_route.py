"""Tests for the placer (SA) and router (PathFinder)."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch import DEFAULT_ARCH, build_rr_graph
from repro.bench import counter, mcnc_class_suite, random_logic
from repro.flow import FlowOptions
from repro.flow.flow import _format_place, _format_route
from repro.pack import pack_netlist
from repro.place import place, wirelength_cost
from repro.place.placer import CROSSING_FACTOR, _q
from repro.route import route, route_min_channel_width
from repro.route.router import _capacity
from repro.synth import optimize_and_map


RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: SHA-256 of ``_format_place(pl) + repr(pl.cost)`` per suite circuit,
#: placed at the flow defaults (seed 1, effort 1.0).
PLACEMENT_GOLDEN = RESULTS / "placement_sha256.json"

#: SHA-256 of ``_format_route(rr) + repr((rr.success, rr.iterations,
#: rr.overused))`` per suite circuit, routed at the default channel width
#: on its flow-default placement.
ROUTE_GOLDEN = RESULTS / "route_sha256.json"

#: The suite circuits, the ``rand_*`` ones marked slow.
SUITE = [pytest.param(net, id=net.name, marks=(
    pytest.mark.slow if net.name.startswith("rand_") else ()))
    for net in mcnc_class_suite()]


def packed(net):
    return pack_netlist(optimize_and_map(net, 4).network)


@pytest.fixture(scope="module")
def counter_cn():
    return packed(counter(8))


@pytest.fixture(scope="module")
def counter_placed(counter_cn):
    return place(counter_cn, DEFAULT_ARCH, seed=5)


class TestPlacer:
    def test_every_block_placed_once(self, counter_cn, counter_placed):
        pl = counter_placed
        blocks = ([c.name for c in counter_cn.clusters]
                  + [f"pi:{p}" for p in counter_cn.inputs]
                  + [f"po:{p}" for p in counter_cn.outputs])
        assert sorted(pl.loc) == sorted(blocks)
        keys = [s.key() for s in pl.loc.values()]
        assert len(keys) == len(set(keys))   # no overlaps

    def test_clbs_on_clb_sites_ios_on_perimeter(self, counter_cn,
                                                counter_placed):
        pl = counter_placed
        size = pl.grid_size
        for block, site in pl.loc.items():
            if block.startswith(("pi:", "po:")):
                assert site.kind == "io"
                assert (site.x in (0, size + 1)
                        or site.y in (0, size + 1))
            else:
                assert site.kind == "clb"
                assert 1 <= site.x <= size and 1 <= site.y <= size

    def test_cost_matches_recompute(self, counter_placed):
        pl = counter_placed
        assert pl.cost == pytest.approx(
            wirelength_cost(pl.loc, pl.nets), rel=1e-9)

    def test_annealing_beats_random(self, counter_cn):
        from repro.arch.fabric import FabricGrid
        pl = place(counter_cn, DEFAULT_ARCH, seed=7)
        # Average random placement cost on the same grid.
        grid = FabricGrid(DEFAULT_ARCH, pl.grid_size)
        rng = random.Random(0)
        costs = []
        for _ in range(15):
            clb_sites = grid.clb_sites()
            io_sites = grid.io_sites()
            rng.shuffle(clb_sites)
            rng.shuffle(io_sites)
            loc = {}
            clbs = [b for b in pl.loc if not b.startswith(("pi:",
                                                           "po:"))]
            ios = [b for b in pl.loc if b.startswith(("pi:", "po:"))]
            for b, s in zip(clbs, clb_sites):
                loc[b] = s
            for b, s in zip(ios, io_sites):
                loc[b] = s
            costs.append(wirelength_cost(loc, pl.nets))
        assert pl.cost < sum(costs) / len(costs)

    def test_determinism(self, counter_cn):
        a = place(counter_cn, DEFAULT_ARCH, seed=9)
        b = place(counter_cn, DEFAULT_ARCH, seed=9)
        assert a.cost == b.cost
        assert {k: v.key() for k, v in a.loc.items()} == \
            {k: v.key() for k, v in b.loc.items()}

    def test_q_factor_monotone(self):
        vals = [_q(n) for n in range(3, 60)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert CROSSING_FACTOR[4] == pytest.approx(1.0828)

    def test_grid_too_small_rejected(self, counter_cn):
        with pytest.raises(ValueError):
            place(counter_cn, DEFAULT_ARCH, grid_size=1)


def _below(getrandbits, n: int) -> int:
    """The annealer's draw of an integer in ``[0, n)``."""
    k = n.bit_length()
    v = getrandbits(k)
    while v >= n:
        v = getrandbits(k)
    return v


class TestDrawContract:
    """The stdlib behaviour the annealer's direct draws rely on.

    The placer draws by rejection sampling on
    ``getrandbits(n.bit_length())`` in place of ``Random.choice`` over a
    range and ``Random.randint``.  If a Python release changes how those
    draw, this test names the cause; the placement digests would only
    show that every placement moved.
    """

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_choice_and_randint_are_rejection_sampling(self, seed):
        lib = random.Random(seed)
        direct = random.Random(seed)
        for _ in range(40):
            for n in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100):
                assert lib.choice(range(n)) == \
                    _below(direct.getrandbits, n)
            assert lib.random() == direct.random()
            for r in (1, 2, 5, 30):
                assert lib.randint(-r, r) == \
                    _below(direct.getrandbits, 2 * r + 1) - r
            assert lib.random() == direct.random()
        assert lib.getstate() == direct.getstate()


@pytest.fixture(scope="module")
def suite_placement():
    """Flow-default placement of a suite circuit, placed once per module."""
    placed = {}

    def get(net):
        if net.name not in placed:
            opts = FlowOptions()
            arch = opts.arch
            cn = pack_netlist(optimize_and_map(net, arch.k).network,
                              n=arch.n, i=arch.inputs_per_clb, k=arch.k)
            placed[net.name] = place(cn, arch, seed=opts.seed,
                                     effort=opts.place_effort)
        return placed[net.name]
    return get


class TestPlacementGolden:
    """Every suite placement is bit-identical to the recorded one."""

    @pytest.mark.parametrize("net", SUITE)
    def test_suite_placement_digest(self, net, suite_placement):
        golden = json.loads(PLACEMENT_GOLDEN.read_text())
        pl = suite_placement(net)
        text = _format_place(pl) + repr(pl.cost)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            golden[net.name]


class TestRouteGolden:
    """Every suite route (trees in insertion order, iterations, overuse,
    success) is bit-identical to the recorded one."""

    @pytest.mark.parametrize("net", SUITE)
    def test_suite_route_digest(self, net, suite_placement):
        golden = json.loads(ROUTE_GOLDEN.read_text())
        pl = suite_placement(net)
        rr = route(pl, build_rr_graph(FlowOptions().arch, pl.grid_size))
        text = _format_route(rr) + repr((rr.success, rr.iterations,
                                         rr.overused))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            golden[net.name]


class TestRouter:
    def test_routes_counter(self, counter_placed):
        g = build_rr_graph(DEFAULT_ARCH, counter_placed.grid_size)
        rr = route(counter_placed, g)
        assert rr.success
        assert len(rr.trees) == len(counter_placed.nets)
        for name, tree in rr.trees.items():
            assert tree.net == name

    def test_trees_are_connected(self, counter_placed):
        g = build_rr_graph(DEFAULT_ARCH, counter_placed.grid_size)
        rr = route(counter_placed, g)
        for name, tree in rr.trees.items():
            # Walking up from every node must reach the source.
            for node in tree.parents:
                seen = set()
                cur = node
                while cur != -1:
                    assert cur not in seen
                    seen.add(cur)
                    cur = tree.parents[cur]
                assert tree.source in seen

    def test_trees_reach_all_sinks(self, counter_placed):
        g = build_rr_graph(DEFAULT_ARCH, counter_placed.grid_size)
        rr = route(counter_placed, g)
        for name, net in counter_placed.nets.items():
            tree = rr.trees[name]
            for b in net["sinks"]:
                sink = g.sink_of(counter_placed.loc[b])
                assert sink in tree.parents

    def test_no_overuse_on_success(self, counter_placed):
        g = build_rr_graph(DEFAULT_ARCH, counter_placed.grid_size)
        rr = route(counter_placed, g)
        occ = {}
        for tree in rr.trees.values():
            for node in tree.parents:
                occ[node] = occ.get(node, 0) + 1
        for node, n in occ.items():
            if g.nodes[node].kind in ("CHANX", "CHANY", "IPIN",
                                      "OPIN"):
                assert n <= 1, f"node {node} overused"

    def test_min_channel_width_search(self, counter_placed):
        w, rr, g = route_min_channel_width(counter_placed,
                                           DEFAULT_ARCH, w_max=32)
        assert rr.success
        assert 1 <= w <= 32
        # One less track must fail (minimality), unless already at 2.
        if w > 2:
            from dataclasses import replace
            a = replace(DEFAULT_ARCH, channel_width=w - 1)
            g2 = build_rr_graph(a, counter_placed.grid_size)
            try:
                r2 = route(counter_placed, g2, max_iterations=30)
                assert not r2.success
            except RuntimeError:
                pass    # disconnected at tiny width: also a failure

    def test_wirelength_positive(self, counter_placed):
        g = build_rr_graph(DEFAULT_ARCH, counter_placed.grid_size)
        rr = route(counter_placed, g)
        assert rr.total_wirelength(g) > 0

    def test_larger_circuit_routes(self):
        cn = packed(random_logic("r", n_pi=10, n_po=6, n_nodes=80,
                                 seed=2))
        pl = place(cn, DEFAULT_ARCH, seed=2)
        g = build_rr_graph(DEFAULT_ARCH, pl.grid_size)
        rr = route(pl, g)
        assert rr.success

    def test_overuse_matches_recount_after_every_iteration(self):
        # At W=8 this placement needs all 12 PathFinder iterations, so
        # capping the router at k stops it after iteration k with its
        # congestion state as it stands then.
        cn = packed(random_logic("veq", n_pi=6, n_po=4, n_nodes=45,
                                 seed=11))
        pl = place(cn, DEFAULT_ARCH, seed=5, effort=0.5)
        g = build_rr_graph(replace(DEFAULT_ARCH, channel_width=8),
                           pl.grid_size)
        recounts = []
        for k in range(1, 13):
            rr = route(pl, g, max_iterations=k)
            assert rr.iterations == k
            occ = Counter(n for t in rr.trees.values() for n in t.parents)
            recount = sum(1 for n, c in occ.items()
                          if c > _capacity(g, n))
            assert rr.overused == recount
            assert rr.success == (recount == 0)
            recounts.append(recount)
        assert recounts[0] > 0 and recounts[-1] == 0
