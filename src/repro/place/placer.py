"""VPR-style simulated-annealing placement.

Implements the published VPR placer: bounding-box wirelength cost with
the pin-count crossing correction q(n), an adaptive temperature
schedule driven by the move acceptance rate, a shrinking move-range
limit (Rlim), and the standard exit criterion
``T < 0.005 * cost / n_nets``.

Blocks are the packed clusters plus one IO pad block per primary
input/output; sites come from the
:class:`~repro.arch.fabric.FabricGrid`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter

from .. import obs
from ..arch.fabric import FabricGrid, Site
from ..arch.params import ArchParams
from ..pack.cluster import ClusteredNetlist

__all__ = ["Placement", "place", "wirelength_cost", "CROSSING_FACTOR"]

#: VPR's q(n) crossing-count correction for nets with n terminals.
CROSSING_FACTOR = [
    1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385,
    1.3991, 1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304,
    1.7709, 1.8114, 1.8519, 1.8924,
]


def _q(n_pins: int) -> float:
    if n_pins < len(CROSSING_FACTOR):
        return CROSSING_FACTOR[n_pins]
    return 2.79 + 0.02616 * (n_pins - 50)


@dataclass
class Placement:
    """Result of placement: block name -> site."""

    arch: ArchParams
    grid_size: int
    loc: dict[str, Site] = field(default_factory=dict)
    cost: float = 0.0
    nets: dict[str, dict] = field(default_factory=dict)

    def site_of(self, block: str) -> Site:
        return self.loc[block]

    def stats(self) -> dict[str, float]:
        return {"grid": self.grid_size, "blocks": len(self.loc),
                "nets": len(self.nets), "bbox_cost": round(self.cost, 3)}


def _net_bbox_cost(placement: dict[str, Site],
                   net: dict) -> float:
    blocks = [net["driver"], *net["sinks"]]
    xs = [placement[b].x for b in blocks]
    ys = [placement[b].y for b in blocks]
    span = (max(xs) - min(xs) + 1) + (max(ys) - min(ys) + 1)
    return _q(len(blocks)) * span


def wirelength_cost(placement: dict[str, Site],
                    nets: dict[str, dict]) -> float:
    """Total bounding-box cost of a placement."""
    return sum(_net_bbox_cost(placement, net) for net in nets.values())


class _IncrementalCost:
    """Bounding-box cost over integer block ids and coordinate arrays.

    ``x`` and ``y`` are every block's live coordinates, indexed by
    block id (``loc`` order).  The placer writes a tentative move into
    them and calls :meth:`trial` with the affected nets: each affected
    net's bbox is recomputed from the arrays (two-block nets take a
    fast path) into a scratch list, and the cost delta returned.
    :meth:`commit` keeps the scratch costs once the move is accepted;
    a rejected move only restores the coordinates.

    Net ids are assigned in sorted-name order and ``nets_of[b]`` is
    block ``b``'s ascending net-id tuple, so deltas sum over the
    affected nets in the reference model's ``sorted(affected)`` order;
    spans stay python ints and each net costs the same ``q * span``
    product, so every delta and total is bit-identical to recomputing
    from scratch (the reference model lives in
    ``tests/oracles/place.py``).
    """

    def __init__(self, loc: dict[str, Site], nets: dict[str, dict]):
        names = sorted(nets)
        idx = {n: i for i, n in enumerate(names)}
        bid = {b: i for i, b in enumerate(loc)}
        self.x = [s.x for s in loc.values()]
        self.y = [s.y for s in loc.values()]
        self.q: list[float] = []
        # Per net: its two blocks (a one-block net repeats it), or an
        # itemgetter over its three or more distinct blocks.
        self.pins: list = []
        nets_of: list[list[int]] = [[] for _ in bid]
        for i, name in enumerate(names):
            net = nets[name]
            pins = [net["driver"], *net["sinks"]]
            self.q.append(_q(len(pins)))
            uniq = sorted({bid[b] for b in pins})
            self.pins.append((uniq[0], uniq[-1]) if len(uniq) <= 2
                             else itemgetter(*uniq))
            for b in uniq:
                nets_of[b].append(i)
        self.nets_of = [tuple(ids) for ids in nets_of]
        # Initial costs: a committed trial of every net from zero.
        self.cost = [0.0] * len(names)
        self.evals = 0
        every = range(len(names))
        self.trial(every)
        self.commit(every)
        self.evals = 0
        # Totals sum in nets-dict insertion order, the same order as
        # wirelength_cost().
        self._order = [idx[n] for n in nets]

    def trial(self, affected) -> float:
        """Cost delta of the coordinates now in ``x`` and ``y``."""
        self.evals += len(affected)
        x = self.x
        y = self.y
        q = self.q
        pins = self.pins
        cost = self.cost
        new = self._new = []
        delta = 0.0
        for i in affected:
            p = pins[i]
            if p.__class__ is tuple:
                a, b = p
                c = q[i] * (abs(x[a] - x[b]) + abs(y[a] - y[b]) + 2)
            else:
                xs = p(x)
                ys = p(y)
                c = q[i] * ((max(xs) - min(xs) + 1)
                            + (max(ys) - min(ys) + 1))
            new.append(c)
            delta += c - cost[i]
        return delta

    def commit(self, affected) -> None:
        """Keep the last trial's net costs: its move was accepted."""
        cost = self.cost
        for i, c in zip(affected, self._new):
            cost[i] = c

    def total(self) -> float:
        c = 0.0
        cost = self.cost
        for i in self._order:
            c += cost[i]
        return c


class _Board:
    """Who sits where, over integer block ids (``loc`` order).

    The first ``n_clb`` blocks of ``loc`` are CLBs and occupy a flat
    grid ``occ[x * stride + y]`` (-1 when empty); IO pad ``b`` sits on
    ``io_sites[site_of[b]]`` and ``free_io`` lists the empty IO site
    indices.  ``movable`` holds the blocks on some net, CLBs first:
    ``n_movable_clb`` of them, then ``pads``.
    """

    def __init__(self, size: int, loc: dict[str, Site], n_clb: int,
                 io_sites: list[Site], movable: list[int]):
        self.size = size
        self.stride = size + 1
        self.occ = [-1] * (self.stride * self.stride)
        sites = list(loc.values())
        for b, s in enumerate(sites[:n_clb]):
            self.occ[s.x * self.stride + s.y] = b
        # IO pad j of loc sits on io_sites[j]; the rest are free.
        n_io = len(sites) - n_clb
        self.site_of = [-1] * n_clb + list(range(n_io))
        self.free_io = list(range(n_io, len(io_sites)))
        self.io_sites = io_sites
        self.io_x = [s.x for s in io_sites]
        self.io_y = [s.y for s in io_sites]
        self.n_clb = n_clb
        self.movable = movable
        self.n_movable_clb = sum(b < n_clb for b in movable)
        self.pads = movable[self.n_movable_clb:]

    def loc(self, names: list[str], x: list[int],
            y: list[int]) -> dict[str, Site]:
        return {name: (Site("clb", x[b], y[b]) if b < self.n_clb
                       else self.io_sites[self.site_of[b]])
                for b, name in enumerate(names)}


def place(cn: ClusteredNetlist, arch: ArchParams, *,
          grid_size: int | None = None, seed: int = 1,
          effort: float = 1.0) -> Placement:
    """Place a clustered netlist; returns the final :class:`Placement`.

    ``effort`` scales the moves-per-temperature count (1.0 = the VPR
    default ``10 * n_blocks^1.33``).
    """
    rng = random.Random(seed)
    nets = cn.nets()

    io_blocks = ([f"pi:{p}" for p in cn.inputs]
                 + [f"po:{p}" for p in cn.outputs])
    clb_blocks = [c.name for c in cn.clusters]

    if grid_size is None:
        grid_size = arch.grid_size_for(len(clb_blocks), len(io_blocks))
    grid = FabricGrid(arch, grid_size)

    clb_sites = grid.clb_sites()
    io_sites = grid.io_sites()
    if len(clb_blocks) > len(clb_sites):
        raise ValueError(f"{len(clb_blocks)} CLBs do not fit a "
                         f"{grid_size}x{grid_size} grid")
    if len(io_blocks) > len(io_sites):
        raise ValueError("not enough IO sites")

    # Random initial placement.
    rng.shuffle(clb_sites)
    rng.shuffle(io_sites)
    loc: dict[str, Site] = {}
    for b, s in zip(clb_blocks, clb_sites):
        loc[b] = s
    for b, s in zip(io_blocks, io_sites):
        loc[b] = s

    model = _IncrementalCost(loc, nets)
    cost = model.total()

    # Blocks on no net never move.
    blocks = list(loc)
    movable = [b for b, ids in enumerate(model.nets_of) if ids]
    if not movable or not nets:
        obs.emit("place.anneal", blocks=len(blocks), nets=len(nets),
                 grid=grid_size, seed=seed, temps=0, moves=0,
                 accepted=0, cost=round(cost, 3))
        return Placement(arch, grid_size, loc, cost, nets)
    board = _Board(grid_size, loc, len(clb_blocks), io_sites, movable)

    # The annealer is the flow's hottest loop; the span aggregates its
    # totals as attributes (no per-move tracer work -- plain local
    # ints, so tracing overhead is independent of effort).
    with obs.span("place.anneal", blocks=len(blocks), nets=len(nets),
                  grid=grid_size, seed=seed) as sp:
        # Initial temperature: VPR uses 20 * std-dev of random deltas.
        deltas = _try_moves(rng, board, model, min(50, 5 * len(movable)),
                            t=math.inf, r=grid_size, commit_always=True)
        for d in deltas:
            cost += d
        std = (sum(d * d for d in deltas) / len(deltas)) ** 0.5 \
            if deltas else 1.0
        t = 20.0 * max(std, 1e-6)

        rlim = float(grid_size)
        moves_per_t = max(10, int(effort * 10 * len(movable) ** (4 / 3)))
        n_temps = n_moves = n_accepted = 0

        while t >= 0.005 * max(cost, 1e-9) / len(nets):
            accepted = len(_try_moves(rng, board, model, moves_per_t,
                                      t=t, r=max(1, int(rlim))))
            rate = accepted / moves_per_t
            n_temps += 1
            n_moves += moves_per_t
            n_accepted += accepted
            if rate > 0.96:
                t *= 0.5
            elif rate > 0.8:
                t *= 0.9
            elif rate > 0.15 and rlim > 1.0:
                t *= 0.95
            else:
                t *= 0.8
            rlim = min(max(1.0, rlim * (1.0 - 0.44 + rate)),
                       float(grid_size))
            # Periodic full recompute to cancel floating-point drift.
            cost = model.total()

        loc = board.loc(blocks, model.x, model.y)
        cost = wirelength_cost(loc, nets)
        sp.set_attr(temps=n_temps, moves=n_moves, accepted=n_accepted,
                    cost=round(cost, 3))
    ms = obs.metrics.metric_set()
    ms.counter("place.moves", n_moves)
    ms.gauge("place.bbox_cost", round(cost, 3))
    ms.counter("place.incremental_evals", model.evals)
    return Placement(arch, grid_size, loc, cost, nets)


def _try_moves(rng: random.Random, board: _Board, model, n: int, *,
               t: float, r: int,
               commit_always: bool = False) -> list[float]:
    """Propose ``n`` moves/swaps; returns the accepted deltas in order.

    A CLB moves by up to ``r`` sites per axis, an IO pad to any free IO
    site or onto another pad.  Every draw from ``rng`` matches the
    ``Site``-based annealer this replaced: the mover's index into
    ``movable``; for a CLB two offsets in ``[-r, r]``, a move onto its
    own site proposing nothing; for a pad one index into the pool of
    free IO sites (free-list order) followed by the other movable pads
    (``movable`` order), which is never built; and ``random()`` only to
    accept an uphill move, never when ``commit_always``.

    Each integer below a bound ``m`` is drawn as CPython's
    ``Random.choice`` and ``Random.randint`` draw it (``_randbelow``):
    ``getrandbits(m.bit_length())``, redrawn while ``>= m``.  So the
    stream, and with it every placement, is the one those calls give.
    Every bound is at least 1 when drawn, since ``getrandbits(0)`` is
    always 0 and a zero bound would redraw forever: ``movable`` is never
    empty, ``2r + 1 >= 3``, and a pad draws only from a non-empty pool.
    """
    x = model.x
    y = model.y
    nets_of = model.nets_of
    trial = model.trial
    commit = model.commit
    size = board.size
    stride = board.stride
    occ = board.occ
    io_x = board.io_x
    io_y = board.io_y
    site_of = board.site_of
    free = board.free_io
    movable = board.movable
    n_clb = board.n_movable_clb
    pads = board.pads
    exp = math.exp
    getrandbits = rng.getrandbits
    n_movable = len(movable)
    k_movable = n_movable.bit_length()
    span = 2 * r + 1
    k_span = span.bit_length()
    # Every move takes one site off the free list and puts one back, so
    # the pad pool's size is fixed for the whole call.
    nf = len(free)
    n_pool = nf + len(pads) - 1
    k_pool = n_pool.bit_length()
    accepted: list[float] = []
    for _ in range(n):
        i = getrandbits(k_movable)
        while i >= n_movable:
            i = getrandbits(k_movable)
        b = movable[i]
        sx = x[b]
        sy = y[b]
        if i < n_clb:
            dx = getrandbits(k_span)
            while dx >= span:
                dx = getrandbits(k_span)
            dy = getrandbits(k_span)
            while dy >= span:
                dy = getrandbits(k_span)
            tx = min(max(1, sx + dx - r), size)
            ty = min(max(1, sy + dy - r), size)
            if tx == sx and ty == sy:
                continue
            o = occ[tx * stride + ty]
        else:
            if not n_pool:
                continue
            k = getrandbits(k_pool)
            while k >= n_pool:
                k = getrandbits(k_pool)
            if k < nf:
                dst = free[k]
                o = -1
            else:
                # The other pads: ``pads`` without the mover itself,
                # which is ``pads[i - n_clb]``.
                k -= nf
                o = pads[k + 1 if k >= i - n_clb else k]
                dst = site_of[o]
            tx = io_x[dst]
            ty = io_y[dst]
        x[b] = tx
        y[b] = ty
        if o < 0:
            affected = nets_of[b]
        else:
            x[o] = sx
            y[o] = sy
            affected = sorted({*nets_of[b], *nets_of[o]})
        delta = trial(affected)
        if commit_always or delta <= 0 or rng.random() < exp(-delta / t):
            commit(affected)
            accepted.append(delta)
            if i < n_clb:
                occ[sx * stride + sy] = o
                occ[tx * stride + ty] = b
            else:
                src = site_of[b]
                site_of[b] = dst
                if o < 0:
                    del free[k]
                    free.append(src)
                else:
                    site_of[o] = src
        else:
            x[b] = sx
            y[b] = sy
            if o >= 0:
                x[o] = tx
                y[o] = ty
            elif i >= n_clb:
                # The free list's order is part of the draw: a rejected
                # move to a free site leaves that site last, as the
                # original trial-then-revert of the list did.
                del free[k]
                free.append(dst)
    return accepted
