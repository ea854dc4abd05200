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

import numpy as np

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
    """O(pins-moved) cost model with per-net running bbox bounds.

    Each net keeps one flat record ``[min_x, c_min_x, max_x, c_max_x,
    min_y, c_min_y, max_y, c_max_y, cost]`` where the ``c_*`` entries
    count how many member blocks sit on that boundary; a move updates
    only the nets touching the moved blocks in O(1), rescanning an
    axis over the net's members only when a boundary count drops to
    zero.  Net ids are assigned in sorted-name order so iterating ids
    ascending reproduces a from-scratch model's ``sorted(affected)``
    float-summation order exactly; spans stay python ints and costs
    are the same ``q * span`` product, so every delta is bit-identical
    to recomputing each affected net's bbox (the reference model lives
    in ``tests/oracles/place.py``).
    """

    def __init__(self, loc: dict[str, Site], nets: dict[str, dict]):
        names = sorted(nets)
        self.idx = {n: i for i, n in enumerate(names)}
        self.bid = {b: i for i, b in enumerate(loc)}
        self.bx = [s.x for s in loc.values()]
        self.by = [s.y for s in loc.values()]
        nn = len(names)
        self.q = [0.0] * nn
        self.members: list[list[int]] = [[] for _ in range(nn)]
        self.bounds: list[list] = [[] for _ in range(nn)]
        self._by_block: list[list[int]] = [[] for _ in self.bid]
        for name, net in nets.items():
            i = self.idx[name]
            pins = [net["driver"], *net["sinks"]]
            self.q[i] = _q(len(pins))
            uniq = sorted({self.bid[b] for b in pins})
            self.members[i] = uniq
            for b in uniq:
                self._by_block[b].append(i)
            xs = [self.bx[b] for b in uniq]
            ys = [self.by[b] for b in uniq]
            mnx, mxx = min(xs), max(xs)
            mny, mxy = min(ys), max(ys)
            span = (mxx - mnx + 1) + (mxy - mny + 1)
            self.bounds[i] = [mnx, xs.count(mnx), mxx, xs.count(mxx),
                              mny, ys.count(mny), mxy, ys.count(mxy),
                              self.q[i] * span]
        # Drift-cancel totals sum in nets-dict insertion order, the
        # same order as wirelength_cost().
        self._order = [self.idx[n] for n in nets]
        self.evals = 0
        self._snap: list[tuple[int, list]] = []

    def affected(self, block: str, other: str | None) -> list[int]:
        s = set(self._by_block[self.bid[block]])
        if other is not None:
            s |= set(self._by_block[self.bid[other]])
        return sorted(s)

    def trial(self, affected: list[int], moves) -> float:
        self.evals += len(affected)
        bounds = self.bounds
        bx = self.bx
        by = self.by
        q = self.q
        snap = [(i, bounds[i].copy()) for i in affected]
        self._snap = snap
        # Apply one move at a time so any axis rescan sees coordinates
        # consistent with the bounds being rebuilt.
        for blk, old_site, new_site in moves:
            bid = self.bid[blk]
            ox = old_site.x
            oy = old_site.y
            wx = new_site.x
            wy = new_site.y
            bx[bid] = wx
            by[bid] = wy
            for i in self._by_block[bid]:
                b = bounds[i]
                changed = False
                if wx != ox:
                    m = b[0]
                    M = b[2]
                    cm = b[1]
                    cM = b[3]
                    if ox == m:
                        cm -= 1
                    if ox == M:
                        cM -= 1
                    # A stale m/M is still a valid lower/upper bound
                    # of the remaining members, so these comparisons
                    # hold even when a count just dropped to zero.
                    if wx < m:
                        b[0] = wx
                        cm = 1
                    elif wx == m:
                        cm += 1
                    if wx > M:
                        b[2] = wx
                        cM = 1
                    elif wx == M:
                        cM += 1
                    if cm <= 0 or cM <= 0:
                        xs = [bx[mm] for mm in self.members[i]]
                        mn = min(xs)
                        b[0] = mn
                        cm = xs.count(mn)
                        mx = max(xs)
                        b[2] = mx
                        cM = xs.count(mx)
                    b[1] = cm
                    b[3] = cM
                    changed = True
                if wy != oy:
                    m = b[4]
                    M = b[6]
                    cm = b[5]
                    cM = b[7]
                    if oy == m:
                        cm -= 1
                    if oy == M:
                        cM -= 1
                    if wy < m:
                        b[4] = wy
                        cm = 1
                    elif wy == m:
                        cm += 1
                    if wy > M:
                        b[6] = wy
                        cM = 1
                    elif wy == M:
                        cM += 1
                    if cm <= 0 or cM <= 0:
                        ys = [by[mm] for mm in self.members[i]]
                        mn = min(ys)
                        b[4] = mn
                        cm = ys.count(mn)
                        mx = max(ys)
                        b[6] = mx
                        cM = ys.count(mx)
                    b[5] = cm
                    b[7] = cM
                    changed = True
                if changed:
                    b[8] = q[i] * ((b[2] - b[0] + 1)
                                   + (b[6] - b[4] + 1))
        delta = 0.0
        for i, saved in snap:
            delta += bounds[i][8] - saved[8]
        return delta

    def revert(self, affected: list[int], moves) -> None:
        for blk, old_site, _new in moves:
            bid = self.bid[blk]
            self.bx[bid] = old_site.x
            self.by[bid] = old_site.y
        bounds = self.bounds
        for i, saved in self._snap:
            bounds[i][:] = saved

    def total(self) -> float:
        c = 0.0
        bounds = self.bounds
        for i in self._order:
            c += bounds[i][8]
        return c


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

    occupant: dict[tuple, str] = {s.key(): b for b, s in loc.items()}
    free_sites = {"clb": [s for s in clb_sites[len(clb_blocks):]],
                  "io": [s for s in io_sites[len(io_blocks):]]}

    model = _IncrementalCost(loc, nets)
    cost = model.total()

    # Blocks on no net never move.
    on_net = {b for net in nets.values()
              for b in (net["driver"], *net["sinks"])}
    blocks = clb_blocks + io_blocks
    movable = [b for b in blocks if b in on_net]
    if not movable or not nets:
        obs.emit("place.anneal", blocks=len(blocks), nets=len(nets),
                 grid=grid_size, seed=seed, temps=0, moves=0,
                 accepted=0, cost=round(cost, 3))
        return Placement(arch, grid_size, loc, cost, nets)

    # The annealer is the flow's hottest loop; the span aggregates its
    # totals as attributes (no per-move tracer work -- plain local
    # ints, so tracing overhead is independent of effort).
    with obs.span("place.anneal", blocks=len(blocks), nets=len(nets),
                  grid=grid_size, seed=seed) as sp:
        # Initial temperature: VPR uses 20 * std-dev of random deltas.
        deltas = []
        for _ in range(min(50, 5 * len(movable))):
            d = _try_move(rng, loc, occupant, free_sites, movable,
                          grid_size, model,
                          t=float("inf"), rlim=grid_size,
                          commit_always=True)
            if d is not None:
                deltas.append(d)
                cost += d
        std = (sum(d * d for d in deltas) / len(deltas)) ** 0.5 \
            if deltas else 1.0
        t = 20.0 * max(std, 1e-6)

        rlim = float(grid_size)
        moves_per_t = max(10, int(effort * 10 * len(movable) ** (4 / 3)))
        n_temps = n_moves = n_accepted = 0

        while t >= 0.005 * max(cost, 1e-9) / len(nets):
            accepted = 0
            for _ in range(moves_per_t):
                d = _try_move(rng, loc, occupant, free_sites, movable,
                              grid_size, model, t=t, rlim=rlim)
                if d is not None:
                    accepted += 1
                    cost += d
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

        cost = wirelength_cost(loc, nets)
        sp.set_attr(temps=n_temps, moves=n_moves, accepted=n_accepted,
                    cost=round(cost, 3))
    ms = obs.metrics.metric_set()
    ms.counter("place.moves", n_moves)
    ms.gauge("place.bbox_cost", round(cost, 3))
    ms.counter("place.incremental_evals", model.evals)
    return Placement(arch, grid_size, loc, cost, nets)


def _try_move(rng, loc, occupant, free_sites, movable, grid_size,
              model, *, t, rlim,
              commit_always: bool = False) -> float | None:
    """Propose one move/swap; returns the committed delta or None."""
    block = rng.choice(movable)
    site = loc[block]
    kind = site.kind

    # Candidate target within rlim (IO pads move along the perimeter
    # freely; rlim restricts CLB moves).
    if kind == "clb":
        r = max(1, int(rlim))
        nx = min(max(1, site.x + rng.randint(-r, r)), grid_size)
        ny = min(max(1, site.y + rng.randint(-r, r)), grid_size)
        target = Site("clb", nx, ny)
        if target.key() == site.key():
            return None
    else:
        pool = free_sites["io"] + [loc[b] for b in movable
                                   if loc[b].kind == "io" and b != block]
        if not pool:
            return None
        target = rng.choice(pool)

    other = occupant.get(target.key())
    affected = model.affected(block, other)

    # Apply tentatively.
    loc[block] = target
    occupant[target.key()] = block
    if other is not None:
        loc[other] = site
        occupant[site.key()] = other
    else:
        del occupant[site.key()]
        if target in free_sites[kind]:
            free_sites[kind].remove(target)
        free_sites[kind].append(site)

    moves = [(block, site, target)]
    if other is not None:
        moves.append((other, target, site))
    delta = model.trial(affected, moves)

    accept = (commit_always or delta <= 0
              or rng.random() < math.exp(-delta / t))
    if accept:
        return delta

    # Revert.
    loc[block] = site
    occupant[site.key()] = block
    if other is not None:
        loc[other] = target
        occupant[target.key()] = other
    else:
        del occupant[target.key()]
        if site in free_sites[kind]:
            free_sites[kind].remove(site)
        free_sites[kind].append(target)
    model.revert(affected, moves)
    return None
