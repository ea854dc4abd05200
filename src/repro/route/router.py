"""PathFinder negotiated-congestion routing (the VPR router).

Each net is routed as a Steiner tree over the routing-resource graph:
sinks are connected one at a time by Dijkstra searches seeded with the
net's current partial tree.  Congestion is negotiated across iterations
with the classic PathFinder cost

    cost(n) = base(n) * (1 + h(n)) * p(n)

where ``p`` grows with present overuse (scaled by a pressure factor
that increases every iteration) and ``h`` accumulates historical
overuse.  Routing succeeds when no node is shared illegally.

:func:`route_min_channel_width` performs VPR's binary search for the
minimum channel width that routes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..arch.params import ArchParams
from ..arch.rrgraph import RRGraph, build_rr_graph
from ..place.placer import Placement

__all__ = ["RouteTree", "RoutingResult", "route", "route_min_channel_width"]

_BASE_COST = {"SOURCE": 1.0, "OPIN": 1.0, "CHANX": 1.0, "CHANY": 1.0,
              "IPIN": 0.95, "SINK": 0.0}


@dataclass
class RouteTree:
    """Routed tree of one net: rr-node -> parent rr-node (root: -1)."""

    net: str
    source: int
    parents: dict[int, int] = field(default_factory=dict)

    def nodes(self) -> list[int]:
        return list(self.parents)

    def wirelength(self, g: RRGraph) -> int:
        return sum(1 for n in self.parents
                   if g.nodes[n].kind in ("CHANX", "CHANY"))


@dataclass
class RoutingResult:
    """Outcome of routing a placed design."""

    success: bool
    iterations: int
    trees: dict[str, RouteTree]
    channel_width: int
    overused: int = 0

    def total_wirelength(self, g: RRGraph) -> int:
        return sum(t.wirelength(g) for t in self.trees.values())

    def stats(self, g: RRGraph | None = None) -> dict[str, float]:
        out = {"success": self.success, "iterations": self.iterations,
               "nets": len(self.trees),
               "channel_width": self.channel_width}
        if g is not None:
            out["wirelength"] = self.total_wirelength(g)
        return out


def _capacity(g: RRGraph, idx: int) -> int:
    node = g.nodes[idx]
    if node.kind in ("CHANX", "CHANY", "OPIN", "IPIN"):
        return 1
    # SOURCE/SINK capacities: a CLB can absorb several different nets
    # (one per input pin) and emit several (one per BLE output).
    if node.kind == "SINK":
        return g.arch.inputs_per_clb
    return g.arch.clb_outputs


def route(placement: Placement, g: RRGraph, *,
          max_iterations: int = 40, pres_fac_mult: float = 1.6,
          acc_fac: float = 0.5) -> RoutingResult:
    """Route every net of a placement over the RR graph."""
    with obs.span("route.pathfinder", nets=len(placement.nets),
                  channel_width=g.arch.channel_width) as sp:
        result, searches = _route_all_incremental(
            placement, g, max_iterations=max_iterations,
            pres_fac_mult=pres_fac_mult, acc_fac=acc_fac)
        sp.set_attr(success=result.success,
                    iterations=result.iterations,
                    overused=result.overused)
    ms = obs.metrics.metric_set()
    ms.counter("route.iterations", result.iterations)
    ms.gauge("route.overused", result.overused)
    ms.counter("route.heap_reuse", searches)
    return result


def _route_all_incremental(placement: Placement, g: RRGraph, *,
                           max_iterations: int, pres_fac_mult: float,
                           acc_fac: float
                           ) -> tuple[RoutingResult, int]:
    """PathFinder with persistent cost/search structures.

    Produces routing trees identical to a full-recompute PathFinder
    (the reference lives in ``tests/oracles/route.py``): every float
    reaching the Dijkstra heap is the same python float, so
    relaxations and pops happen in the same order.

    An edge relaxation is one addition, ``d + cost[v]``, over a cached
    cost per node.  Between searches the cache holds:

    * every non-sink ``v``: ``cost[v] == bh[v] * p``, the reference's
      float, with ``bh = base * hist`` and ``p = 1.0 + pres_fac * over``
      where ``over = occ[v] + 1 - cap[v] > 0``, else ``p = 1.0``;
    * every sink: ``inf``, so no search enters a sink it does not
      target (``d + inf`` never improves a distance);
    * the target's entry is set just before its search and reset to
      ``inf`` just after.

    Rip-up and commit refresh the entry of each node whose occupancy
    they change.  ``hist`` and ``pres_fac`` change only between
    iterations, where the whole list is rebuilt in numpy with the same
    per-element float ops, ``(base * hist) * p``, so ``tolist()``
    returns the same python floats.  Each sink search reuses
    preallocated dist/prev arrays (reset via a touched list).  Returns
    the result plus the number of Dijkstra searches served by the
    reused structures (``route.heap_reuse``).
    """
    nets = placement.nets
    terminals: dict[str, tuple[int, list[int]]] = {}
    for name, net in nets.items():
        src_site = placement.loc[net["driver"]]
        src = g.source_of(src_site)
        sinks = [g.sink_of(placement.loc[b]) for b in net["sinks"]]
        terminals[name] = (src, sinks)

    n = g.n_nodes()
    occ = [0] * n
    cap = [_capacity(g, i) for i in range(n)]
    cap_np = np.array(cap, dtype=np.int64)
    base_np = np.array([_BASE_COST[node.kind] for node in g.nodes])
    hist_np = np.ones(n)
    # tolist() yields python floats bit-identical to the per-edge
    # ``_BASE_COST[kind] * hist[v]`` products.
    bh_np = base_np * hist_np
    bh = bh_np.tolist()
    is_sink = [node.kind == "SINK" for node in g.nodes]
    sink_mask = np.array(is_sink)
    edges = [node.edges for node in g.nodes]
    inf = float("inf")
    dist = [inf] * n
    prev = [0] * n
    touched: list[int] = []
    searches = 0
    heappush = heapq.heappush
    heappop = heapq.heappop

    trees: dict[str, RouteTree] = {}
    pres_fac = 0.5
    occ_np = np.zeros(n, dtype=np.int64)
    order = sorted(nets, key=lambda nm: (-len(nets[nm]["sinks"]), nm))

    for it in range(1, max_iterations + 1):
        # The whole cache at this iteration's hist and pres_fac: per
        # element the same ``bh[v] * p`` as the refreshes below.
        over_np = occ_np + 1 - cap_np
        cost_np = bh_np * np.where(over_np > 0, 1.0 + pres_fac * over_np,
                                   1.0)
        cost_np[sink_mask] = inf
        cost = cost_np.tolist()
        for name in order:
            src, sinks = terminals[name]
            old = trees.pop(name, None)
            if old is not None:
                for v in old.parents:
                    occ[v] -= 1
                    if not is_sink[v]:
                        over = occ[v] + 1 - cap[v]
                        cost[v] = bh[v] * (1.0 + (pres_fac * over
                                                  if over > 0 else 0.0))

            tree = RouteTree(name, src, {src: -1})
            seen: set[int] = set()
            remaining = [s for s in sinks
                         if not (s in seen or seen.add(s))]
            for target in remaining:
                searches += 1
                for v in touched:
                    dist[v] = inf
                touched.clear()
                heap: list[tuple[float, int]] = []
                for t_node in tree.parents:
                    dist[t_node] = 0.0
                    touched.append(t_node)
                    heappush(heap, (0.0, t_node))
                over = occ[target] + 1 - cap[target]
                cost[target] = bh[target] * (1.0 + (pres_fac * over
                                                    if over > 0 else 0.0))
                found = False
                while heap:
                    d, u = heappop(heap)
                    if d > dist[u]:
                        continue
                    if u == target:
                        found = True
                        break
                    for v in edges[u]:
                        ndist = d + cost[v]
                        if ndist < dist[v]:
                            dist[v] = ndist
                            prev[v] = u
                            touched.append(v)
                            heappush(heap, (ndist, v))
                cost[target] = inf
                if not found:
                    raise RuntimeError(
                        "routing graph disconnected: sink unreachable "
                        "(channel width too small for even one net?)")
                node = target
                while node not in tree.parents:
                    tree.parents[node] = prev[node]
                    node = prev[node]

            for v in tree.parents:
                occ[v] += 1
                if not is_sink[v]:
                    over = occ[v] + 1 - cap[v]
                    cost[v] = bh[v] * (1.0 + (pres_fac * over
                                              if over > 0 else 0.0))
            trees[name] = tree

        occ_np = np.array(occ, dtype=np.int64)
        over_mask = occ_np > cap_np
        overused = int(np.count_nonzero(over_mask))
        if overused == 0:
            return RoutingResult(True, it, trees,
                                 g.arch.channel_width), searches
        # Per-element identical to the per-node
        # ``hist[i] += acc_fac * (occ[i] - cap[i])`` update.
        hist_np[over_mask] += acc_fac * (occ_np[over_mask]
                                         - cap_np[over_mask])
        bh_np = base_np * hist_np
        bh = bh_np.tolist()
        pres_fac *= pres_fac_mult

    return RoutingResult(False, max_iterations, trees,
                         g.arch.channel_width, overused), searches


def route_min_channel_width(placement: Placement, arch: ArchParams,
                            *, w_min: int = 2, w_max: int = 64,
                            max_iterations: int = 30
                            ) -> tuple[int, RoutingResult, RRGraph]:
    """Binary search for the minimum routable channel width.

    Returns ``(width, result, rr_graph)`` for the smallest width that
    routes successfully.
    """
    from dataclasses import replace

    attempts = 0

    def attempt(w: int):
        nonlocal attempts
        attempts += 1
        a = replace(arch, channel_width=w)
        g = build_rr_graph(a, placement.grid_size)
        try:
            r = route(placement, g, max_iterations=max_iterations)
        except RuntimeError:
            return None, None
        return (r, g) if r.success else (None, g)

    with obs.span("route.min_width_search", w_min=w_min,
                  w_max=w_max) as sp:
        lo, hi = w_min, w_max
        best: tuple[int, RoutingResult, RRGraph] | None = None
        # First find some routable width by doubling.
        w = lo
        while w <= hi:
            r, g = attempt(w)
            if r is not None:
                best = (w, r, g)
                hi = w - 1
                break
            w *= 2
        if best is None:
            raise RuntimeError(f"unroutable even at width {hi}")
        lo = max(w_min, w // 2 + 1)
        while lo <= hi:
            mid = (lo + hi) // 2
            r, g = attempt(mid)
            if r is not None:
                best = (mid, r, g)
                hi = mid - 1
            else:
                lo = mid + 1
        sp.set_attr(attempts=attempts, channel_width=best[0])
    # The binary search may end on a failing probe; the gauge must
    # reflect the winning attempt, not the last width tried.
    obs.metrics.metric_set().gauge("route.overused", best[1].overused)
    return best
