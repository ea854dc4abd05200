"""Full-recompute PathFinder: the router's reference implementation.

The product router (:func:`repro.route.route`) runs
``_route_all_incremental``, which keeps persistent cost and search
structures across PathFinder iterations.  :func:`route_all` is the
original it was derived from: every edge relaxation looks the node up
and recomputes ``base * hist * p`` from scratch, and every Dijkstra
search builds fresh dicts.  Tests swap it in for
``repro.route.router._route_all_incremental`` (same signature and
``(RoutingResult, searches)`` return) and require identical trees,
iteration counts and overuse.
"""

from __future__ import annotations

import heapq

from repro.arch.rrgraph import RRGraph
from repro.place.placer import Placement
from repro.route.router import (_BASE_COST, RouteTree, RoutingResult,
                                _capacity)

__all__ = ["route_all"]


def route_all(placement: Placement, g: RRGraph, *, max_iterations: int,
              pres_fac_mult: float, acc_fac: float
              ) -> tuple[RoutingResult, int]:
    """Route every net; returns the result and a zero search count."""
    nets = placement.nets
    terminals: dict[str, tuple[int, list[int]]] = {}
    for name, net in nets.items():
        src = g.source_of(placement.loc[net["driver"]])
        sinks = [g.sink_of(placement.loc[b]) for b in net["sinks"]]
        terminals[name] = (src, sinks)

    n = g.n_nodes()
    occ = [0] * n
    hist = [1.0] * n
    cap = [_capacity(g, i) for i in range(n)]
    trees: dict[str, RouteTree] = {}
    pres_fac = 0.5
    order = sorted(nets, key=lambda nm: (-len(nets[nm]["sinks"]), nm))

    for it in range(1, max_iterations + 1):
        for name in order:
            src, sinks = terminals[name]
            old = trees.pop(name, None)
            if old is not None:
                for node in old.parents:
                    occ[node] -= 1
            tree = _route_net(g, name, src, sinks, occ, hist, cap,
                              pres_fac)
            for node in tree.parents:
                occ[node] += 1
            trees[name] = tree

        overused = sum(1 for i in range(n) if occ[i] > cap[i])
        if overused == 0:
            return RoutingResult(True, it, trees,
                                 g.arch.channel_width), 0
        for i in range(n):
            if occ[i] > cap[i]:
                hist[i] += acc_fac * (occ[i] - cap[i])
        pres_fac *= pres_fac_mult

    return RoutingResult(False, max_iterations, trees,
                         g.arch.channel_width, overused), 0


def _route_net(g: RRGraph, name: str, src: int, sinks: list[int], occ,
               hist, cap, pres_fac: float) -> RouteTree:
    """Route one net: sequential Dijkstra from the growing tree."""
    tree = RouteTree(name, src, {src: -1})
    seen: set[int] = set()
    remaining = [s for s in sinks if not (s in seen or seen.add(s))]

    nodes = g.nodes
    for target in remaining:
        dist: dict[int, float] = {}
        prev: dict[int, int] = {}
        heap: list[tuple[float, int]] = []
        for t_node in tree.parents:
            dist[t_node] = 0.0
            heapq.heappush(heap, (0.0, t_node))
        found = False
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            if u == target:
                found = True
                break
            for v in nodes[u].edges:
                node_v = nodes[v]
                if node_v.kind == "SINK" and v != target:
                    continue
                over = occ[v] + 1 - cap[v]
                p = 1.0 + (pres_fac * over if over > 0 else 0.0)
                ndist = d + _BASE_COST[node_v.kind] * hist[v] * p
                if ndist < dist.get(v, float("inf")):
                    dist[v] = ndist
                    prev[v] = u
                    heapq.heappush(heap, (ndist, v))
        if not found:
            raise RuntimeError(
                "routing graph disconnected: sink unreachable "
                "(channel width too small for even one net?)")
        node = target
        while node not in tree.parents:
            tree.parents[node] = prev[node]
            node = prev[node]
    return tree
