"""From-scratch bounding-box cost: the placer's reference cost model.

The product placer (:func:`repro.place.place`) scores moves with
``_IncrementalCost``, which recomputes each affected net's bbox from
per-block coordinate arrays.  :class:`ScalarCost` is the plain model it
must agree with: every trial rebuilds a block name -> site map from the
live coordinates and recomputes each affected net's bbox from scratch
with :func:`~repro.place.placer._net_bbox_cost`.  Tests swap it in for
``repro.place.placer._IncrementalCost`` (same constructor and method
contract: ``x``/``y``, ``nets_of``, ``trial``, ``commit``, ``total``,
``evals``) and require identical placements and costs for the same
seed.

Every float operation here defines the contract: net ids follow
sorted net names, deltas accumulate left-to-right over the affected
ids in ascending order, and :meth:`ScalarCost.total` sums ``net_cost``
in nets-dict insertion order.
"""

from __future__ import annotations

from repro.arch.fabric import Site
from repro.place.placer import _net_bbox_cost

__all__ = ["ScalarCost"]


class ScalarCost:
    """Reference cost model: full per-net bbox recompute on every move."""

    def __init__(self, loc: dict[str, Site], nets: dict[str, dict]):
        self.blocks = list(loc)
        self.kinds = [s.kind for s in loc.values()]
        self.x = [s.x for s in loc.values()]
        self.y = [s.y for s in loc.values()]
        self.nets = nets
        self.net_names = sorted(nets)
        bid = {b: i for i, b in enumerate(self.blocks)}
        nets_of: list[set[int]] = [set() for _ in self.blocks]
        for i, name in enumerate(self.net_names):
            net = nets[name]
            for b in (net["driver"], *net["sinks"]):
                nets_of[bid[b]].add(i)
        self.nets_of = [tuple(sorted(ids)) for ids in nets_of]
        self.net_cost = {name: _net_bbox_cost(loc, net)
                         for name, net in nets.items()}
        self.evals = 0
        self._new: list[float] = []

    def _loc(self) -> dict[str, Site]:
        return {b: Site(kind, x, y) for b, kind, x, y
                in zip(self.blocks, self.kinds, self.x, self.y)}

    def trial(self, affected) -> float:
        self.evals += len(affected)
        loc = self._loc()
        new = self._new = []
        delta = 0.0
        for i in affected:
            name = self.net_names[i]
            c = _net_bbox_cost(loc, self.nets[name])
            new.append(c)
            delta += c - self.net_cost[name]
        return delta

    def commit(self, affected) -> None:
        for i, c in zip(affected, self._new):
            self.net_cost[self.net_names[i]] = c

    def total(self) -> float:
        return sum(self.net_cost.values())
