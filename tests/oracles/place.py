"""From-scratch bounding-box cost: the placer's reference cost model.

The product placer (:func:`repro.place.place`) keeps per-net running
bbox bounds in ``_IncrementalCost``.  :class:`ScalarCost` is the
original model it was derived from: every trial move recomputes the
affected nets' bboxes from scratch.  Tests swap it in for
``repro.place.placer._IncrementalCost`` (same constructor and method
contract) and require identical placements and costs for the same
seed.

Every float operation here defines the contract: deltas accumulate
left-to-right over ``sorted(affected)`` and :meth:`ScalarCost.total`
sums ``net_cost`` in nets-dict insertion order.
"""

from __future__ import annotations

from repro.arch.fabric import Site
from repro.place.placer import _net_bbox_cost

__all__ = ["ScalarCost"]


class ScalarCost:
    """Reference cost model: full per-net bbox recompute on every move."""

    def __init__(self, loc: dict[str, Site], nets: dict[str, dict]):
        self.loc = loc
        self.nets = nets
        self.nets_of: dict[str, list[str]] = {}
        for name, net in nets.items():
            for b in {net["driver"], *net["sinks"]}:
                self.nets_of.setdefault(b, []).append(name)
        self.net_cost = {name: _net_bbox_cost(loc, net)
                         for name, net in nets.items()}
        self.evals = 0
        self._old: dict[str, float] = {}

    def affected(self, block: str, other: str | None) -> list[str]:
        # Sorted order so the float delta sums identically regardless
        # of PYTHONHASHSEED.
        s = set(self.nets_of.get(block, ()))
        if other is not None:
            s |= set(self.nets_of.get(other, ()))
        return sorted(s)

    def trial(self, affected: list[str], moves) -> float:
        self.evals += len(affected)
        net_cost = self.net_cost
        old = {n: net_cost[n] for n in affected}
        delta = 0.0
        for n in affected:
            new = _net_bbox_cost(self.loc, self.nets[n])
            delta += new - old[n]
            net_cost[n] = new
        self._old = old
        return delta

    def revert(self, affected: list[str], moves) -> None:
        for n, c in self._old.items():
            self.net_cost[n] = c

    def total(self) -> float:
        return sum(self.net_cost.values())
