"""The deadlock-free controller predicate (Merlin & Schweitzer).

A *controller* decides, per move, whether the network may perform it.  The
buffer-graph controller permits a generation/forwarding move into buffer
``b`` only if the move follows an edge of the buffer graph, which — when the
graph is acyclic — guarantees the network never deadlocks: messages in
buffers that are maximal in the topological order can always advance or be
consumed, and induction down the order frees everyone.

This module exposes the predicate plus a liveness certificate used by tests:
given an acyclic graph and any buffer occupancy, there is always at least
one allowed move or consumable message unless the network is empty.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.buffergraph.graph import BufferGraph, BufferId
from repro.errors import TopologyError


class DeadlockFreeController:
    """Move-permission oracle over a buffer graph.

    Parameters
    ----------
    graph:
        The buffer graph; must be acyclic (checked eagerly — a cyclic graph
        cannot certify deadlock freedom and is rejected).
    """

    def __init__(self, graph: BufferGraph) -> None:
        order = graph.topological_order()
        if order is None:
            cycle = graph.find_cycle()
            raise TopologyError(
                f"buffer graph is cyclic, cannot build a deadlock-free "
                f"controller; example cycle: {cycle}"
            )
        self._graph = graph
        self._rank: Dict[BufferId, int] = {b: i for i, b in enumerate(order)}

    def rank(self, b: BufferId) -> int:
        """Position of ``b`` in the certified topological order."""
        return self._rank[b]

    def permits_move(self, src: BufferId, dst: BufferId) -> bool:
        """True iff forwarding from ``src`` into ``dst`` follows a graph
        edge (and hence strictly increases topological rank)."""
        return dst in self._graph.successors(src)

    def permits_generation(self, into: BufferId) -> bool:
        """Generation is allowed into any buffer of the graph (the scheme
        constrains *forwarding*; generation feeds the sources)."""
        return into in self._rank

    def certify_progress(
        self,
        occupancy: Dict[BufferId, object],
        consumable: Callable[[BufferId], bool],
    ) -> Optional[Tuple[str, BufferId]]:
        """Exhibit one available move given an occupancy map.

        ``occupancy`` maps occupied buffers to their content; ``consumable``
        says whether the message in a buffer is at its destination.  Returns
        ``("consume", b)`` or ``("forward", b)`` for some buffer that can
        act, or None iff the network is empty.  For an acyclic graph this
        never returns None while occupied buffers exist — the deadlock-
        freedom theorem — and the unit tests assert exactly that over random
        occupancies.
        """
        if not occupancy:
            return None
        # Scan occupied buffers from the top of the order downward: the
        # occupied buffer with the greatest rank can always consume or move
        # into some successor (successors have greater rank; the maximal
        # occupied one has only unoccupied successors... choose greedily).
        occupied = sorted(occupancy, key=lambda b: self._rank[b], reverse=True)
        for b in occupied:
            if consumable(b):
                return ("consume", b)
            for s in self._graph.successors(b):
                if s not in occupancy:
                    return ("forward", b)
        # All occupied, none consumable, no empty successor anywhere: only
        # possible if some occupied buffer has no successors and is not
        # consumable — a *routing* fault, not a controller deadlock.
        return None
