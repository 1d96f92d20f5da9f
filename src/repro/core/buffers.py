"""Reception/emission buffer storage for SSMFP.

Per destination ``d`` every processor owns a reception buffer ``bufR_p(d)``
and an emission buffer ``bufE_p(d)`` (the paper's two-buffers-per-
destination scheme, Figure 2).  Storage is **sparse and lazily
materialized**: a buffer cell exists in memory only while it holds a
message, and a destination row exists only while at least one of its cells
does.  This is sound because an absent cell is semantically identical to a
clean empty buffer — the exact invariant snap-stabilization already relies
on (an arbitrary initial configuration may start with every buffer empty),
so eviction-on-empty and re-materialization-as-empty are unobservable to
the protocol.  Reads keep the classic dense idiom: ``bufs.R[d][p]`` returns
the stored message or ``None`` through lightweight row views, so rule code
and external readers are agnostic to the representation.  Memory is
O(live messages), not O(n²).

Every mutation goes through :meth:`set_r` / :meth:`set_e` /
:meth:`move_r_to_e`, so an optional *write notifier* installed with
:meth:`add_notifier` sees every buffer write ``(d, p, kind)`` — the hook
the incremental engine uses to maintain its dirty sets.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.statemodel.message import Message
from repro.statemodel.snapshot import StateVector
from repro.types import DestId, ProcId

#: Write-notification callback: ``(dest, processor, kind)`` with kind in
#: {"R", "E"} ("E" also covers R2's simultaneous R-empty/E-fill write).
WriteNotifier = Callable[[DestId, ProcId, str], None]

#: Sparse storage: ``{dest: {proc: message}}`` with empty rows evicted.
_Plane = Dict[DestId, Dict[ProcId, Message]]


class _BufferRow:
    """Read-only view of one destination row of a buffer plane.

    ``row[p]`` returns the stored message or ``None`` — the dense-list
    idiom — without materializing anything.
    """

    __slots__ = ("_plane", "_d")

    def __init__(self, plane: _Plane, d: DestId) -> None:
        self._plane = plane
        self._d = d

    def __getitem__(self, p: ProcId) -> Optional[Message]:
        row = self._plane.get(self._d)
        return None if row is None else row.get(p)


class _BufferPlane:
    """Read-only view of a whole buffer plane: ``plane[d]`` is a row view."""

    __slots__ = ("_plane",)

    def __init__(self, plane: _Plane) -> None:
        self._plane = plane

    def __getitem__(self, d: DestId) -> _BufferRow:
        return _BufferRow(self._plane, d)


class ForwardingBuffers:
    """All ``bufR``/``bufE`` buffers of one SSMFP instance."""

    __slots__ = ("n", "R", "E", "_r", "_e", "_occupied", "_occupied_set",
                 "_notify")

    def __init__(self, n: int) -> None:
        self.n = n
        self._r: _Plane = {}
        self._e: _Plane = {}
        #: ``R[d][p]`` — reception buffer of processor p for destination d
        #: (read-only view over the sparse store).
        self.R = _BufferPlane(self._r)
        #: ``E[d][p]`` — emission buffer of processor p for destination d.
        self.E = _BufferPlane(self._e)
        #: Per-destination occupancy counts; zero-count entries are evicted,
        #: so the dict's key set *is* the set of live destinations.
        self._occupied: Dict[DestId, int] = {}
        #: Destinations with a nonzero occupancy count — maintained on every
        #: write so "which components hold messages" is O(occupied), not an
        #: O(n) sweep of the counts.
        self._occupied_set: Set[DestId] = set()
        self._notify: Optional[WriteNotifier] = None

    def add_notifier(self, notify: WriteNotifier) -> None:
        """Chain one more write-notification hook *behind* whatever is
        already bound (the incremental engine's dirty-set hook keeps
        firing first, then the new subscriber — how the message tracer
        attaches without disturbing the engine)."""
        previous = self._notify
        if previous is None:
            self._notify = notify
            return

        def chained(d: DestId, p: ProcId, kind: str) -> None:
            previous(d, p, kind)
            notify(d, p, kind)

        self._notify = chained

    # -- mutation (all buffer writes go through these, keeping counts right) --

    def _bump(self, d: DestId, delta: int) -> None:
        occ = self._occupied.get(d, 0) + delta
        if occ:
            self._occupied[d] = occ
            self._occupied_set.add(d)
        else:
            self._occupied.pop(d, None)
            self._occupied_set.discard(d)

    def _write(self, plane: _Plane, d: DestId, p: ProcId,
               msg: Optional[Message]) -> int:
        """Write one cell, materializing/evicting as needed; returns the
        occupancy delta."""
        row = plane.get(d)
        old = None if row is None else row.get(p)
        if msg is None:
            if row is not None and p in row:
                del row[p]
                if not row:
                    del plane[d]
        else:
            if row is None:
                row = plane[d] = {}
            row[p] = msg
        return (msg is not None) - (old is not None)

    def set_r(self, d: DestId, p: ProcId, msg: Optional[Message]) -> None:
        """Write ``bufR_p(d)``."""
        delta = self._write(self._r, d, p, msg)
        if delta:
            self._bump(d, delta)
        if self._notify is not None:
            self._notify(d, p, "R")

    def set_e(self, d: DestId, p: ProcId, msg: Optional[Message]) -> None:
        """Write ``bufE_p(d)``."""
        delta = self._write(self._e, d, p, msg)
        if delta:
            self._bump(d, delta)
        if self._notify is not None:
            self._notify(d, p, "E")

    def move_r_to_e(self, d: DestId, p: ProcId, recolored: Message) -> None:
        """Rule R2's simultaneous write: fill ``bufE``, empty ``bufR``."""
        erow = self._e.get(d)
        if erow is None:
            erow = self._e[d] = {}
        erow[p] = recolored
        rrow = self._r.get(d)  # occupancy unchanged: one in, one out
        if rrow is not None and p in rrow:
            del rrow[p]
            if not rrow:
                del self._r[d]
        if self._notify is not None:
            self._notify(d, p, "E")

    # -- fast-path reads (no view allocation; used by the rule engine) ------

    def get_r(self, d: DestId, p: ProcId) -> Optional[Message]:
        """``bufR_p(d)`` without allocating a row view."""
        row = self._r.get(d)
        return None if row is None else row.get(p)

    def get_e(self, d: DestId, p: ProcId) -> Optional[Message]:
        """``bufE_p(d)`` without allocating a row view."""
        row = self._e.get(d)
        return None if row is None else row.get(p)

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """Sparse state vector: one ``(d, p, kind, message)`` entry per
        occupied buffer, in :meth:`iter_messages` order.  Messages are
        immutable and shared by reference.  Canonical: two instances with
        the same stored messages produce the same vector regardless of the
        materialization/eviction history."""
        return tuple(self.iter_messages())

    def restore(self, vec: StateVector) -> None:
        """Diff-restore: write only the cells that differ, through
        :meth:`set_r`/:meth:`set_e` so occupancy indexes stay exact and the
        notifier sees every real change."""
        target = {(d, p, kind): msg for d, p, kind, msg in vec}
        stale = [
            (d, p, kind)
            for d, p, kind, _ in self.iter_messages()
            if (d, p, kind) not in target
        ]
        for d, p, kind in stale:
            if kind == "R":
                self.set_r(d, p, None)
            else:
                self.set_e(d, p, None)
        for (d, p, kind), msg in target.items():
            current = self.get_r(d, p) if kind == "R" else self.get_e(d, p)
            if current is not msg:
                if kind == "R":
                    self.set_r(d, p, msg)
                else:
                    self.set_e(d, p, msg)

    # -- queries ------------------------------------------------------------

    def occupied_in_component(self, d: DestId) -> int:
        """Number of nonempty buffers in destination ``d``'s component."""
        return self._occupied.get(d, 0)

    def occupied_components(self) -> Set[DestId]:
        """Destinations with at least one nonempty buffer — the live index
        maintained by the mutators (treat as read-only)."""
        return self._occupied_set

    def total_occupied(self) -> int:
        """Nonempty buffers across all components — O(occupied
        destinations), summing the counts the occupied-set indexes, never a
        dense O(n) sweep."""
        occupied = self._occupied
        return sum(occupied[d] for d in self._occupied_set)

    def materialized_destinations(self) -> Set[DestId]:
        """Destinations with at least one materialized buffer cell — the
        memory footprint index (equals :meth:`occupied_components` because
        empty cells and rows are evicted eagerly)."""
        return set(self._r) | set(self._e)

    def iter_messages(self) -> Iterator[Tuple[DestId, ProcId, str, Message]]:
        """Yield every stored message as ``(dest, proc, kind, message)``
        with kind in {"R", "E"} — destinations ascending, processors
        ascending, R before E per processor (the dense-era order, preserved
        so snapshots stay bit-identical)."""
        empty: Dict[ProcId, Message] = {}
        for d in sorted(self._occupied_set):
            row_r = self._r.get(d, empty)
            row_e = self._e.get(d, empty)
            for p in sorted(row_r.keys() | row_e.keys()):
                if p in row_r:
                    yield (d, p, "R", row_r[p])
                if p in row_e:
                    yield (d, p, "E", row_e[p])

    def copies_of(self, uid: int) -> List[Tuple[DestId, ProcId, str]]:
        """Locations of every stored copy of the message with hidden ``uid``."""
        return [
            (d, p, kind)
            for d, p, kind, msg in self.iter_messages()
            if msg.uid == uid
        ]
