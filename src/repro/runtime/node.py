"""A live SSMFP node: the hop-lane core on an asyncio event loop.

:class:`RuntimeNode` is the asyncio driver of
:class:`~repro.runtime.lane.LaneCore` (the windowed hop protocol).  It
adds only what needs an event loop: the transport-bound inbox, the run
loop that feeds the core against ``time.monotonic()``, batched frame
flushes, and the conformance event log.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.runtime.conformance import RuntimeEvent
from repro.runtime.lane import LaneCore, Outgoing, RuntimeParams
from repro.runtime.transport import InboxItem, Transport
from repro.types import DestId, ProcId

__all__ = ["RuntimeNode", "RuntimeParams"]


class RuntimeNode(LaneCore):
    """One live processor: the lane core, an inbox, and a run loop."""

    def __init__(
        self,
        pid: ProcId,
        net: Network,
        routing: RoutingService,
        transport: Transport,
        params: Optional[RuntimeParams] = None,
    ) -> None:
        super().__init__(pid, net, routing, params, self._append_event)
        self.transport = transport
        self.inbox: "asyncio.Queue[InboxItem]" = asyncio.Queue()
        transport.bind(pid, self.inbox)
        self.counters["frames_out"] = 0
        self.counters["records_out"] = 0
        #: Conformance event log (generated / delivered), in node order.
        self.events: List[RuntimeEvent] = []
        self._event_order = 0
        self._stopping = False
        self._paused = False
        #: Records per flushed frame.
        self.batch_sizes: List[int] = []
        self._delivered_hook = None  # cluster progress callback

    def stop(self) -> None:
        """Ask the run loop to exit at the next heartbeat."""
        self._stopping = True

    def pause(self) -> None:
        """Freeze the run loop (scenario ``crash`` action): no rules fire,
        no timers run, nothing is sent or received until :meth:`resume`.

        This is the *fail-pause* crash model: lane sequence numbers and
        release watermarks survive, so the hop protocol's exactly-once
        bookkeeping stays intact across the outage — peers simply see an
        unresponsive neighbor and retransmit into its inbox, which drains
        on resume.  (A fail-recover model with fresh state would need
        stable-storage lane state.  Transient faults may corrupt the
        forwarding buffers as well as the routing tables — the simulator's
        ``--garbage`` plants invalid messages there — but the live lanes
        start clean, and this crash model keeps them intact.)
        """
        self._paused = True

    def resume(self) -> None:
        """Thaw a :meth:`pause`-d node; the backlog drains immediately."""
        self._paused = False

    def is_idle(self) -> bool:
        """True iff no queue, lane or inbox item holds anything."""
        return super().is_idle() and self.inbox.empty()

    # -- run loop ------------------------------------------------------------

    async def run(self) -> None:
        """Drive the node until :meth:`stop`: handle inbound record batches,
        fire local rules, flush coalesced outgoing batches, keep timers."""
        tick = self.params.tick
        inbox = self.inbox
        out: Outgoing = []
        try:
            while not self._stopping:
                if self._paused:
                    # Crashed (fail-pause): hold all state, touch nothing.
                    await asyncio.sleep(tick)
                    continue
                # Drain the inbox *before* firing rules and timers: an ACK
                # that arrived while this task was starved of the event
                # loop must cancel a retransmission, not race it.
                drained = False
                now = 0.0
                while True:
                    try:
                        src, records = inbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if not drained:
                        drained = True
                        now = time.monotonic()
                    self.handle_batch(src, records, now, out)
                now = time.monotonic()
                self.advance(now, out)
                self.fire_timers(now, out)
                if out:
                    await self._flush(out)
                if not drained:
                    try:
                        src, records = await asyncio.wait_for(inbox.get(), tick)
                    except asyncio.TimeoutError:
                        continue
                    self.handle_batch(src, records, time.monotonic(), out)
        except asyncio.CancelledError:
            pass

    async def _flush(self, out: Outgoing) -> None:
        """Group queued records by neighbor and ship them as batched
        frames (at most ``max_batch`` records each)."""
        max_batch = self.params.max_batch
        counters = self.counters
        if len(out) == 1:
            dst, rec = out[0]
            out.clear()
            counters["frames_out"] += 1
            counters["records_out"] += 1
            self.batch_sizes.append(1)
            await self.transport.send(self.pid, dst, (rec,))
            return
        batches: Dict[ProcId, List[Dict[str, Any]]] = {}
        for dst, rec in out:
            batches.setdefault(dst, []).append(rec)
        out.clear()
        for dst, recs in batches.items():
            for i in range(0, len(recs), max_batch):
                chunk = recs[i : i + max_batch]
                counters["frames_out"] += 1
                counters["records_out"] += len(chunk)
                self.batch_sizes.append(len(chunk))
                await self.transport.send(self.pid, dst, chunk)

    # -- events ----------------------------------------------------------------

    def _append_event(
        self, kind: str, uid: int, dest: DestId, valid: bool = True
    ) -> None:
        # Two clock domains, never mixed: ``t`` (wall) is for exported
        # report rows only; ``mono`` (CLOCK_MONOTONIC, shared by every
        # process on the machine) is what durations are computed from, so
        # an NTP step mid-run cannot skew the latency histograms.
        self.events.append(
            RuntimeEvent(
                kind=kind,
                uid=uid,
                node=self.pid,
                dest=dest,
                valid=valid,
                t=time.time(),
                order=self._event_order,
                mono=time.monotonic(),
            )
        )
        self._event_order += 1
        if kind == "delivered" and self._delivered_hook is not None:
            self._delivered_hook()
