"""The benchmark's workloads, their correctness checks and their layers.

Each workload drives one substrate through its public entry point:

* ``sim-churn`` — ``build_simulation`` / ``Simulation.run``;
* ``verify-line4`` — ``ModelChecker.run`` (serial snapshot engine);
* ``runtime-fanin-lossy`` — ``run_cluster`` over the in-process ``local``
  transport behind netem.

A workload is a batch of ``units`` (``sizes[size]["units"]``), each one
instance of its system made from the seed and the unit's index.  A unit
has three phases.  ``setup`` builds the inputs and the system (timed as
``setup_s``).  ``run`` makes the timed call and gathers what the verdict
needs, so ``run_s`` includes the substrate's correctness check.
``verdict`` turns that into attempted/failed operations.  Pinned counts
(one entry per unit) apply to ``DEFAULT_SEED`` only; any other seed is
judged by the oracles alone.  See ``perfbench/README.md`` for why each
workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.runtime.cluster as cluster_mod
import repro.runtime.transport as transport_mod
import repro.verify.modelcheck as modelcheck_mod
from repro.app.higher_layer import HigherLayer
from repro.app.workload import uniform_workload
from repro.core.corruption import plant_invalid_message
from repro.core.family import ForwardingProtocol
from repro.core.invariants import InvariantChecker
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.network.graph import Network
from repro.network.topologies import ring_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.runtime.cluster import ClusterSpec, run_cluster
from repro.runtime.netem import NetemTransport
from repro.runtime.transport import LocalTransport
from repro.sim.runner import Simulation, build_simulation, delivered_and_drained
from repro.statemodel.action import Action
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.statemodel.scheduler import Simulator
from repro.verify.modelcheck import ModelChecker
from repro.verify.reduction import IndependenceOracle

from bench_trace import TimedDaemon, Tracer

#: The seed the pinned counts were recorded with.
DEFAULT_SEED = 0

#: Unit ``u`` of a batch made from seed ``s`` is seeded ``s * stride + u``.
UNIT_SEED_STRIDE = 1000


@dataclass
class Verdict:
    """Correctness of one iteration, as operations attempted and failed."""

    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Work done, by unit (``msgs``, ``steps``, ``states``), for the rates.
    work: Dict[str, int] = field(default_factory=dict)


def _mismatches(pinned: Dict[str, List[Dict[str, Any]]], seed: int, unit: int,
                size: str, got: Dict[str, Any]) -> List[str]:
    if seed != DEFAULT_SEED:
        return []
    pinned = pinned[size][unit]
    return [
        f"{key} = {got[key]!r}, pinned {want!r}"
        for key, want in pinned.items()
        if got[key] != want
    ]


# -- sim-churn -----------------------------------------------------------------


class SimChurn:
    name = "sim-churn"
    work = "steps"
    rates = {"msgs_per_s": "msgs", "steps_per_s": "steps"}
    #: Four instances per batch: one instance's work moves by about 10%
    #: with its seed, the batch's by about 3% over seeds 0-9.
    sizes = {
        "full": {"n": 48, "messages": 64, "spread": 600, "units": 4},
        "tiny": {"n": 12, "messages": 8, "spread": 40, "units": 2},
    }
    max_steps = 200_000
    #: Schedule of each unit of the default seed: an engine change must
    #: not alter it.
    pinned = {
        "full": [
            {"steps": 664, "rounds": 110, "rule_counts": {
                "R1": 64, "R2": 847, "R3": 785, "R4": 783, "R5": 2, "R6": 64,
                "RTfix": 8570, "RTself": 18}},
            {"steps": 711, "rounds": 129, "rule_counts": {
                "R1": 64, "R2": 824, "R3": 766, "R4": 760, "R5": 6, "R6": 64,
                "RTfix": 9011, "RTself": 12}},
            {"steps": 721, "rounds": 141, "rule_counts": {
                "R1": 64, "R2": 732, "R3": 670, "R4": 668, "R5": 2, "R6": 64,
                "RTfix": 7373, "RTself": 15}},
            {"steps": 744, "rounds": 160, "rule_counts": {
                "R1": 64, "R2": 871, "R3": 807, "R4": 807, "R6": 64,
                "RTfix": 7998, "RTself": 16}},
        ],
        "tiny": [
            {"steps": 82, "rounds": 27, "rule_counts": {
                "R1": 8, "R2": 36, "R3": 28, "R4": 28, "R6": 8, "RTfix": 99, "RTself": 2}},
            {"steps": 73, "rounds": 18, "rule_counts": {
                "R1": 8, "R2": 32, "R3": 24, "R4": 24, "R6": 8, "RTfix": 167, "RTself": 5}},
        ],
    }

    def setup(self, seed: int, unit: int, size: str) -> Simulation:
        p = self.sizes[size]
        seed = seed * UNIT_SEED_STRIDE + unit
        net = ring_network(p["n"])
        workload = uniform_workload(net.n, p["messages"], seed=seed, spread_steps=p["spread"])
        return build_simulation(
            net,
            workload=workload,
            daemon=DistributedRandomDaemon(seed=seed),
            seed=seed,
            routing_mode="selfstab",
            routing_corruption={"kind": "random", "fraction": 0.3, "seed": seed},
            ledger_strict=False,
        )

    def run(self, simulation: Simulation, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        halt = delivered_and_drained
        if tracer is not None:
            simulation.sim.daemon = TimedDaemon(simulation.sim.daemon, tracer)
            halt = tracer.wrap("sim.halt", halt)
        result = simulation.run(self.max_steps, halt=halt, raise_on_limit=False)
        ledger = simulation.ledger
        return {
            "steps": result.steps,
            "rounds": result.rounds,
            "rule_counts": dict(sorted(result.rule_counts.items())),
            "generated": ledger.generated_count,
            "delivered": ledger.valid_delivered_count,
            "outstanding": len(ledger.outstanding_uids()),
            "violations": list(ledger.violations),
            "guard_evals": simulation.sim.guard_evals,
        }

    def verdict(self, simulation: Simulation, out: Dict[str, Any], seed: int, unit: int,
                size: str) -> Verdict:
        attempted = simulation.workload.size
        failed = (attempted - out["generated"]) + out["outstanding"] + len(out["violations"])
        problems = list(out["violations"][:5])
        if failed:
            problems.append(
                f"{out['outstanding']} undelivered, "
                f"{attempted - out['generated']} never generated"
            )
        mismatch = _mismatches(self.pinned, seed, unit, size, out)
        if mismatch:
            problems.extend(mismatch)
            failed = attempted
        return Verdict(
            attempted, min(failed, attempted), problems,
            {"msgs": out["delivered"], "steps": out["steps"]},
        )


# -- verify-line4 --------------------------------------------------------------


def line4_crossing_garbage(perm: List[int]) -> Callable[[], SSMFP]:
    """The X5 ``line(4), crossing + garbage`` instance with its processors
    relabelled by ``perm`` (the identity gives the X5 instance itself)."""

    def make() -> SSMFP:
        net = Network(4, [(perm[i], perm[i + 1]) for i in range(3)])
        proto = SSMFP(net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger())
        plant_invalid_message(proto, perm[3], perm[1], "R", "g1", last=perm[0])
        plant_invalid_message(proto, perm[0], perm[2], "R", "g2", last=perm[3])
        proto.hl.submit(perm[0], "a", perm[3])
        proto.hl.submit(perm[3], "b", perm[0])
        return proto

    return make


class VerifyLine4:
    name = "verify-line4"
    work = "states"
    rates = {"states_per_s": "states"}
    sizes = {"full": {"max_states": 500, "units": 2}, "tiny": {"max_states": 150, "units": 1}}
    pinned = {
        "full": [
            {"states": 500, "transitions": 2502, "dedup_hits": 1295},
            {"states": 500, "transitions": 2505, "dedup_hits": 1297},
        ],
        "tiny": [{"states": 150, "transitions": 784, "dedup_hits": 340}],
    }

    def setup(self, seed: int, unit: int, size: str) -> ModelChecker:
        # The seed relabels the processors: an isomorphic instance whose
        # exploration order differs, so the work per run barely moves.
        seed = seed * UNIT_SEED_STRIDE + unit
        perm = list(range(4))
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(perm)
        make = line4_crossing_garbage(perm)
        make()  # the instance factory must build before the timed call
        return ModelChecker(
            make,
            max_states=self.sizes[size]["max_states"],
            max_selection_width=20_000,
            engine="snapshot",
            reduction="por",
        )

    def run(self, checker: ModelChecker, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        result = checker.run()
        return {
            "states": result.states,
            "transitions": result.transitions,
            "dedup_hits": result.dedup_hits,
            "skipped_selections": result.skipped_selections,
            "violations": list(result.violations),
            "truncated": result.truncated,
            "note": result.note,
        }

    def verdict(self, checker: ModelChecker, out: Dict[str, Any], seed: int, unit: int,
                size: str) -> Verdict:
        attempted = max(out["states"], 1)
        failed = len(out["violations"])
        problems = list(out["violations"][:5])
        cap = self.sizes[size]["max_states"]
        if out["states"] != cap or not (out["note"] or "").startswith("state cap"):
            # The full space has 53,504 states: every run must stop at the
            # cap, never earlier (a fan-out overflow truncates early).
            problems.append(f"explored {out['states']} states, want the cap {cap}: {out['note']}")
            failed = attempted
        mismatch = _mismatches(self.pinned, seed, unit, size, out)
        if mismatch:
            problems.extend(mismatch)
            failed = attempted
        return Verdict(attempted, min(failed, attempted), problems, {"states": out["states"]})


# -- the runtime workloads -----------------------------------------------------


class Runtime:
    """A live cluster over the in-process transport.  A cluster's run time
    moves with timing (completion is polled every 20 ms, retransmissions
    follow timers), so the workload sums a batch of three."""

    rates = {"msgs_per_s": "msgs"}
    work = "msgs"

    def __init__(self, name: str, sizes: Dict[str, Dict[str, Any]], **spec: Any) -> None:
        self.name = name
        self.sizes = sizes
        self._spec = spec

    def setup(self, seed: int, unit: int, size: str) -> Tuple[ClusterSpec, int]:
        p = self.sizes[size]
        spec = ClusterSpec(
            topology={"name": p["topology"], "kwargs": {"n": p["n"]}},
            messages=p["messages"],
            seed=seed * UNIT_SEED_STRIDE + unit,
            transport="local",
            deadline=60.0,
            **self._spec,
        )
        spec.build_network()
        target = len(spec.build_submissions())
        spec.build_params()
        spec.build_netem()
        return spec, target

    def run(self, prepared: Tuple[ClusterSpec, int], tracer: Optional[Tracer] = None) -> Any:
        spec, _ = prepared
        return run_cluster(spec)

    def verdict(self, prepared: Tuple[ClusterSpec, int], result: Any, seed: int, unit: int,
                size: str) -> Verdict:
        _, target = prepared
        verdict = conformance_verdict(result.report, target)
        if result.errors or result.interrupted:
            verdict.problems.extend(result.errors or ["interrupted"])
            verdict.failed = max(verdict.failed, 1)
        return verdict


def conformance_verdict(report: Any, target: int) -> Verdict:
    """Failed operations in a runtime conformance report: undelivered,
    duplicated and out-of-order messages and ledger violations (a
    generation shortfall is one of the latter)."""
    failed = (
        len(report.undelivered)
        + report.duplicates
        + len(report.sequence_violations)
        + len(report.violations)
    )
    problems = list(report.violations[:3]) + list(report.sequence_violations[:3])
    if report.undelivered:
        problems.append(f"{len(report.undelivered)} undelivered")
    if report.duplicates:
        problems.append(f"{report.duplicates} duplicates")
    if report.generated != target:
        problems.append(f"generated {report.generated}, target {target}")
        failed = max(failed, 1)
    attempted = max(target, report.generated, 1)
    exactly_once = report.generated - len(report.undelivered) - report.duplicates
    return Verdict(attempted, min(failed, attempted), problems, {"msgs": max(exactly_once, 0)})


WORKLOADS = {
    wl.name: wl
    for wl in (
        SimChurn(),
        VerifyLine4(),
        Runtime(
            "runtime-fanin-lossy",
            {
                "full": {"topology": "line", "n": 3, "messages": 2_000, "units": 3},
                "tiny": {"topology": "line", "n": 3, "messages": 200, "units": 1},
            },
            workload="hotspot",
            window=32,
            netem={"loss": 0.02, "dup": 0.02, "reorder": 0.02, "latency": [0.0, 0.001]},
        ),
    )
}


# -- layers --------------------------------------------------------------------


def layer_targets(tracer: Tracer) -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    """Every layer boundary the benchmark wraps, for any workload; a
    workload only pays for the boundaries its calls cross."""
    w = tracer.wrap
    moves = tracer.counts

    def counting_execute(execute: Callable) -> Callable:
        def counted(action: Action) -> None:
            moves["moves:" + action.protocol] += 1
            execute(action)

        return counted

    def admitted(result: bool) -> None:
        if result:
            moves["verify.por_admitted"] += 1

    return [
        (Simulation, "step", lambda f: w("app.step", f)),
        (Simulator, "step", lambda f: w("statemodel.step", f)),
        (Simulator, "enabled_map", lambda f: w("statemodel.enabled_map", f)),
        (PriorityStack, "dirty_after", lambda f: w("statemodel.dirty_after", f)),
        (PriorityStack, "before_step", lambda f: w("core.before_step", f)),
        (PriorityStack, "snapshot", lambda f: w("verify.snapshot", f)),
        (PriorityStack, "restore", lambda f: w("verify.restore", f)),
        (SelfStabilizingBFSRouting, "enabled_actions", lambda f: w("routing.guard", f)),
        (ForwardingProtocol, "enabled_actions", lambda f: w("core.guard", f)),
        (Action, "execute", counting_execute),
        (modelcheck_mod, "expand_state", lambda f: w("verify.expand", f)),
        (modelcheck_mod._System, "canon", lambda f: w("verify.canon", f)),
        (InvariantChecker, "check", lambda f: w("verify.invariant", f)),
        (IndependenceOracle, "admissible", lambda f: w("verify.por", f, admitted)),
        (transport_mod, "encode_records", lambda f: w("runtime.wire.encode", f)),
        (transport_mod, "decode_frame_body", lambda f: w("runtime.wire.decode", f)),
        (LocalTransport, "send", lambda f: w("runtime.transport.send", f)),
        (NetemTransport, "send", lambda f: w("runtime.netem", f)),
        (cluster_mod, "check_events", lambda f: w("runtime.conformance", f)),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # nearest rank
    return ordered[int(rank) - 1] * 1000.0


def layer_metrics(tracer: Tracer, out: Any, run_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as ``name: (value,
    unit)``.  ``*_s`` values are self times, except the inclusive
    ``statemodel.step_s``, ``verify.expand_s`` and ``runtime.loop_s``;
    the self times add up to ``run_s`` up to ``trace.unattributed_s``."""
    t, s, calls, c = tracer.total, tracer.self_s, tracer.calls, tracer.counts
    runtime = not isinstance(out, dict)
    get = (lambda key: 0) if runtime else (lambda key: out.get(key, 0))
    loop_s = out.elapsed_s if runtime else 0.0
    transport_self = sum(
        s(name)
        for name in ("runtime.wire.encode", "runtime.wire.decode",
                     "runtime.transport.send", "runtime.netem")
    )
    # The node layer (lanes, timers, event loop) is the loop's remainder.
    node_s = max(loop_s - transport_self, 0.0)
    remainder = max(run_s - sum(s(name) for name in tracer.spans) - node_s, 0.0)
    # In the verifier the remainder is the seen-set and frontier work.
    verify = calls("verify.expand") > 0
    dedup_s = remainder if verify else 0.0
    unattributed = 0.0 if verify else remainder

    seconds = {
        "app.feed_s": s("app.step"),
        "sim.halt_s": s("sim.halt"),
        "statemodel.step_s": t("statemodel.step"),
        "statemodel.execute_s": s("statemodel.step"),
        "statemodel.enabled_map_self_s": s("statemodel.enabled_map"),
        "statemodel.select_s": s("statemodel.select"),
        "statemodel.dirty_after_s": s("statemodel.dirty_after"),
        "routing.guard_s": s("routing.guard"),
        "core.guard_s": s("core.guard"),
        "core.before_step_s": s("core.before_step"),
        "verify.expand_s": t("verify.expand"),
        "verify.expand_self_s": s("verify.expand"),
        "verify.restore_s": s("verify.restore"),
        "verify.snapshot_s": s("verify.snapshot"),
        "verify.canon_s": s("verify.canon"),
        "verify.invariant_s": s("verify.invariant"),
        "verify.por_s": s("verify.por"),
        "verify.dedup_s": dedup_s,
        "runtime.loop_s": loop_s,
        "runtime.wire.encode_s": s("runtime.wire.encode"),
        "runtime.wire.decode_s": s("runtime.wire.decode"),
        "runtime.transport.send_s": s("runtime.transport.send"),
        "runtime.netem_s": s("runtime.netem"),
        "runtime.node_s": node_s,
        "runtime.conformance_s": t("runtime.conformance"),
        "trace.unattributed_s": unattributed,
    }
    metrics: Dict[str, Tuple[float, str]] = {k: (v, "s") for k, v in seconds.items()}
    for name, value in seconds.items():
        if name in ("verify.expand_self_s", "trace.unattributed_s"):
            continue
        share = "runtime.oracle_share" if name == "runtime.conformance_s" else name[:-2] + "_share"
        metrics[share] = (_ratio(value, run_s), "ratio")

    core_moves = c["moves:" + SSMFP.name]
    routing_moves = c["moves:" + SelfStabilizingBFSRouting.name]
    counters = out.counters if runtime else {}
    counts = {
        "statemodel.steps": get("steps"),
        "statemodel.rounds": get("rounds"),
        "statemodel.guard_evals": get("guard_evals"),
        "routing.guard_calls": calls("routing.guard"),
        "routing.moves": routing_moves,
        "core.moves": core_moves,
        "verify.states": get("states"),
        "verify.transitions": get("transitions"),
        "verify.dedup_hits": get("dedup_hits"),
        "verify.skipped_selections": get("skipped_selections"),
        "runtime.frames_out": counters.get("frames_out", 0),
        "runtime.records_out": counters.get("records_out", 0),
        "runtime.retries": counters.get("retries", 0),
        "runtime.dup_data_acked": counters.get("dup_data_acked", 0),
        "runtime.stale_records_dropped": counters.get("stale_records_dropped", 0),
        "runtime.records_dropped": out.records_dropped if runtime else 0,
    }
    metrics.update({k: (v, "count") for k, v in counts.items()})

    hops = out.hop_latencies if runtime else []
    records_out = counts["runtime.records_out"]
    metrics.update({
        "statemodel.enabled_per_step": (_ratio(c["statemodel.enabled"], calls("statemodel.select")), "ratio"),
        "statemodel.moves_per_guard_eval": (_ratio(core_moves + routing_moves, get("guard_evals")), "ratio"),
        "verify.new_state_ratio": (_ratio(get("transitions") - get("dedup_hits"), get("transitions")), "ratio"),
        "verify.por_admit_ratio": (_ratio(c["verify.por_admitted"], calls("verify.por")), "ratio"),
        "runtime.records_per_frame": (_ratio(records_out, counts["runtime.frames_out"]), "ratio"),
        "runtime.retransmit_ratio": (_ratio(counts["runtime.retries"], records_out), "ratio"),
        "runtime.delivery_efficiency": (_ratio(out.report.delivered if runtime else 0, records_out), "ratio"),
        "runtime.hop_latency_p50_ms": (_percentile_ms(hops, 50), "ms"),
        "runtime.hop_latency_p99_ms": (_percentile_ms(hops, 99), "ms"),
        "trace.closure": (_ratio(run_s - unattributed, run_s), "ratio"),
    })
    return metrics


#: The per-layer metrics the traced run reports in its JSON line, as
#: (name, unit, better).  Layer times appear as shares of the traced
#: ``run_s``; the seconds themselves are printed and written to the trace
#: file.  A layer a workload does not cross reads 0 there.
PER_LAYER = [
    (name, "ratio", "lower")
    for name in (
        "app.feed_share", "sim.halt_share",
        "statemodel.step_share", "statemodel.execute_share",
        "statemodel.enabled_map_self_share", "statemodel.select_share",
        "statemodel.dirty_after_share",
        "routing.guard_share", "core.guard_share", "core.before_step_share",
        "verify.expand_share", "verify.restore_share", "verify.snapshot_share",
        "verify.canon_share", "verify.invariant_share", "verify.por_share",
        "verify.dedup_share",
        "runtime.loop_share", "runtime.wire.encode_share", "runtime.wire.decode_share",
        "runtime.transport.send_share", "runtime.netem_share", "runtime.node_share",
        "runtime.oracle_share",
    )
] + [
    (name, "count", "lower")
    for name in (
        "statemodel.steps", "statemodel.rounds", "statemodel.guard_evals",
        "routing.guard_calls", "routing.moves", "core.moves",
        "verify.transitions", "verify.dedup_hits",
        "runtime.frames_out", "runtime.records_out", "runtime.retries",
        "runtime.dup_data_acked", "runtime.stale_records_dropped",
        "runtime.records_dropped",
    )
] + [
    ("verify.states", "count", "higher"),
    ("verify.skipped_selections", "count", "higher"),
    ("statemodel.enabled_per_step", "ratio", "higher"),
    ("statemodel.moves_per_guard_eval", "ratio", "higher"),
    ("verify.new_state_ratio", "ratio", "higher"),
    ("verify.por_admit_ratio", "ratio", "lower"),
    ("runtime.records_per_frame", "ratio", "higher"),
    ("runtime.retransmit_ratio", "ratio", "lower"),
    ("runtime.delivery_efficiency", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.closure", "ratio", "higher"),
]
