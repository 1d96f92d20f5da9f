"""Experiment P6 — Proposition 6: the delay (waiting time before the first
emission) and the waiting time (between consecutive emissions) are
O(max(R_A, Δ^D)) rounds.

A processor wanting to generate competes for its own reception buffer with
up to Δ forwarding neighbors (``choice`` fairness bounds the bypass by Δ,
and each bypass costs one buffer-release, itself bounded by Proposition 5).
The experiment saturates a middle processor with through-traffic while it
tries to emit a stream of its own messages, and measures, in rounds:

* the delay of the *first* generation (request raised -> R1 executed), and
* the maximum waiting time between consecutive generations,

in both the correct-tables and the corrupted-tables regimes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.app.workload import Workload
from repro.network.properties import diameter, max_degree
from repro.network.topologies import grid_network, line_network, ring_network, star_network
from repro.sim.metrics import RoundClock
from repro.sim.reporting import format_table
from repro.sim.runner import build_simulation, delivered_and_drained

TOPOLOGIES = {
    "line(7)": (lambda: line_network(7), 3),      # middle of the path
    "ring(8)": (lambda: ring_network(8), 0),
    "star(8)": (lambda: star_network(8), 0),      # the center itself
    "grid(3x3)": (lambda: grid_network(3, 3), 4),  # center of the mesh
}


def run_one(topology: str, corrupted: bool, seed: int, stream: int = 4) -> Dict[str, object]:
    """Saturate the chosen emitter with through-traffic; measure its
    generation delay and waiting times."""
    builder, emitter = TOPOLOGIES[topology]
    net = builder()
    # Through-traffic: every other processor sends 2 messages to the
    # emitter's neighbors (so the flows cross the emitter's buffers), and
    # the emitter itself streams `stream` messages to its farthest... use
    # a fixed remote destination: the highest id != emitter.
    dest = net.n - 1 if emitter != net.n - 1 else net.n - 2
    subs = []
    for i in range(stream):
        subs.append((0, emitter, f"own{i}", dest))
    for p in net.processors():
        if p in (emitter, dest):
            continue
        subs.append((0, p, f"bg{p}.0", dest))
        subs.append((0, p, f"bg{p}.1", dest))
    workload = Workload("saturation", subs)

    sim = build_simulation(
        net,
        workload=workload,
        routing_corruption={"kind": "worst", "seed": seed} if corrupted else None,
        garbage={"fraction": 0.3, "seed": seed} if corrupted else None,
        seed=seed,
    )
    # Generation steps of the emitter's own messages, in order.
    gen_steps: List[int] = []
    request_step: Optional[int] = None
    stab_round: Optional[int] = None
    for _ in range(3_000_000):
        if delivered_and_drained(sim):
            break
        if request_step is None and sim.hl.request[emitter]:
            request_step = sim.sim.step_count
        if stab_round is None and sim.routing.is_correct():
            stab_round = sim.sim.round_count
        report = sim.step()
        if report.terminal and not sim._fast_forward_workload():
            break
    assert sim.ledger.all_valid_delivered()

    for uid in range(1, sim.ledger.generated_count + 1):
        info = sim.ledger.generation_info(uid)
        if info is not None and info[0] == emitter:
            gen_steps.append(info[2])
    gen_steps.sort()

    clock = RoundClock(sim.sim.round_ends)
    first_round = clock.round_of_step(gen_steps[0])
    delay = first_round - clock.round_of_step(request_step or 0)
    waits = [
        clock.round_of_step(b) - clock.round_of_step(a)
        for a, b in zip(gen_steps, gen_steps[1:])
    ]
    delta = max_degree(net)
    diam = diameter(net)
    return {
        "topology": topology,
        "delta": delta,
        "D": diam,
        "delta^D": delta ** diam,
        "tables": "corrupted" if corrupted else "correct",
        "R_A_rounds": stab_round if corrupted else 0,
        "delay_rounds": delay,
        "max_wait_rounds": max(waits) if waits else 0,
        "generated": len(gen_steps),
    }


def run_prop6(seeds=(1, 2, 3)) -> List[Dict[str, object]]:
    """Sweep topology x regime, worst seed kept."""
    rows: List[Dict[str, object]] = []
    for topology in TOPOLOGIES:
        for corrupted in (False, True):
            worst = None
            for seed in seeds:
                row = run_one(topology, corrupted, seed)
                key = row["delay_rounds"] + row["max_wait_rounds"]
                if worst is None or key > worst["delay_rounds"] + worst["max_wait_rounds"]:
                    worst = row
            bound = max(worst["R_A_rounds"] or 0, worst["delta^D"])
            worst["bound"] = bound
            worst["within"] = (
                worst["delay_rounds"] <= 3 * bound + 3 * worst["D"]
                and worst["max_wait_rounds"] <= 3 * bound + 3 * worst["D"]
            )
            rows.append(worst)
    return rows


def main(seeds=(1, 2, 3)) -> str:
    """Regenerate the Proposition-6 table."""
    return format_table(
        run_prop6(seeds),
        columns=[
            "topology", "delta", "D", "delta^D", "tables", "R_A_rounds",
            "delay_rounds", "max_wait_rounds", "generated", "bound", "within",
        ],
        title="P6 / Proposition 6 - generation delay and waiting time "
              "(rounds) under saturation, worst of seeds",
    )


if __name__ == "__main__":
    print(main())
