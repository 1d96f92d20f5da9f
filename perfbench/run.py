"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-churn --seed 0 --seconds 40 --trace 0

A workload is a batch of units (seeded instances of its system).  The
benchmark repeats rounds over the batch, each unit set up and run once
per round, until ``--seconds`` have passed; it checks every iteration's
output, prints a readable table and then, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``: ``run_s`` sums
each unit's fastest run, ``setup_s`` each unit's median set-up.  With
``--trace 1`` untraced and traced iterations alternate, the metrics are
the per-layer ones (medians over the traced iterations), and the traced
iterations' span aggregates are written to ``.perfbench/`` at the end.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics, measured with tracing off: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: Units of the per-workload rates printed next to the end-to-end table.
RATE_UNITS = {"msgs_per_s": "msg/s", "steps_per_s": "steps/s", "states_per_s": "states/s"}


def _iteration(workload, seed: int, unit: int, size: str, tracer=None) -> Dict[str, Any]:
    """Set up, make the timed call and judge it.  Only the numbers are
    kept: holding whole outcomes (thousands of runtime events each) across iterations
    would grow the heap, and with it the peak memory and the collector's
    work inside later timed calls."""
    from bench_trace import rebound
    from bench_workloads import layer_metrics, layer_targets

    gc.collect()
    started = perf_counter()
    prepared = workload.setup(seed, unit, size)
    setup_s = perf_counter() - started
    gc.collect()
    if tracer is None:
        started = perf_counter()
        out = workload.run(prepared)
        run_s = perf_counter() - started
    else:
        with rebound(layer_targets(tracer)):
            started = perf_counter()
            out = workload.run(prepared, tracer)
            run_s = perf_counter() - started
    return {
        "unit": unit,
        "setup_s": setup_s,
        "run_s": run_s,
        "verdict": workload.verdict(prepared, out, seed, unit, size),
        "layers": None if tracer is None else layer_metrics(tracer, out, run_s),
    }


def _fastest(iterations: List[Dict[str, Any]], units: int) -> List[Dict[str, Any]]:
    """Each unit's fastest iteration, in unit order.  On a shared host the
    slower repetitions measure the neighbours; the fastest is the program."""
    return [
        min((it for it in iterations if it["unit"] == unit), key=lambda it: it["run_s"])
        for unit in range(units)
    ]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Dict[str, Any]:
    """Run ``name`` for ``seconds`` (at least one round over its batch) and
    return the result object the benchmark prints, plus readable report
    lines."""
    from bench_trace import Tracer
    from bench_workloads import PER_LAYER, WORKLOADS

    workload = WORKLOADS[name]
    units = workload.sizes[size]["units"]
    plain: List[Dict[str, Any]] = []
    traced: List[Tuple[Dict[str, Any], Tracer]] = []
    started = perf_counter()
    while True:
        for unit in range(units):
            plain.append(_iteration(workload, seed, unit, size))
            if trace:
                tracer = Tracer()
                traced.append((_iteration(workload, seed, unit, size, tracer), tracer))
        if perf_counter() - started >= seconds:
            break

    verdicts = [it["verdict"] for it in plain] + [it["verdict"] for it, _ in traced]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = [p for v in verdicts for p in v.problems]
    fastest = _fastest(plain, units)
    run_s = sum(it["run_s"] for it in fastest)
    lines = [
        f"{name}: seed {seed}, size {size}, {units} unit(s), {len(plain)} untraced"
        + (f" + {len(traced)} traced" if trace else "")
        + f" iterations in {perf_counter() - started:.1f} s",
    ]
    for unit in range(units):
        times = sorted(it["run_s"] for it in plain if it["unit"] == unit)
        lines.append(
            f"  unit {unit} run_s over {len(times)}: min {times[0]:.4f}"
            f" median {statistics.median(times):.4f} max {times[-1]:.4f}"
        )

    if not trace:
        setup_s = sum(
            statistics.median(it["setup_s"] for it in plain if it["unit"] == unit)
            for unit in range(units)
        )
        work = {key: sum(it["verdict"].work[key] for it in fastest) for key in fastest[0]["verdict"].work}
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "work_per_s": work[workload.work] / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
        shown = [(k, metrics[k], u) for k, u in END_TO_END]
        for rate, unit_key in workload.rates.items():
            shown.append((rate, work[unit_key] / run_s, RATE_UNITS[rate]))
        shown.append(("fail_frac", failed / max(attempted, 1), "ratio"))
    else:
        per_iteration = [it["layers"] for it, _ in traced]
        names = list(per_iteration[0])
        layers = {
            k: (statistics.median(m[k][0] for m in per_iteration), per_iteration[0][k][1])
            for k in names
        }
        traced_run_s = sum(it["run_s"] for it in _fastest([it for it, _ in traced], units))
        layers["trace.overhead"] = (traced_run_s / run_s, "ratio")
        result_metrics = {k: {"value": layers[k][0], "unit": u} for k, u, _ in PER_LAYER}
        shown = [("run_s (untraced)", run_s, "s"), ("run_s (traced)", traced_run_s, "s")]
        shown += [(k, v, u) for k, (v, u) in layers.items() if v]
        _write_trace(name, seed, size, traced, per_iteration)

    width = max(len(k) for k, _, _ in shown)
    lines += [f"  {k:<{width}}  {v:>14.6g} {u}" for k, v, u in shown]
    lines.append(f"  correct: {failed == 0} ({failed} of {attempted} operations failed)")
    lines += [f"  FAIL {p}" for p in problems[:20]]
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result_metrics,
        },
    }


def _write_trace(name, seed, size, traced, per_iteration) -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rows = [
        {
            "iteration": i,
            "unit": it["unit"],
            "run_s": it["run_s"],
            "spans": tracer.summary(),
            "counts": dict(tracer.counts),
            "layers": {k: v for k, (v, _) in metrics.items()},
        }
        for i, ((it, tracer), metrics) in enumerate(zip(traced, per_iteration))
    ]
    path = out_dir / f"trace-{name}-seed{seed}-{size}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "size": size, "iterations": rows}, indent=1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's size; pinned counts hold for both")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
