"""Overhead of the failure-model machinery when nothing actually fails.

The robustness layers (fault plan, retry supervision, partition gate,
health-aware routing) sit on the per-message hot path, so their cost must
be paid even on a perfectly healthy overlay. This bench runs the same
supervised-walk workload twice — once bare, once with a no-op
:class:`~repro.network.faults.FaultPlan`, an empty
:class:`~repro.network.partitions.PartitionPlan`, retry supervision, and
:class:`~repro.network.health.HealthConfig` all engaged — and asserts the
machinery costs < 15% wall-clock over the bare runtime while drawing
bit-identical samples (the RNG-transparency contract).

Writes ``benchmarks/results/fault_overhead.json``, which
``collect_results.py`` promotes to ``BENCH_faults.json`` at the repo
root; CI runs this module standalone (``python
benchmarks/bench_fault_overhead.py --json-out BENCH_faults.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.health import HealthConfig
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan, PartitionSchedule
from repro.network.topology import power_law_topology
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import SimulationEngine

OVERHEAD_BUDGET = 0.15


def _run_workload(
    instrumented: bool,
    seed: int,
    n_nodes: int,
    n_walks: int,
    walk_length: int,
) -> tuple[list[int], float]:
    """One workload run; returns (samples, wall-clock seconds)."""
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        SimulationEngine(),
        np.random.default_rng(seed + 1),
        MessageLedger(),
        ProtocolConfig(variant="bounce"),
        # all machinery engaged, none of it injecting anything: the noop
        # fault plan draws nothing, the empty partition plan blocks
        # nothing, the timeout is too large to ever fire
        faults=FaultPlan(FaultConfig(), rng=seed + 100) if instrumented else None,
        retry=(
            RetryPolicy(timeout=1_000_000, max_retries=0)
            if instrumented
            else None
        ),
        partitions=(
            PartitionPlan(PartitionSchedule(), rng=seed + 101)
            if instrumented
            else None
        ),
        health=HealthConfig() if instrumented else None,
    )
    start = time.perf_counter()
    sampled = sampler.run_walks(origin=0, n=n_walks, walk_length=walk_length)
    return sampled, time.perf_counter() - start


def _spread(times: list[float]) -> dict[str, float]:
    """Five-number summary of one side's repeat timings."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "min": min(times),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(times),
    }


def measure(
    seed: int = 0,
    n_nodes: int = 64,
    n_walks: int = 150,
    walk_length: int = 25,
    repeats: int = 21,
) -> dict[str, object]:
    """Median-of-repeats comparison; clean and instrumented interleaved.

    Each repeat runs both sides back to back and alternates which goes
    first, so neither side always pays the warm-up of the pair.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    samples: dict[bool, list[int]] = {False: [], True: []}
    for repeat in range(repeats):
        first = repeat % 2 == 1
        for instrumented in (first, not first):
            samples[instrumented], elapsed = _run_workload(
                instrumented, seed, n_nodes, n_walks, walk_length
            )
            times[instrumented].append(elapsed)
    clean = statistics.median(times[False])
    instrumented = statistics.median(times[True])
    return {
        "workload": {
            "n_nodes": n_nodes,
            "n_walks": n_walks,
            "walk_length": walk_length,
            "repeats": repeats,
            "seed": seed,
        },
        "clean_seconds": clean,
        "instrumented_seconds": instrumented,
        "clean_spread": _spread(times[False]),
        "instrumented_spread": _spread(times[True]),
        "overhead": (instrumented - clean) / clean,
        "overhead_budget": OVERHEAD_BUDGET,
        "samples_identical": samples[False] == samples[True],
    }


def test_fault_machinery_overhead(results_dir):
    payload = measure()
    path = results_dir / "fault_overhead.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[json saved to {path}]")
    # the noop machinery must be RNG-transparent and nearly free
    assert payload["samples_identical"]
    assert payload["overhead"] < OVERHEAD_BUDGET, (
        f"failure-model machinery costs {payload['overhead']:.1%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).parent / "results" / "fault_overhead.json"),
        help="where to write the machine-readable payload",
    )
    args = parser.parse_args(argv)
    payload = measure(seed=args.seed, repeats=args.repeats)
    out = Path(args.json_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"clean {payload['clean_seconds']:.3f}s, instrumented "
        f"{payload['instrumented_seconds']:.3f}s, overhead "
        f"{payload['overhead']:.1%} (budget {OVERHEAD_BUDGET:.0%}) "
        f"-> {out}"
    )
    if not payload["samples_identical"]:
        print("FAIL: noop machinery perturbed the sampled nodes")
        return 1
    if payload["overhead"] >= OVERHEAD_BUDGET:
        print("FAIL: overhead budget exceeded")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
