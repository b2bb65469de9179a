#!/usr/bin/env python3
"""Digest benchmark: end-to-end and per-layer metrics on four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py                      # every workload, both runs
    python3 perfbench/run.py --workload lossy_churn --seed 3 --seconds 10 --trace 0

``--trace 0`` is the untraced run: it measures the end-to-end metrics.
``--trace 1`` is the traced run: the same workload and seed once untraced
and once with every layer wrapped, reporting each layer's self time and
counts. Both print a human-readable report and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The spans of the traced run go to
``.perfbench/<workload>-seed<seed>.spans.jsonl``.

A run fails (exit code 1) when an answer misses its correctness checks,
when a query's coverage is implausibly low for its promised confidence,
when two repeats of one seed disagree on any exact count, or when the
traced and untraced runs of one seed differ in any estimate bit.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: scipy's ARPACK and numpy must not oversubscribe
# the cores the closed loop runs on; set before numpy is imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import ratio  # noqa: E402

#: offset between the derived seeds of a run's extra set-ups
SETUP_SEED_STRIDE = 100_003
#: measured ticks of the short repeat that checks a single long repeat's
#: exact counts (every repeat records its counts at this tick)
CHECK_TICKS = 4

#: a run keeps to ``--seconds`` from here, the program's imports included
STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: listed in BENCHMARK.json: defined, never 0 and steady on every workload
    gated: bool = True


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("ticks_per_s", "1/s", "higher"),
    Metric("snapshots_per_s", "1/s", "higher"),
    # not gated: on large_overlay the walks a seed draws per tick vary with
    # its sample-size draws (run-to-run spread 0.17 at 32 ticks)
    Metric("walks_per_s", "1/s", "higher", gated=False),
    # a large_overlay tick builds two or three overlay snapshots, so its
    # step times have two modes and their order statistics jump between
    # them with the seed (p50 read 184-198 or 233-269 ms over ten seeds); the
    # mean moves only with the mix, so it carries the gate
    Metric("step_mean_ms", "ms", "lower"),
    Metric("step_p50_ms", "ms", "lower", gated=False),
    Metric("step_tail_ms", "ms", "lower", gated=False),
    Metric("messages_per_snapshot", "count", "lower"),
    Metric("messages_per_walk", "count", "lower"),
    Metric("walk_completion_rate", "ratio", "higher"),
    Metric("coverage", "ratio", "higher"),
    Metric("full_precision_fraction", "ratio", "higher"),
    Metric("degraded_fraction", "ratio", "lower", gated=False),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("hop_deliveries_per_s", "1/s", "higher", gated=False),
    Metric("batch_p50_ms", "ms", "lower", gated=False),
    Metric("batch_tail_ms", "ms", "lower", gated=False),
)


@dataclass
class Repeat:
    """One build of the workload plus its measured ticks."""

    traced: bool
    setup_s: float
    tick_s: list[float] = field(default_factory=list)
    #: step (or batch) host time of each measured tick that answered
    step_s: list[float] = field(default_factory=list)
    #: every answer, the set-up tick's included
    answers: list = field(default_factory=list)
    #: exact counts over the measured ticks
    window: dict[str, float] = field(default_factory=dict)
    #: exact counts over the first CHECK_TICKS measured ticks
    prefix: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] | None = None
    layer_table: dict | None = None

    @property
    def loop_s(self) -> float:
        return sum(self.tick_s)

    def exact_counts(self, prefix: bool = False) -> dict[str, object]:
        """What must repeat exactly for one seed, traced or not.

        ``prefix`` restricts the counts to the first CHECK_TICKS measured
        ticks, where a short check repeat can be compared with a long one.
        """
        totals = self.prefix if prefix else self.window
        answers = [
            answer
            for answer in self.answers
            if not prefix or answer.tick <= CHECK_TICKS
        ]
        digest = hashlib.sha256()
        for answer in answers:
            digest.update(
                struct.pack(
                    "<q8sd", answer.tick, answer.query.encode(), answer.estimate
                )
            )
        return {
            "messages": totals["messages"],
            "walks_completed": totals["walks_completed"],
            "walks_launched": totals["walks_launched"],
            "answers": len(answers),
            "degraded": sum(answer.degraded for answer in answers),
            "hits": sum(answer.hit for answer in answers),
            "estimates_sha256": digest.hexdigest(),
        }


def import_program() -> None:
    """Put the checkout's ``src`` on the path; exit 2 if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    # lazy imports paid once per process, not by the first timed set-up
    import networkx  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import repro  # noqa: F401


def run_repeat(
    workload,
    seed: int,
    traced: bool,
    ticks: int,
    turn: int = 0,
    spans_path: Path | None = None,
) -> Repeat:
    """Build the workload, run its set-up tick, then ``ticks`` measured ticks.

    Set-up and each tick run pinned to the next core in turn, starting at
    core ``turn``, so every repeat mixes the cores evenly.
    """
    from layers import ROOT_SETUP, ROOT_TICK, install, layer_metrics
    from spans import SpanRecorder, host_seconds

    gc.collect()
    cores = CoreRotation(turn)
    recorder = SpanRecorder() if traced else None
    instrumentation = install(recorder) if recorder is not None else None
    try:
        cores.pin_next()
        start = host_seconds()
        root = recorder.open(ROOT_SETUP) if recorder is not None else -1
        run = workload.build(seed, traced)
        _, output = run.advance(0, recorder)
        if recorder is not None:
            recorder.close(root)
        repeat = Repeat(traced=traced, setup_s=host_seconds() - start)
        repeat.answers.extend(run.answers(0, output))
        if ticks == 0:
            return repeat
        base = run.totals()
        setup_counts = dict(recorder.counts) if recorder is not None else {}
        window_answers = 0
        for tick in range(1, ticks + 1):
            cores.pin_next()
            start = host_seconds()
            root = recorder.open(ROOT_TICK) if recorder is not None else -1
            step_s, output = run.advance(tick, recorder)
            if recorder is not None:
                recorder.close(root)
            repeat.tick_s.append(host_seconds() - start)
            answers = run.answers(tick, output)
            if answers:
                repeat.step_s.append(step_s)
            window_answers += len(answers)
            repeat.answers.extend(answers)
            if tick == CHECK_TICKS:
                repeat.prefix = _since(base, run.totals())
        end = run.totals()
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
        cores.restore()
    repeat.window = _since(base, end)
    repeat.window["answers"] = window_answers
    if recorder is not None:
        repeat.layer, repeat.layer_table = layer_metrics(
            recorder, setup_counts, ticks, _facts(repeat.window, end)
        )
        if spans_path is not None:
            recorder.dump(spans_path)
    return repeat


def _tick_medians(series: list[list[float]]) -> list[float]:
    """Per position, the median of the repeats' values at that position."""
    return [statistics.median(column) for column in zip(*series, strict=True)]


def _since(base: dict[str, float], now: dict[str, float]) -> dict[str, float]:
    return {key: now[key] - base.get(key, 0) for key in now}


def _facts(window: dict[str, float], end: dict[str, float]) -> dict[str, float]:
    """Per-layer counts read from public state over the measured window."""
    facts = {
        "pool.hit_rate": ratio(
            window.get("pool_hits", 0),
            window.get("pool_hits", 0) + window.get("pool_misses", 0),
        ),
        "protocol.drops": window.get("protocol_drops", 0),
        "protocol.events": window.get("protocol_events", 0),
        "protocol.attempts_per_completion": ratio(
            window.get("protocol_attempts", 0), window.get("walks_completed", 0)
        )
        if "protocol_attempts" in window
        else 0.0,
        "protocol.timeouts": window.get("protocol_timeouts", 0),
    }
    if "spectral_ns" in end:
        # the profiler section spans the whole repeat, set-up included
        facts["mixing.spectral_ns"] = end["spectral_ns"]
    return facts


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


#: a query fails its coverage check when so few of its answers hit that a
#: query keeping its promise would score this low less often than this
COVERAGE_FALSE_ALARM = 1e-6


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def check(repeats: list[Repeat]) -> tuple[list[str], int]:
    """(failed check descriptions, answers failing a per-answer check)."""
    failures: list[str] = []
    bad_answers = 0
    for answer in repeats[0].answers:
        if not math.isfinite(answer.estimate):
            bad_answers += 1
        elif answer.degraded and (
            answer.achieved_epsilon is None or not answer.achieved_epsilon > 0
        ):
            bad_answers += 1
    if bad_answers:
        failures.append(
            f"{bad_answers} answers are not finite or are degraded without "
            f"achieved_epsilon"
        )
    by_query: dict[str, list] = {}
    for answer in repeats[0].answers:
        by_query.setdefault(answer.query, []).append(answer)
    for query, answers in sorted(by_query.items()):
        # each answer of a query keeping its promise hits with probability
        # >= p; fail only on a hit count that is implausible under that
        hits = sum(a.hit for a in answers)
        chance = binomial_cdf(hits, len(answers), answers[0].confidence)
        if chance < COVERAGE_FALSE_ALARM:
            failures.append(
                f"coverage of {query} is {hits}/{len(answers)}: "
                f"P(<= {hits} hits | p = {answers[0].confidence}) = {chance:.2g}"
            )
    first = repeats[0]
    for index, repeat in enumerate(repeats[1:], start=1):
        # a short check repeat is compared over the ticks it ran
        prefix = len(repeat.tick_s) != len(first.tick_s)
        reference = first.exact_counts(prefix)
        counts = repeat.exact_counts(prefix)
        for key, value in reference.items():
            if counts[key] != value:
                kind = "traced" if repeat.traced != repeats[0].traced else "repeat"
                failures.append(
                    f"{kind} {index} differs from repeat 0 in {key}: "
                    f"{counts[key]} != {value}"
                )
    return failures, bad_answers


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(workload, repeats: list[Repeat], setups: list[float]) -> dict[str, dict]:
    """Every end-to-end metric: its value plus its spread across repeats."""
    from stats import percentile, spread, tail_percentile

    repeats = [r for r in repeats if len(r.tick_s) == workload.ticks]
    first = repeats[0]
    window = first.window
    answers = first.answers
    # only the message protocol knows which hops were dropped
    protocol = "messages_delivered" in window
    # repeats of one seed replay the same ticks, so only one repeat's
    # ticks are distinct samples of the workload's step times
    tail_q = tail_percentile(len(first.step_s))
    # repeats of one seed replay identical ticks, so each tick's median
    # across repeats drops the repeat that a burst of other tenants' load
    # on the shared host slowed at that moment; the values come from these
    # median ticks, the spread from each repeat's own
    loop_s = sum(_tick_medians([r.tick_s for r in repeats]))
    step_s = _tick_medians([r.step_s for r in repeats])
    per_repeat = {
        "ticks_per_s": [len(r.tick_s) / r.loop_s for r in repeats],
        "snapshots_per_s": [r.window["answers"] / r.loop_s for r in repeats],
        "walks_per_s": [r.window["walks_completed"] / r.loop_s for r in repeats],
        "step_mean_ms": [1e3 * statistics.fmean(r.step_s) for r in repeats],
        "step_p50_ms": [1e3 * statistics.median(r.step_s) for r in repeats],
        "step_tail_ms": [1e3 * percentile(r.step_s, tail_q) for r in repeats],
    }
    values = {
        "ticks_per_s": workload.ticks / loop_s,
        "snapshots_per_s": window["answers"] / loop_s,
        "walks_per_s": window["walks_completed"] / loop_s,
        "step_mean_ms": 1e3 * statistics.fmean(step_s),
        "step_p50_ms": 1e3 * statistics.median(step_s),
        "step_tail_ms": 1e3 * percentile(step_s, tail_q),
    }
    degraded = sum(a.degraded for a in answers) / len(answers)
    exact = {
        "messages_per_snapshot": ratio(window["messages"], window["answers"]),
        "messages_per_walk": ratio(window["messages"], window["walks_completed"]),
        "walk_completion_rate": ratio(
            window["walks_completed"], window["walks_launched"]
        ),
        "coverage": sum(a.hit for a in answers) / len(answers),
        "full_precision_fraction": 1.0 - degraded,
        "degraded_fraction": degraded,
    }
    values.update(exact)
    per_repeat["setup_s"] = setups
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if protocol:
        per_repeat["hop_deliveries_per_s"] = [
            r.window["messages_delivered"] / r.loop_s for r in repeats
        ]
        values["hop_deliveries_per_s"] = window["messages_delivered"] / loop_s
        per_repeat["batch_p50_ms"] = per_repeat["step_p50_ms"]
        per_repeat["batch_tail_ms"] = per_repeat["step_tail_ms"]
        values["batch_p50_ms"] = values["step_p50_ms"]
        values["batch_tail_ms"] = values["step_tail_ms"]
    result: dict[str, dict] = {}
    for metric in END_TO_END:
        if metric.name not in values:
            continue
        entry: dict = {"value": values[metric.name], "unit": metric.unit}
        series = per_repeat.get(metric.name)
        entry["spread"] = (
            spread(series) if series else spread([values[metric.name]])
        )
        if metric.name in ("step_tail_ms", "batch_tail_ms"):
            entry["percentile"] = tail_q
            entry["samples"] = len(first.step_s)
        result[metric.name] = entry
    return result


# ----------------------------------------------------------------------
# driving one workload
# ----------------------------------------------------------------------


class CoreRotation:
    """Pins the loop to the next CPU of the allowed set, in turn.

    On a shared host one core can run a third slower than another for
    minutes at a time; a run that stayed on whichever core the scheduler
    picked would inherit that core's speed. Rotating gives every run the
    same mix of cores.
    """

    def __init__(self, turn: int = 0) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self._turn = turn

    def pin_next(self) -> None:
        core = self.allowed[self._turn % len(self.allowed)]
        os.sched_setaffinity(0, {core})
        self._turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, set(self.allowed))


def _fits(started: float, seconds: float, done: int) -> bool:
    """Does one more of ``done`` equal rounds fit in the measuring time?"""
    elapsed = time.perf_counter() - started
    return elapsed + (elapsed / done if done else 0.0) <= seconds


def measure(workload, seed: int, seconds: float) -> tuple[list[Repeat], list[float]]:
    """Untraced repeats for the end-to-end metrics, plus extra set-ups.

    A short warm-up repeat of the same seed runs first: it pays the
    process's first-use costs outside the measured repeats, and its exact
    counts are checked against the first ticks of the full repeats. Full
    repeats continue while the measuring time lasts, less the time the
    remaining set-ups will take, so the whole run keeps to ``seconds``.
    """
    warm_up = run_repeat(workload, seed, False, CHECK_TICKS)
    repeats: list[Repeat] = []
    durations: list[float] = []

    def fits() -> bool:
        """Do one more repeat and the set-ups still due fit in the time?"""
        pending = max(workload.min_setups - len(repeats) - 1, 0)
        setup = statistics.median(r.setup_s for r in repeats)
        left = seconds - (time.perf_counter() - STARTED)
        return max(durations) + pending * setup <= left

    while len(repeats) < workload.min_repeats or (
        len(repeats) < workload.max_repeats and fits()
    ):
        begun = time.perf_counter()
        repeats.append(
            run_repeat(workload, seed, False, workload.ticks, turn=len(repeats))
        )
        durations.append(time.perf_counter() - begun)
    setups = [repeat.setup_s for repeat in repeats]
    # checked like any repeat; end_to_end skips it as it is short
    repeats.append(warm_up)
    while len(setups) < workload.min_setups:
        # the first tick's work depends on the seed (lossy redraws);
        # extra set-ups draw derived seeds so the median averages it
        derived = seed + SETUP_SEED_STRIDE * len(setups)
        setups.append(run_repeat(workload, derived, False, 0, turn=len(setups)).setup_s)
    return repeats, setups


def trace(workload, seed: int, seconds: float) -> list[Repeat]:
    """Pairs of one untraced and one traced repeat of the same seed.

    Both repeats of a pair visit the cores in the same order.
    """
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl"
    repeats: list[Repeat] = []
    while not repeats or (len(repeats) < 4 and _fits(STARTED, seconds, len(repeats) // 2)):
        turn = len(repeats) // 2
        repeats.append(run_repeat(workload, seed, False, workload.ticks, turn=turn))
        repeats.append(
            run_repeat(
                workload,
                seed,
                True,
                workload.ticks,
                turn=turn,
                spans_path=spans_path if turn == 0 else None,
            )
        )
    return repeats


def per_layer(repeats: list[Repeat]) -> dict[str, float]:
    from layers import PER_LAYER

    traced = [r for r in repeats if r.traced]
    untraced = [r for r in repeats if not r.traced]
    values = {
        metric.name: statistics.median(r.layer[metric.name] for r in traced)
        for metric in PER_LAYER
        if metric.name != "tracing.overhead_ratio"
    }
    # repeats alternate untraced, traced on one core per pair
    values["tracing.overhead_ratio"] = statistics.median(
        t.loop_s / u.loop_s for u, t in zip(untraced, traced)
    )
    return values


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def print_end_to_end(workload, metrics: dict[str, dict]) -> None:
    print(f"== {workload.name}: end-to-end (untraced) ==")
    print(
        f"{'metric':<26}{'unit':<7}{'value':>12}{'min':>12}{'q1':>12}"
        f"{'median':>12}{'q3':>12}{'max':>12}{'n':>4}"
    )
    for metric in END_TO_END:
        if metric.name not in metrics:
            print(f"{metric.name:<26}{metric.unit:<7}{'n/a':>12}  (protocol only)")
            continue
        entry = metrics[metric.name]
        s = entry["spread"]
        line = (
            f"{metric.name:<26}{metric.unit:<7}{_fmt(entry['value']):>12}"
            f"{_fmt(s['min']):>12}{_fmt(s['q1']):>12}{_fmt(s['median']):>12}"
            f"{_fmt(s['q3']):>12}{_fmt(s['max']):>12}{s['n']:>4}"
        )
        if "percentile" in entry:
            line += f"  p{entry['percentile']:g} of {entry['samples']} samples"
        print(line)


def print_layers(workload, repeats: list[Repeat], values: dict[str, float]) -> None:
    from layers import LAYERS, PER_LAYER

    traced = next(r for r in repeats if r.traced)
    table = traced.layer_table
    wall = table["loop"].total_ns if "loop" in table else 0
    print(f"== {workload.name}: per-layer self time (traced, {len(traced.tick_s)} ticks) ==")
    print(f"{'layer':<28}{'calls':>10}{'total_s':>12}{'self_s':>12}{'share':>8}")
    for layer in LAYERS:
        entry = table.get(layer)
        if entry is None:
            continue
        print(
            f"{layer:<28}{entry.calls:>10}{entry.total_ns / 1e9:>12.4f}"
            f"{entry.self_ns / 1e9:>12.4f}{ratio(entry.self_ns, wall):>8.1%}"
        )
    print(f"== {workload.name}: per-layer metrics ==")
    for metric in PER_LAYER:
        print(f"{metric.name:<34}{metric.unit:<7}{_fmt(values[metric.name]):>14}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    from workloads import WORKLOADS

    import_program()
    workload = WORKLOADS[name]
    if traced:
        repeats = trace(workload, seed, seconds)
        metrics = per_layer(repeats)
        print_layers(workload, repeats, metrics)
        from layers import PER_LAYER

        units = {m.name: m.unit for m in PER_LAYER}
        payload_metrics = {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        }
        summary = {"per_layer": metrics}
    else:
        repeats, setups = measure(workload, seed, seconds)
        full = end_to_end(workload, repeats, setups)
        print_end_to_end(workload, full)
        gated = {m.name for m in END_TO_END if m.gated}
        payload_metrics = {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in full.items()
            if key in gated
        }
        summary = {"end_to_end": full}
    failures, bad_answers = check(repeats)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print(
            f"checks: {len(repeats)} repeats agree on every exact count"
            + (", traced estimates bit-identical" if traced else "")
            + ", coverage plausible under each query's p"
            + ", degraded answers carry achieved_epsilon"
        )
    attempted = sum(len(r.answers) for r in repeats)
    OUT_DIR.mkdir(exist_ok=True)
    summary.update(
        workload=name,
        seed=seed,
        trace=int(traced),
        repeats=len(repeats),
        exact_counts=repeats[0].exact_counts(),
        failures=failures,
    )
    (OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": bad_answers * len(repeats),
                "metrics": payload_metrics,
            }
        )
    )
    return 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    failed = []
    for name in WORKLOADS:
        for traced in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(traced),
            ]
            if subprocess.run(command, check=False).returncode != 0:
                failed.append(f"{name} --trace {traced}")
    print(json.dumps({"correct": not failed, "failed_runs": failed}))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
