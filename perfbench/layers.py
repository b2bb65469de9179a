"""Per-layer instrumentation from outside the program.

For the traced run the benchmark wraps public functions of each layer
(named after the modules under ``src/repro``) so that every call records
a span, or — for calls made ~10^5 times per run — only bumps a counter.
Wrappers read the clock and their arguments and results; they never
touch an RNG, so a traced run takes the same random path as an untraced
one (the benchmark checks this by comparing estimates bit for bit).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from spans import LayerTime, SpanRecorder, layer_times, root_of, self_times
from stats import ratio

Observer = Callable[[SpanRecorder, tuple, dict, Any], None]

#: root spans the benchmark itself opens around each closed-loop phase
ROOT_SETUP = "loop.setup"
ROOT_TICK = "loop.tick"
#: the world's database writes for one tick (opened by the benchmark)
WORLD_STEP = "db.world_step"

#: span name -> layer; names are "<module>.<function>"
LAYER_OF_SPAN = {
    ROOT_SETUP: "loop",
    ROOT_TICK: "loop",
    WORLD_STEP: "db",
    "core.session.DigestSession.step": "core.session",
    "core.independent.IndependentEvaluator.evaluate": "core.evaluator",
    "core.repeated.RepeatedEvaluator.evaluate": "core.evaluator",
    "core.scheduler.ExtrapolationScheduler.next_time": "core.scheduler",
    "core.scheduler.ContinuousScheduler.next_time": "core.scheduler",
    "sampling.pool.SamplePool.acquire": "sampling.pool",
    "sampling.pool.SamplePool.prefetch": "sampling.pool",
    "sampling.operator.SamplingOperator.sample_tuples": "sampling.operator.tuples",
    "sampling.operator.SamplingOperator.sample_nodes": "sampling.operator.nodes",
    "sampling.walker.WalkContext.from_graph": "sampling.walker.snapshot",
    "sampling.walker.WalkContext.from_subgraph": "sampling.walker.snapshot",
    "network.graph.OverlayGraph.csr": "network.graph.csr",
    "network.graph.OverlayGraph.hop_distances": "network.graph.bfs",
    "sampling.walker.batch_walk": "sampling.walker.kernel",
    "sampling.mixing.sparse_transition_matrix": "sampling.mixing",
    "sampling.mixing.eigengap_sparse": "sampling.mixing",
    "network.faults.FaultPlan.walk_lost": "network.faults",
    "obs.tracer.RunMetricsSink.on_span_end": "obs",
    "obs.tracer.RunMetricsSink.on_event": "obs",
    "obs.live.LivePipeline.on_span_end": "obs",
    "obs.live.LivePipeline.on_event": "obs",
    "obs.alerts.AlertEngine.on_window": "obs",
    "protocol.runtime.ProtocolSampler.run_walk_batch": "protocol",
}

#: every layer, in the order the report prints them
LAYERS = (
    "loop",
    "db",
    "core.session",
    "core.evaluator",
    "core.scheduler",
    "sampling.pool",
    "sampling.operator.tuples",
    "sampling.operator.nodes",
    "sampling.walker.snapshot",
    "network.graph.csr",
    "network.graph.bfs",
    "sampling.walker.kernel",
    "sampling.mixing",
    "network.faults",
    "obs",
    "protocol",
)


def layer_of(span_name: str) -> str:
    return LAYER_OF_SPAN[span_name]


class Instrumentation:
    """Installs span and counter wrappers; :meth:`uninstall` restores all."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def timed(
        self,
        owner: Any,
        attr: str,
        span_name: str,
        observe: Observer | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``."""
        recorder = self.recorder

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = recorder.open(span_name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    recorder.close(index)
                if observe is not None:
                    observe(recorder, args, kwargs, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def counted(self, owner: Any, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        counts = self.recorder.counts

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[key] += 1
                return func(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


# ----------------------------------------------------------------------
# observers: per-call work sizes, read from arguments and results only
# ----------------------------------------------------------------------


def _observe_nodes(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    # SamplingOperator.sample_nodes(self, weight, n, origin)
    requested = kwargs["n"] if "n" in kwargs else args[2]
    rec.count("operator.nodes.requested", requested)
    rec.count("operator.nodes.delivered", len(result))


def _observe_kernel(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    # batch_walk(context, start_positions, steps, rng, ...)
    agents = len(args[1]) if len(args) > 1 else len(kwargs["start_positions"])
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    rec.count("kernel.agents", agents)
    rec.count("kernel.agent_steps", agents * steps)


def _observe_snapshot(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("snapshot.nodes", result.n_nodes)


def _observe_schedule(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    # next_time(self, history, now) -> next due tick
    now = args[2] if len(args) > 2 else kwargs["now"]
    gap = int(result) - int(now)
    rec.count("scheduler.ticks_covered", gap)
    rec.count("scheduler.ticks_skipped", max(0, gap - 1))


def _observe_walk_lost(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    if result:
        rec.count("faults.walks_lost")


def install(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every instrumented layer; returns the handle that undoes it."""
    from repro.core.independent import IndependentEvaluator
    from repro.core.repeated import RepeatedEvaluator
    from repro.core.scheduler import ContinuousScheduler, ExtrapolationScheduler
    from repro.core.session import DigestSession
    from repro.db.relation import P2PDatabase
    from repro.db.store import LocalStore
    from repro.network.faults import FaultLog, FaultPlan
    from repro.network.graph import OverlayGraph
    from repro.obs.alerts import AlertEngine
    from repro.obs.live import LivePipeline
    from repro.obs.tracer import RunMetricsSink
    from repro.protocol.runtime import ProtocolSampler
    from repro.protocol.transport import SimTransport
    from repro.sampling import importance, mixing, operator, walker
    from repro.sampling.operator import SamplingOperator
    from repro.sampling.pool import SamplePool
    from repro.sampling.walker import WalkContext

    inst = Instrumentation(recorder)
    timed = inst.timed
    timed(DigestSession, "step", "core.session.DigestSession.step")
    timed(IndependentEvaluator, "evaluate", "core.independent.IndependentEvaluator.evaluate")
    timed(RepeatedEvaluator, "evaluate", "core.repeated.RepeatedEvaluator.evaluate")
    for scheduler in (ExtrapolationScheduler, ContinuousScheduler):
        timed(
            scheduler,
            "next_time",
            f"core.scheduler.{scheduler.__name__}.next_time",
            _observe_schedule,
        )
    timed(SamplePool, "acquire", "sampling.pool.SamplePool.acquire")
    timed(SamplePool, "prefetch", "sampling.pool.SamplePool.prefetch")
    timed(SamplingOperator, "sample_tuples", "sampling.operator.SamplingOperator.sample_tuples")
    timed(
        SamplingOperator,
        "sample_nodes",
        "sampling.operator.SamplingOperator.sample_nodes",
        _observe_nodes,
    )
    for attr in ("from_graph", "from_subgraph"):
        timed(WalkContext, attr, f"sampling.walker.WalkContext.{attr}", _observe_snapshot)
    timed(OverlayGraph, "csr", "network.graph.OverlayGraph.csr")
    timed(OverlayGraph, "hop_distances", "network.graph.OverlayGraph.hop_distances")
    # batch_walk is bound by name into each module that imports it
    for module in (walker, operator, importance):
        timed(module, "batch_walk", "sampling.walker.batch_walk", _observe_kernel)
    timed(mixing, "sparse_transition_matrix", "sampling.mixing.sparse_transition_matrix")
    timed(mixing, "eigengap_sparse", "sampling.mixing.eigengap_sparse")
    timed(FaultPlan, "walk_lost", "network.faults.FaultPlan.walk_lost", _observe_walk_lost)
    for sink in (RunMetricsSink, LivePipeline):
        prefix = "obs.tracer" if sink is RunMetricsSink else "obs.live"
        timed(sink, "on_span_end", f"{prefix}.{sink.__name__}.on_span_end")
        timed(sink, "on_event", f"{prefix}.{sink.__name__}.on_event")
    timed(AlertEngine, "on_window", "obs.alerts.AlertEngine.on_window")
    timed(ProtocolSampler, "run_walk_batch", "protocol.runtime.ProtocolSampler.run_walk_batch")
    # hot calls: counted, their time lands in the enclosing span
    for attr in ("update", "insert", "delete"):
        inst.counted(P2PDatabase, attr, "db.writes")
    inst.counted(P2PDatabase, "store", "db.store_lookups")
    inst.counted(LocalStore, "sample_uniform", "db.reads")
    inst.counted(FaultLog, "record", "faults.records")
    inst.counted(SimTransport, "send", "protocol.sends")
    return inst


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str


#: Host time per layer is reported as a share of the traced loop (the
#: base, ``loop.wall_s``, is reported too) and per-unit costs as rates,
#: so a layer a workload never enters reads 0 in a unit that is not a
#: time: every workload reports every metric.
PER_LAYER = (
    LayerMetric("session.self_share", "ratio", "lower"),
    LayerMetric("evaluator.calls", "count", "lower"),
    LayerMetric("evaluator.self_share", "ratio", "lower"),
    LayerMetric("evaluator.draws_per_snapshot", "count", "lower"),
    LayerMetric("scheduler.calls", "count", "lower"),
    LayerMetric("scheduler.self_share", "ratio", "lower"),
    LayerMetric("scheduler.skip_ratio", "ratio", "higher"),
    LayerMetric("pool.hit_rate", "ratio", "higher"),
    LayerMetric("pool.self_share", "ratio", "lower"),
    LayerMetric("operator.tuples.calls", "count", "lower"),
    LayerMetric("operator.tuples.rounds_per_call", "count", "lower"),
    LayerMetric("operator.tuples.self_share", "ratio", "lower"),
    LayerMetric("operator.delivery_ratio", "ratio", "higher"),
    LayerMetric("operator.nodes.calls", "count", "lower"),
    LayerMetric("operator.nodes.self_share", "ratio", "lower"),
    LayerMetric("snapshot.calls", "count", "lower"),
    LayerMetric("snapshot.builds_per_tick", "count", "lower"),
    LayerMetric("snapshot.self_share", "ratio", "lower"),
    LayerMetric("snapshot.nodes_per_s", "1/s", "higher"),
    LayerMetric("graph.csr_calls", "count", "lower"),
    LayerMetric("graph.csr_share", "ratio", "lower"),
    LayerMetric("graph.bfs_share", "ratio", "lower"),
    LayerMetric("kernel.calls", "count", "lower"),
    LayerMetric("kernel.agent_steps", "count", "lower"),
    LayerMetric("kernel.self_share", "ratio", "lower"),
    LayerMetric("kernel.agent_steps_per_s", "1/s", "higher"),
    LayerMetric("kernel.mean_batch", "count", "higher"),
    LayerMetric("mixing.recomputes", "count", "lower"),
    LayerMetric("mixing.spectral_share", "ratio", "lower"),
    LayerMetric("faults.walk_lost_calls", "count", "lower"),
    LayerMetric("faults.walks_lost", "count", "lower"),
    LayerMetric("faults.self_share", "ratio", "lower"),
    LayerMetric("obs.sink_calls", "count", "lower"),
    LayerMetric("obs.sink_share", "ratio", "lower"),
    LayerMetric("db.writes", "count", "lower"),
    LayerMetric("db.write_share", "ratio", "lower"),
    LayerMetric("db.reads", "count", "lower"),
    LayerMetric("protocol.sends", "count", "lower"),
    LayerMetric("protocol.drops", "count", "lower"),
    LayerMetric("protocol.events", "count", "lower"),
    LayerMetric("protocol.self_share", "ratio", "lower"),
    LayerMetric("protocol.events_per_s", "1/s", "higher"),
    LayerMetric("protocol.attempts_per_completion", "count", "lower"),
    LayerMetric("protocol.timeouts", "count", "lower"),
    LayerMetric("loop.remainder_share", "ratio", "lower"),
    LayerMetric("loop.wall_s", "s", "lower"),
    LayerMetric("tracing.overhead_ratio", "ratio", "lower"),
)



def layer_metrics(
    recorder: SpanRecorder,
    setup_counts: dict[str, float],
    ticks: int,
    facts: dict[str, float],
) -> tuple[dict[str, float], dict[str, LayerTime]]:
    """Per-layer metrics of one traced repeat of ``ticks`` measured ticks.

    Everything covers the steady-state window — spans under
    ``loop.tick``, and counters minus their value at the end of set-up
    (``setup_counts``) — except ``mixing.*``, which covers the whole
    repeat because the spectral work is what set-up pays for. ``facts``
    carries counts the workload read from public state over the same
    window (pool hits, protocol walk stats, the profiler's
    ``spectral_recompute`` section).
    """
    spans = recorder.spans()
    roots = root_of(spans)
    steady_spans = [
        (index, span)
        for index, span in enumerate(spans)
        if spans[roots[index]].name == ROOT_TICK
    ]
    steady = layer_times(spans, layer_of, roots={ROOT_TICK})
    counts = {
        key: value - setup_counts.get(key, 0.0)
        for key, value in recorder.counts.items()
    }
    names = Counter(span.name for _, span in steady_spans)
    tuple_spans = {
        index
        for index, span in steady_spans
        if span.name == "sampling.operator.SamplingOperator.sample_tuples"
    }
    rounds = sum(
        1
        for _, span in steady_spans
        if span.parent in tuple_spans
        and span.name == "sampling.operator.SamplingOperator.sample_nodes"
    )

    def entry(layer: str) -> LayerTime:
        return steady.get(layer, LayerTime())

    loop_ns = entry("loop").total_ns

    def share(layer: str) -> float:
        return ratio(entry(layer).self_ns, loop_ns)

    repeat_ns = sum(span.duration_ns for span in spans if span.parent < 0)
    mixing_ns = facts.get("mixing.spectral_ns")
    if mixing_ns is None:
        mixing_ns = sum(
            own
            for span, own in zip(spans, self_times(spans))
            if layer_of(span.name) == "sampling.mixing"
        )
    kernel = entry("sampling.walker.kernel")
    snapshot = entry("sampling.walker.snapshot")
    agent_steps = counts.get("kernel.agent_steps", 0.0)
    events = facts.get("protocol.events", 0.0)
    return {
        "session.self_share": share("core.session"),
        "evaluator.calls": entry("core.evaluator").calls,
        "evaluator.self_share": share("core.evaluator"),
        "evaluator.draws_per_snapshot": ratio(
            names["sampling.pool.SamplePool.acquire"], entry("core.evaluator").calls
        ),
        "scheduler.calls": entry("core.scheduler").calls,
        "scheduler.self_share": share("core.scheduler"),
        "scheduler.skip_ratio": ratio(
            counts.get("scheduler.ticks_skipped", 0.0),
            counts.get("scheduler.ticks_covered", 0.0),
        ),
        "pool.hit_rate": facts.get("pool.hit_rate", 0.0),
        "pool.self_share": share("sampling.pool"),
        "operator.tuples.calls": len(tuple_spans),
        "operator.tuples.rounds_per_call": ratio(rounds, len(tuple_spans)),
        "operator.tuples.self_share": share("sampling.operator.tuples"),
        "operator.delivery_ratio": ratio(
            counts.get("operator.nodes.delivered", 0.0),
            counts.get("operator.nodes.requested", 0.0),
        ),
        "operator.nodes.calls": entry("sampling.operator.nodes").calls,
        "operator.nodes.self_share": share("sampling.operator.nodes"),
        "snapshot.calls": snapshot.calls,
        "snapshot.builds_per_tick": ratio(snapshot.calls, ticks),
        "snapshot.self_share": share("sampling.walker.snapshot"),
        "snapshot.nodes_per_s": ratio(
            counts.get("snapshot.nodes", 0.0), snapshot.total_ns / 1e9
        ),
        "graph.csr_calls": entry("network.graph.csr").calls,
        "graph.csr_share": share("network.graph.csr"),
        "graph.bfs_share": share("network.graph.bfs"),
        "kernel.calls": kernel.calls,
        "kernel.agent_steps": agent_steps,
        "kernel.self_share": share("sampling.walker.kernel"),
        "kernel.agent_steps_per_s": ratio(agent_steps, kernel.self_ns / 1e9),
        "kernel.mean_batch": ratio(counts.get("kernel.agents", 0.0), kernel.calls),
        "mixing.recomputes": sum(
            1 for span in spans if span.name == "sampling.mixing.eigengap_sparse"
        ),
        "mixing.spectral_share": ratio(mixing_ns, repeat_ns),
        "faults.walk_lost_calls": entry("network.faults").calls,
        "faults.walks_lost": counts.get("faults.walks_lost", 0.0),
        "faults.self_share": share("network.faults"),
        "obs.sink_calls": entry("obs").calls,
        "obs.sink_share": share("obs"),
        "db.writes": counts.get("db.writes", 0.0),
        "db.write_share": share("db"),
        "db.reads": counts.get("db.reads", 0.0),
        "protocol.sends": counts.get("protocol.sends", 0.0),
        "protocol.drops": facts.get("protocol.drops", 0.0),
        "protocol.events": events,
        "protocol.self_share": share("protocol"),
        "protocol.events_per_s": ratio(events, entry("protocol").total_ns / 1e9),
        "protocol.attempts_per_completion": facts.get(
            "protocol.attempts_per_completion", 0.0
        ),
        "protocol.timeouts": facts.get("protocol.timeouts", 0.0),
        "loop.remainder_share": share("loop"),
        "loop.wall_s": loop_ns / 1e9,
    }, steady
