"""Span assembly: self time, nesting, siblings, and the wall-time identity.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools

import pytest

from layers import ROOT_SETUP, ROOT_TICK, Instrumentation
from spans import Span, SpanRecorder, covered_ns, layer_times, self_times


class FakeClock:
    """A clock that advances by a scripted step on every read."""

    def __init__(self, steps: list[int]) -> None:
        self._steps = iter(steps)
        self.now = 0

    def __call__(self) -> int:
        self.now += next(self._steps)
        return self.now


def test_self_time_is_duration_minus_child_coverage() -> None:
    spans = [Span("a", 0, 100, -1), Span("b", 20, 50, 0)]
    assert self_times(spans) == [70, 30]


def test_nested_spans_book_each_nanosecond_to_the_innermost() -> None:
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 90, 0),
        Span("c", 20, 40, 1),
    ]
    assert self_times(spans) == [20, 60, 20]
    assert sum(self_times(spans)) == 100


def test_siblings_are_subtracted_once_each() -> None:
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 30, 0),
        Span("c", 40, 45, 0),
        Span("d", 60, 100, 0),
    ]
    assert self_times(spans)[0] == 100 - 20 - 5 - 40


def test_overlapping_and_overhanging_children_count_as_their_union() -> None:
    # coverage is the union of child intervals, clipped to the parent
    assert covered_ns(0, 100, [(10, 30), (20, 40), (90, 150)]) == 30 + 10
    assert covered_ns(0, 100, [(-50, 5), (5, 10)]) == 10
    assert covered_ns(0, 100, []) == 0


def test_only_direct_children_are_subtracted() -> None:
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 60, 0),
        Span("c", 20, 30, 1),  # grandchild of a: inside b, not subtracted twice
    ]
    assert self_times(spans) == [50, 40, 10]


def test_recorder_links_parents_through_the_open_stack() -> None:
    recorder = SpanRecorder(clock=FakeClock([1] * 8))
    a = recorder.open("a")
    b = recorder.open("b")
    recorder.close(b)
    c = recorder.open("c")
    recorder.close(c)
    recorder.close(a)
    spans = recorder.spans()
    assert [(s.name, s.parent) for s in spans] == [("a", -1), ("b", 0), ("c", 0)]
    assert [s.duration_ns for s in spans] == [5, 1, 1]


def test_recorder_rejects_out_of_order_close_and_open_spans() -> None:
    recorder = SpanRecorder(clock=FakeClock([1] * 8))
    a = recorder.open("a")
    recorder.open("b")
    with pytest.raises(RuntimeError):
        recorder.close(a)
    recorder = SpanRecorder(clock=FakeClock([1] * 8))
    recorder.open("a")
    with pytest.raises(RuntimeError):
        recorder.spans()


def _layer(name: str) -> str:
    return name.split(":")[0]


def test_layer_self_times_plus_remainder_add_up_to_the_loop_wall() -> None:
    uneven = itertools.cycle([3, 1, 4, 1, 5, 9, 2, 6])
    recorder = SpanRecorder(clock=FakeClock(list(itertools.islice(uneven, 200))))
    setup = recorder.open(ROOT_SETUP)
    inner = recorder.open("mixing:eig")
    recorder.close(inner)
    recorder.close(setup)
    for _ in range(5):
        tick = recorder.open(ROOT_TICK)
        world = recorder.open("db:world")
        recorder.close(world)
        step = recorder.open("session:step")
        for _ in range(3):
            node = recorder.open("nodes:sample")
            kernel = recorder.open("kernel:walk")
            recorder.close(kernel)
            recorder.close(node)
        recorder.close(step)
        recorder.close(tick)
    spans = recorder.spans()
    steady = layer_times(
        spans,
        lambda name: "loop" if name.startswith("loop") else _layer(name),
        roots={ROOT_TICK},
    )
    wall = sum(s.duration_ns for s in spans if s.name == ROOT_TICK)
    assert steady["loop"].total_ns == wall
    assert sum(entry.self_ns for entry in steady.values()) == wall
    # spans under the set-up root stay out of the steady-state window
    assert "mixing" not in steady
    assert steady["kernel"].calls == 15


class Toy:
    def outer(self, x: int) -> int:
        return self.inner(x) + 1

    def inner(self, x: int) -> int:
        return x * 2

    @classmethod
    def make(cls, x: int) -> "Toy":
        return cls()

    def hot(self) -> None:
        return None


def test_wrappers_nest_count_and_restore() -> None:
    originals = dict(Toy.__dict__)
    recorder = SpanRecorder(clock=FakeClock([1] * 100))
    instrumentation = Instrumentation(recorder)
    seen = []
    instrumentation.timed(Toy, "outer", "outer")
    instrumentation.timed(
        Toy, "inner", "inner", lambda rec, args, kwargs, result: seen.append(result)
    )
    instrumentation.timed(Toy, "make", "make")
    instrumentation.counted(Toy, "hot", "toy.hot")
    toy = Toy.make(1)
    assert isinstance(toy, Toy)
    assert toy.outer(3) == 7
    toy.hot()
    toy.hot()
    instrumentation.uninstall()
    spans = recorder.spans()
    assert [(s.name, s.parent) for s in spans] == [
        ("make", -1),
        ("outer", -1),
        ("inner", 1),
    ]
    assert seen == [6]
    assert recorder.counts["toy.hot"] == 2
    for attr in ("outer", "inner", "make", "hot"):
        assert Toy.__dict__[attr] is originals[attr]


def test_a_raising_call_still_closes_its_span() -> None:
    class Boom:
        def go(self) -> None:
            raise ValueError("boom")

    recorder = SpanRecorder(clock=FakeClock([1] * 10))
    instrumentation = Instrumentation(recorder)
    instrumentation.timed(Boom, "go", "go")
    with pytest.raises(ValueError):
        Boom().go()
    instrumentation.uninstall()
    assert [s.name for s in recorder.spans()] == ["go"]


def test_traced_repeat_matches_untraced_and_accounts_for_its_wall() -> None:
    import run
    from repro.core.session import DigestSession
    from workloads import WORKLOADS

    original_step = DigestSession.__dict__["step"]
    workload = WORKLOADS["clean_multi"]
    untraced = run.run_repeat(workload, 5, traced=False, ticks=3)
    traced = run.run_repeat(workload, 5, traced=True, ticks=3)
    assert DigestSession.__dict__["step"] is original_step
    # the wrappers never touch an RNG: every estimate is bit-identical
    assert traced.exact_counts() == untraced.exact_counts()
    table = traced.layer_table
    assert sum(entry.self_ns for entry in table.values()) == table["loop"].total_ns
    assert table["loop"].calls == 3
    assert traced.layer["db.writes"] == 3 * 8000
    # no spectral recompute runs in these ticks, so the steady-state
    # shares (mixing's covers set-up) split the whole loop
    shares = [
        value
        for name, value in traced.layer.items()
        if name.endswith("share") and not name.startswith("mixing.")
    ]
    assert sum(shares) == pytest.approx(1.0)
