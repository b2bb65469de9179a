"""Tests for the cross-module digest analyzer (tools.digest_analyzer).

Organization mirrors the architecture: known-bad and known-good
fixtures per per-file rule (DGL001-DGL008), then fixture-driven tests
per cross-module rule (DGL009-DGL015) — each seeded violation must be
caught, and for the reachability rules the same fixture is shown to be
*invisible* to the old per-file rule it upgrades — then the pragma
layer, the baseline, the cache, SARIF, the CLI, and the repository
meta-tests (the invariant CI enforces: zero non-baselined findings).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.digest_analyzer import (
    RULE_CATALOG,
    AnalysisResult,
    Finding,
    analyze_paths,
    analyze_sources,
    write_baseline,
)
from tools.digest_analyzer.baseline import apply_baseline, load_baseline
from tools.digest_analyzer.pragmas import parse_pragmas
from tools.digest_analyzer.sarif import render_sarif
from tools.digest_analyzer.schema_facts import (
    SchemaParseError,
    parse_schema_source,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SCHEMA_PATH = "src/repro/obs/schema.py"
SCHEMA_TEXT = (REPO_ROOT / SCHEMA_PATH).read_text(encoding="utf-8")


def analyze(
    sources: dict[str, str], select: set[str] | None = None
) -> AnalysisResult:
    """Run the engine over dedented fixture sources plus the real schema."""
    merged = {SCHEMA_PATH: SCHEMA_TEXT}
    merged.update(
        {path: textwrap.dedent(text) for path, text in sources.items()}
    )
    return analyze_sources(
        merged, select=frozenset(select) if select else None
    )


def codes(
    sources: dict[str, str], select: set[str] | None = None
) -> list[str]:
    return [f.code for f in analyze(sources, select).findings]


def run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.digest_analyzer", *args],
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT)},
        capture_output=True,
        text=True,
    )


# ----------------------------------------------------------------------
# per-file rules (DGL001-DGL008): known-bad fixtures must flag, known-good
# fixtures must pass. Every per-file rule runs, so "== [code]" also says
# no other per-file rule fires on the fixture.
# ----------------------------------------------------------------------

LOCAL_CODES = {f"DGL00{n}" for n in range(1, 9)}


def local_codes(source: str, path: str) -> list[str]:
    return codes({path: source}, select=LOCAL_CODES)


class TestUnseededRandomness:
    PATH = "src/repro/sampling/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nrng = np.random.default_rng()\n",
            "from numpy.random import default_rng\nrng = default_rng()\n",
            "import numpy as np\nnp.random.seed(7)\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy.random as npr\nx = npr.choice([1, 2])\n",
            "import random\nx = random.random()\n",
            "import random\nrandom.shuffle([1, 2, 3])\n",
            "from random import randint\nx = randint(0, 9)\n",
        ],
    )
    def test_flags_unseeded_and_global_rng(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == ["DGL001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # explicit seeds and threaded generators are the convention
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "import numpy as np\ndef f(seed: int) -> object:\n    return np.random.default_rng(seed)\n",
            "from numpy.random import default_rng\nrng = default_rng(0)\n",
            "import numpy as np\nrng = np.random.Generator(np.random.PCG64(1))\n",
            "import random\nrng = random.Random(7)\n",
            # method calls on a threaded generator are not module-level calls
            "def step(rng: object) -> float:\n    return rng.normal()\n",
        ],
    )
    def test_allows_explicit_state(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_fires_anywhere_in_src(self) -> None:
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        assert local_codes(bad, "src/repro/experiments/snippet.py") == ["DGL001"]


class TestWallClockInSimulation:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "import time\nt = time.monotonic_ns()\n",
            "from time import perf_counter\nt = perf_counter()\n",
            "from datetime import datetime\nt = datetime.now()\n",
            "import datetime\nt = datetime.datetime.utcnow()\n",
            "import datetime\nt = datetime.date.today()\n",
        ],
        ids=["time", "perf", "mono", "from_perf", "now", "utcnow", "today"],
    )
    @pytest.mark.parametrize("scope", ["core", "sim", "sampling", "protocol"])
    def test_flags_wall_clock(self, snippet: str, scope: str) -> None:
        path = f"src/repro/{scope}/snippet.py"
        assert local_codes(snippet, path) == ["DGL002"]

    def test_out_of_scope_paths_are_exempt(self) -> None:
        # experiments/ may time themselves; they are reporting, not protocol
        snippet = "import time\nt = time.perf_counter()\n"
        assert local_codes(snippet, "src/repro/experiments/snippet.py") == []

    def test_sleep_is_not_a_clock_read(self) -> None:
        snippet = "import time\ntime.sleep(0.1)\n"
        assert local_codes(snippet, "src/repro/core/snippet.py") == []


class TestLocalityReachThrough:
    PATH = "src/repro/sampling/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # classic telepathy: reading the graph's private adjacency
            "def walk(graph: object) -> int:\n    return graph._adjacency[0]\n",
            # reaching into a store owned by another node
            "def peek(store: object) -> list:\n    return store._rows\n",
            # chained receiver: self's operator is fine, *its* cache is not
            "class W:\n    def f(self) -> list:\n        return self._op._cache\n",
        ],
    )
    def test_flags_private_reach_through(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == ["DGL003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "class W:\n    def f(self) -> list:\n        return self._cache\n",
            "class W:\n    @classmethod\n    def f(cls) -> dict:\n        return cls._registry\n",
            # module-private helpers from explicit imports are intra-package
            "from repro.sampling import mixing\ng = mixing._spectral_gap\n",
            # dunders are protocol, not private state
            "def f(obj: object) -> type:\n    return obj.__class__\n",
            # the public messaging API is exactly what the rule steers to
            "def f(ledger: object, hops: int) -> None:\n    ledger.record_sample_return(hops)\n",
        ],
        ids=["self", "cls", "intra_pkg", "dunder", "public_api"],
    )
    def test_allows_local_and_public(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_only_sampling_and_protocol_are_in_scope(self) -> None:
        snippet = "def walk(graph: object) -> int:\n    return graph._adjacency[0]\n"
        assert local_codes(snippet, "src/repro/network/snippet.py") == []
        assert local_codes(snippet, "src/repro/protocol/snippet.py") == ["DGL003"]


class TestFloatEquality:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x: float) -> bool:\n    return x == 0.5\n",
            "def f(x: float) -> bool:\n    return x != 1.5\n",
            "def f(x: float) -> bool:\n    return 0.95 == x\n",
            "def f(a: float, b: float) -> bool:\n    return a < b == 2.5\n",
        ],
    )
    def test_flags_non_sentinel_float_equality(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == ["DGL004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x: float) -> bool:\n    return x == 0.0\n",  # degenerate guard
            "def f(x: float) -> bool:\n    return x == -0.0\n",
            'def f(x: float) -> bool:\n    return x == float("inf")\n',
            "def f(x: float) -> bool:\n    return x == 1\n",  # int comparison
            "def f(x: float) -> bool:\n    return x < 0.5\n",  # ordering is fine
            "import math\ndef f(x: float) -> bool:\n    return math.isclose(x, 0.5)\n",
        ],
    )
    def test_allows_sentinels_and_ordering(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_out_of_scope_paths_are_exempt(self) -> None:
        snippet = "def f(x: float) -> bool:\n    return x == 0.5\n"
        assert local_codes(snippet, "src/repro/db/snippet.py") == []


class TestMissingAnnotations:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet,missing",
        [
            ("def f(x):\n    return x\n", "x, return"),
            ("def f(x: int):\n    return x\n", "return"),
            ("def f(x) -> int:\n    return x\n", "x"),
            ("def f(*args, **kw) -> None:\n    pass\n", "*args, **kw"),
            (
                "class C:\n    def __init__(self, x: int):\n        self.x = x\n",
                "return",
            ),
            ("class C:\n    def m(self, x) -> None:\n        pass\n", "x"),
        ],
    )
    def test_flags_annotation_gaps(self, snippet: str, missing: str) -> None:
        findings = analyze({self.PATH: snippet}, select=LOCAL_CODES).findings
        assert [f.code for f in findings] == ["DGL005"]
        assert findings[0].message.endswith(missing)

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x: int) -> int:\n    return x\n",
            "def _helper(x):\n    return x\n",  # private: exempt
            "class C:\n    def _m(self, x):\n        pass\n",
            # closures are not public API
            "def f() -> int:\n    def inner(x):\n        return x\n    return inner(1)\n",
            "class C:\n    def m(self) -> None:\n        pass\n",
        ],
        ids=["typed", "private_fn", "private_m", "closure", "none_ret"],
    )
    def test_allows_typed_or_exempt(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_only_repro_paths_are_in_scope(self) -> None:
        snippet = "def f(x):\n    return x\n"
        assert local_codes(snippet, "somewhere/else/snippet.py") == []


class TestHandlerRaises:
    PATH = "src/repro/protocol/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # a raise inside a scheduled-delivery handler aborts the run
            """\
            class Sampler:
                def _handle_step(self, message: object) -> None:
                    if message is None:
                        raise ValueError("bad message")
            """,
            """\
            class Sampler:
                def _receive_token(self, token: object) -> None:
                    raise RuntimeError("unreachable holder")
            """,
            # nested defs are delivery closures even under a benign name
            """\
            class Sampler:
                def transmit(self, node: int) -> None:
                    def deliver(time: int) -> None:
                        raise RuntimeError("boom")
                    self.simulation.schedule_in(1, deliver)
            """,
            # module-level handler functions count too
            """\
            def _on_timeout(state: object) -> None:
                raise TimeoutError(state)
            """,
        ],
    )
    def test_flags_raises_in_delivery_paths(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == ["DGL006"]

    def test_each_raise_is_reported_once(self) -> None:
        # a raise belongs to its innermost function only -- a handler
        # containing a raising closure yields one finding, not two
        snippet = """\
        class Sampler:
            def _handle_return(self, message: object) -> None:
                def forward(time: int) -> None:
                    raise RuntimeError("next hop gone")
                self.simulation.schedule_in(1, forward)
        """
        assert local_codes(snippet, self.PATH) == ["DGL006"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # the degradation contract: record the fault and drop the message
            """\
            class Sampler:
                def _handle_step(self, message: object) -> None:
                    if message is None:
                        self.fault_log.record(0, "message_loss")
                        return
            """,
            # validation raises at the caller-facing API are legal
            """\
            class Sampler:
                def start_walk(self, origin: int) -> None:
                    if origin < 0:
                        raise ValueError("bad origin")
            """,
            """\
            class Sampler:
                def run_walks(self, n: int) -> list:
                    if n <= 0:
                        raise ValueError("need at least one walk")
                    return []
            """,
        ],
    )
    def test_allows_recording_and_api_validation(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_only_protocol_is_in_scope(self) -> None:
        snippet = """\
        class Sampler:
            def _handle_step(self, message: object) -> None:
                raise ValueError("bad message")
        """
        assert local_codes(snippet, "src/repro/sampling/snippet.py") == []
        assert local_codes(snippet, self.PATH) == ["DGL006"]


class TestNoPrint:
    PATH = "src/repro/experiments/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            'print("hello")\n',
            "def main() -> int:\n    print(1, 2, sep=',')\n    return 0\n",
            'import builtins\nbuiltins.print("x")\n',
            # file= does not excuse it: redirection goes through emit()
            'import sys\nprint("x", file=sys.stderr)\n',
        ],
    )
    def test_flags_print_calls(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == ["DGL007"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # the sanctioned chokepoint
            'from repro.obs.console import emit\nemit("hello")\n',
            # a method named print on some object is not builtins.print
            'def f(doc: object) -> None:\n    doc.print("x")\n',
            # an explicitly imported print is a deliberate rebinding
            "from repro.obs.console import emit as print\nprint()\n",
            # mentioning print in a docstring is not a call
            '"""Example::\n\n    print(engine.result)\n"""\n',
        ],
    )
    def test_allows_emit_and_non_builtin_print(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_only_repro_paths_are_in_scope(self) -> None:
        # tools/ and benchmarks/ are harness-side; they may print
        assert local_codes('print("x")\n', "tools/somewhere/snippet.py") == []
        assert local_codes('print("x")\n', self.PATH) == ["DGL007"]


class TestDirectOperatorConstruction:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # the canonical offender: a private, unshareable substrate
            "from repro.sampling.operator import SamplingOperator\n"
            "op = SamplingOperator(g, rng)\n",
            # package re-export and aliasing do not launder it
            "from repro.sampling import SamplingOperator\n"
            "op = SamplingOperator(g, rng)\n",
            "from repro.sampling.operator import SamplingOperator as SO\n"
            "op = SO(g, rng)\n",
            "import repro.sampling.operator as operator\n"
            "op = operator.SamplingOperator(g, rng)\n",
        ],
    )
    def test_flags_construction_outside_sampling(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == ["DGL008"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # the sanctioned route: the pool owns the operator
            "from repro.sampling.pool import SamplePool\n"
            "pool = SamplePool(g, rng)\nop = pool.operator\n",
            # importing the type for annotations is fine; only calls flag
            "from repro.sampling.operator import SamplingOperator\n"
            "def f(op: SamplingOperator) -> None:\n    pass\n",
            # a same-named class from elsewhere is not ours
            "from somewhere.else_ import SamplingOperator\n"
            "op = SamplingOperator()\n",
        ],
    )
    def test_allows_pool_route_and_annotations(self, snippet: str) -> None:
        assert local_codes(snippet, self.PATH) == []

    def test_sampling_package_itself_is_exempt(self) -> None:
        snippet = (
            "from repro.sampling.operator import SamplingOperator\n"
            "op = SamplingOperator(g, rng)\n"
        )
        assert local_codes(snippet, "src/repro/sampling/pool.py") == []
        assert local_codes(snippet, "src/repro/experiments/snippet.py") == [
            "DGL008"
        ]


# ----------------------------------------------------------------------
# DGL009 -- trace-schema conformance
# ----------------------------------------------------------------------


class TestTraceSchemaConformance:
    PATH = "src/repro/core/snippet.py"

    def test_undeclared_span_name_literal(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                def run(tracer, t):
                    span = tracer.span("bogus_span", time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "undeclared span name 'bogus_span'" in result.findings[0].message

    def test_declared_literal_must_become_constant(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                def run(tracer, t):
                    span = tracer.span("walk", time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "repro.obs.schema.SPAN_WALK" in result.findings[0].message

    def test_undeclared_attribute_key(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import SPAN_WALK

                def run(tracer, t):
                    tracer.span(SPAN_WALK, time=t, walker_id=1, bogus_key=2)
                """
            },
            select={"DGL009"},
        )
        messages = [f.message for f in result.findings]
        assert any("bogus_key" in m for m in messages)

    def test_missing_required_keys_over_visible_lifecycle(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import SPAN_WALK

                def run(tracer, t):
                    span = tracer.span(SPAN_WALK, time=t, walker_id=1)
                    tracer.end(span, time=t + 1, outcome="completed")
                """
            },
            select={"DGL009"},
        )
        missing = [f for f in result.findings if "required" in f.message]
        assert len(missing) == 1
        for key in ("origin", "walk_length", "attempts"):
            assert key in missing[0].message

    def test_complete_lifecycle_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    from repro.obs.schema import SPAN_WALK

                    def run(tracer, t):
                        span = tracer.span(
                            SPAN_WALK, time=t, walker_id=1, origin=0, walk_length=8
                        )
                        tracer.end(
                            span, time=t + 1, outcome="completed", attempts=1
                        )
                    """
                },
                select={"DGL009"},
            )
            == []
        )

    def test_span_constant_recorded_as_event(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import SPAN_WALK

                def run(tracer, t):
                    tracer.event(SPAN_WALK, time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "declared as a span" in result.findings[0].message

    def test_dynamic_name_expression(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                def run(tracer, t, which):
                    tracer.event(which, time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "must be a repro.obs.schema constant" in result.findings[0].message

    def test_event_missing_required_keys(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import EVENT_HOP

                def run(tracer, t, span):
                    tracer.event(EVENT_HOP, time=t, span=span, node=3)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "steps_remaining" in result.findings[0].message

    def test_tests_are_out_of_scope(self) -> None:
        assert (
            codes(
                {
                    "tests/obs/snippet.py": """\
                    def run(tracer):
                        tracer.span("walk", time=0)
                    """
                },
                select={"DGL009"},
            )
            == []
        )

    def test_repo_producers_are_clean(self) -> None:
        """The real src/repro tree conforms to its own schema."""
        result = analyze_paths(
            [REPO_ROOT / "src"],
            repo_root=REPO_ROOT,
            select=frozenset({"DGL009"}),
        )
        assert result.findings == []


class TestFastAppendExtraction:
    """The inlined hot-path emitter shape stays schema-checked.

    ``<span>.events.append(TraceEvent(time, NAME, {...}))`` is the
    allocation-light equivalent of ``span.add_event(...)``; the
    extractor must summarize it as an ``add_event`` fact so DGL009 sees
    the same attribute keys it would on the method form.
    """

    PATH = "src/repro/core/snippet.py"

    def test_fact_shape_matches_add_event(self) -> None:
        from tools.digest_analyzer.extract import extract_file_facts

        source = textwrap.dedent(
            """\
            from repro.obs.schema import EVENT_HOP
            from repro.obs.tracer import TraceEvent

            def run(span, t, node):
                span.events.append(
                    TraceEvent(t, EVENT_HOP, {"node": node, "bogus_key": 1})
                )
            """
        )
        facts, _findings = extract_file_facts(source, self.PATH)
        (fact,) = facts.trace_calls
        assert fact.kind == "add_event"
        assert fact.name_ref == "repro.obs.schema.EVENT_HOP"
        assert fact.name_literal is None
        assert fact.attr_keys == ["node", "bogus_key"]
        assert fact.span_var == "span"

    def test_fast_append_is_schema_checked(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import EVENT_HOP, SPAN_WALK
                from repro.obs.tracer import TraceEvent

                def run(tracer, t, node):
                    span = tracer.span(
                        SPAN_WALK, time=t, walker_id=1, origin=0, walk_length=4
                    )
                    span.events.append(
                        TraceEvent(t, EVENT_HOP, {"node": node, "bogus": 1})
                    )
                    tracer.end(span, time=t + 1, outcome="completed", attempts=1)
                """
            },
            select={"DGL009"},
        )
        messages = [f.message for f in result.findings]
        assert any("steps_remaining" in m for m in messages)
        assert any("bogus" in m for m in messages)

    def test_conforming_fast_append_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    from repro.obs.schema import EVENT_HOP, SPAN_WALK
                    from repro.obs.tracer import TraceEvent

                    def run(tracer, t, node, left):
                        span = tracer.span(
                            SPAN_WALK, time=t, walker_id=1, origin=0, walk_length=4
                        )
                        span.events.append(
                            TraceEvent(
                                t, EVENT_HOP, {"node": node, "steps_remaining": left}
                            )
                        )
                        tracer.end(
                            span, time=t + 1, outcome="completed", attempts=1
                        )
                    """
                },
                select={"DGL009"},
            )
            == []
        )

    def test_non_span_receiver_is_not_matched(self) -> None:
        from tools.digest_analyzer.extract import extract_file_facts

        source = textwrap.dedent(
            """\
            from repro.obs.tracer import TraceEvent

            def run(queue, t):
                queue.events.append(TraceEvent(t, "hop", {}))
            """
        )
        facts, _findings = extract_file_facts(source, self.PATH)
        assert facts.trace_calls == []


# ----------------------------------------------------------------------
# DGL010 -- hard-coded trace names in consumers
# ----------------------------------------------------------------------


class TestTraceNameLiterals:
    def test_name_comparison_literal(self) -> None:
        result = analyze(
            {
                "src/repro/obs/consumer.py": """\
                def walks(trace):
                    return [s for s in trace.spans if s.name == "walk"]
                """
            },
            select={"DGL010"},
        )
        assert [f.code for f in result.findings] == ["DGL010"]
        assert "SPAN_WALK" in result.findings[0].message

    def test_spans_named_literal(self) -> None:
        result = analyze(
            {
                "tools/reports/extra.py": """\
                def pool_serves(trace):
                    return trace.spans_named("pool_serve")
                """
            },
            select={"DGL010"},
        )
        assert [f.code for f in result.findings] == ["DGL010"]
        assert "SPAN_POOL_SERVE" in result.findings[0].message

    def test_membership_comparison_literals(self) -> None:
        result = analyze(
            {
                "benchmarks/collect.py": """\
                def interesting(span):
                    return span.name in ("walk", "pool_serve")
                """
            },
            select={"DGL010"},
        )
        assert [f.code for f in result.findings] == ["DGL010", "DGL010"]

    def test_non_trace_literal_is_clean(self) -> None:
        assert (
            codes(
                {
                    "src/repro/obs/consumer.py": """\
                    def named_bob(things):
                        return [t for t in things if t.name == "bob"]
                    """
                },
                select={"DGL010"},
            )
            == []
        )

    def test_attr_value_literal_is_clean(self) -> None:
        """'walk' as an attribute *value* is not a name position."""
        assert (
            codes(
                {
                    "src/repro/obs/consumer.py": """\
                    def walk_messages(events):
                        return [e for e in events if e.attrs.get("category") == "walk"]
                    """
                },
                select={"DGL010"},
            )
            == []
        )

    def test_tests_are_out_of_scope(self) -> None:
        assert (
            codes(
                {
                    "tests/obs/snippet.py": """\
                    def walks(trace):
                        return trace.spans_named("walk")
                    """
                },
                select={"DGL010"},
            )
            == []
        )


# ----------------------------------------------------------------------
# DGL011 -- RNG-stream provenance
# ----------------------------------------------------------------------


class TestRngStreamCrossing:
    PATH = "src/repro/experiments/snippet.py"

    def test_one_generator_two_streams(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                import numpy as np
                from repro.network.churn import ChurnProcess
                from repro.network.faults import FaultPlan

                def wire(graph, config, rng: np.random.Generator):
                    plan = FaultPlan(config, rng=rng)
                    churn = ChurnProcess(graph, rng=rng)
                    return plan, churn
                """
            },
            select={"DGL011"},
        )
        assert [f.code for f in result.findings] == ["DGL011"]
        message = result.findings[0].message
        assert "'churn'" in message and "'fault'" in message

    def test_crossing_hidden_behind_helper(self) -> None:
        """The generator reaches the second stream only through a local
        helper -- invisible to any per-file syntactic check."""
        result = analyze(
            {
                self.PATH: """\
                import numpy as np
                from repro.network.churn import ChurnProcess
                from repro.network.faults import FaultPlan

                def _build_faults(config, rng: np.random.Generator):
                    return FaultPlan(config, rng=rng)

                def wire(graph, config, rng: np.random.Generator):
                    plan = _build_faults(config, rng)
                    churn = ChurnProcess(graph, rng=rng)
                    return plan, churn
                """
            },
            select={"DGL011"},
        )
        assert [f.code for f in result.findings] == ["DGL011"]
        assert result.findings[0].line == 10  # the ChurnProcess call
        assert "_build_faults" in result.findings[0].message

    def test_separate_streams_are_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    import numpy as np
                    from repro.network.churn import ChurnProcess
                    from repro.network.faults import FaultPlan

                    def wire(graph, config, seed: int):
                        fault_rng = np.random.default_rng(seed)
                        churn_rng = np.random.default_rng(seed + 1)
                        plan = FaultPlan(config, rng=fault_rng)
                        churn = ChurnProcess(graph, rng=churn_rng)
                        return plan, churn
                    """
                },
                select={"DGL011"},
            )
            == []
        )

    def test_alias_does_not_launder_the_stream(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                import numpy as np
                from repro.network.churn import ChurnProcess
                from repro.network.faults import FaultPlan

                def wire(graph, config, rng: np.random.Generator):
                    plan = FaultPlan(config, rng=rng)
                    other = rng
                    churn = ChurnProcess(graph, rng=other)
                    return plan, churn
                """
            },
            select={"DGL011"},
        )
        assert [f.code for f in result.findings] == ["DGL011"]

    def test_same_stream_twice_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    import numpy as np
                    from repro.network.faults import FaultPlan

                    def wire(config, other_config, rng: np.random.Generator):
                        first = FaultPlan(config, rng=rng)
                        second = FaultPlan(other_config, rng=rng)
                        return first, second
                    """
                },
                select={"DGL011"},
            )
            == []
        )

    def test_inline_draws_plus_one_sink_are_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    import numpy as np
                    from repro.network.topology import power_law_topology

                    def build(n: int, seed: int):
                        rng = np.random.default_rng(seed)
                        edges = power_law_topology(n, rng=rng)
                        weights = rng.normal(0.0, 1.0, n)
                        return edges, weights
                    """
                },
                select={"DGL011"},
            )
            == []
        )


# ----------------------------------------------------------------------
# DGL012 -- wall-clock reachability
# ----------------------------------------------------------------------

_TIMING_HELPER = """\
import time

def now_ms() -> int:
    return int(time.time() * 1000)
"""

_SIM_CALLER = """\
from repro.util.timing import now_ms

def tick() -> int:
    return now_ms()
"""


class TestWallClockReachability:
    def test_reaches_wall_clock_through_helper_module(self) -> None:
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/core/runner.py": _SIM_CALLER,
        }
        result = analyze(sources, select={"DGL012"})
        assert [f.code for f in result.findings] == ["DGL012"]
        finding = result.findings[0]
        assert finding.path == "src/repro/core/runner.py"
        assert "time.time" in finding.message
        assert "repro.util.timing.now_ms" in finding.message

    def test_old_per_file_rule_misses_the_same_fixture(self) -> None:
        """DGL002 is blind to the indirection DGL012 exists to catch:
        the wall-clock read lives outside the simulation scopes, the
        simulation file never names a clock."""
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/core/runner.py": _SIM_CALLER,
        }
        assert codes(sources, select={"DGL002"}) == []

    def test_two_level_indirection(self) -> None:
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/util/stats.py": """\
            from repro.util.timing import now_ms

            def stamp() -> int:
                return now_ms()
            """,
            "src/repro/sampling/walker.py": """\
            from repro.util.stats import stamp

            def step() -> int:
                return stamp()
            """,
        }
        result = analyze(sources, select={"DGL012"})
        assert [
            (f.code, f.path) for f in result.findings
        ] == [("DGL012", "src/repro/sampling/walker.py")]

    def test_profiling_module_is_exempt(self) -> None:
        sources = {
            "src/repro/obs/profile_extra.py": """\
            import time

            def profile_now() -> float:
                return time.perf_counter()
            """,
            "src/repro/core/runner.py": """\
            from repro.obs.profile_extra import profile_now

            def tick() -> float:
                return profile_now()
            """,
        }
        # only repro.obs.profile* modules are whitelisted wall-clock readers
        result = analyze(sources, select={"DGL012"})
        assert result.findings == []

    def test_sim_scoped_callee_owns_its_finding(self) -> None:
        """core -> core -> util chain: the finding lands once, on the
        sim function that makes the boundary-crossing call."""
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/core/inner.py": _SIM_CALLER.replace("tick", "inner_tick"),
            "src/repro/core/outer.py": """\
            from repro.core.inner import inner_tick

            def outer_tick() -> int:
                return inner_tick()
            """,
        }
        result = analyze(sources, select={"DGL012"})
        assert [f.path for f in result.findings] == ["src/repro/core/inner.py"]


# ----------------------------------------------------------------------
# DGL013 -- handler-raise reachability
# ----------------------------------------------------------------------

_RAISING_HANDLER_INDIRECT = """\
class Router:
    def _handle_packet(self, message):
        self._validate(message)

    def _validate(self, message):
        if message is None:
            raise ValueError("empty message")
"""


class TestHandlerRaiseReachability:
    PATH = "src/repro/protocol/snippet.py"

    def test_raise_hidden_in_helper_method(self) -> None:
        result = analyze(
            {self.PATH: _RAISING_HANDLER_INDIRECT}, select={"DGL013"}
        )
        assert [f.code for f in result.findings] == ["DGL013"]
        message = result.findings[0].message
        assert "_handle_packet" in message
        assert "ValueError" in message

    def test_old_per_file_rule_misses_the_same_fixture(self) -> None:
        """DGL006 only sees a raise written inside the handler body; the
        helper method hides it completely."""
        assert codes({self.PATH: _RAISING_HANDLER_INDIRECT}, select={"DGL006"}) == []

    def test_cross_module_helper(self) -> None:
        sources = {
            "src/repro/protocol/checks.py": """\
            def require_alive(node, graph):
                if node not in graph:
                    raise KeyError(node)
            """,
            "src/repro/protocol/router.py": """\
            from repro.protocol.checks import require_alive

            class Router:
                def _deliver_sample(self, node, graph):
                    require_alive(node, graph)
            """,
        }
        result = analyze(sources, select={"DGL013"})
        assert [
            (f.code, f.path) for f in result.findings
        ] == [("DGL013", "src/repro/protocol/router.py")]

    def test_not_implemented_error_is_exempt(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    class Router:
                        def _handle_packet(self, message):
                            self._dispatch(message)

                        def _dispatch(self, message):
                            raise NotImplementedError
                    """
                },
                select={"DGL013"},
            )
            == []
        )

    def test_recording_instead_of_raising_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    class Router:
                        def _handle_packet(self, message):
                            self._record(message)

                        def _record(self, message):
                            self.faults.append(message)
                    """
                },
                select={"DGL013"},
            )
            == []
        )


# ----------------------------------------------------------------------
# DGL014 -- layering conformance
# ----------------------------------------------------------------------


class TestLayeringConformance:
    def test_protocol_importing_core_is_flagged(self) -> None:
        sources = {
            "src/repro/protocol/snippet.py": """\
            from repro.core.scheduler import WalkBatchPlan

            def plan():
                return WalkBatchPlan
            """
        }
        result = analyze(sources, select={"DGL014"})
        assert [
            (f.code, f.path, f.line) for f in result.findings
        ] == [("DGL014", "src/repro/protocol/snippet.py", 1)]
        assert "repro.core.scheduler" in result.findings[0].message

    def test_network_importing_protocol_is_flagged(self) -> None:
        sources = {
            "src/repro/network/snippet.py": """\
            import repro.protocol.runtime
            """
        }
        assert codes(sources, select={"DGL014"}) == ["DGL014"]

    def test_stack_direction_is_allowed(self) -> None:
        """core -> protocol and protocol -> network flow with the stack."""
        sources = {
            "src/repro/core/snippet.py": """\
            from repro.protocol.runtime import ProtocolSampler
            """,
            "src/repro/protocol/other.py": """\
            from repro.network.graph import OverlayGraph
            """,
        }
        assert codes(sources, select={"DGL014"}) == []

    def test_type_checking_guard_is_still_a_crossing(self) -> None:
        sources = {
            "src/repro/protocol/snippet.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.scheduler import WalkBatchPlan
            """
        }
        result = analyze(sources, select={"DGL014"})
        assert [f.code for f in result.findings] == ["DGL014"]
        assert "TYPE_CHECKING" in result.findings[0].message

    def test_relative_import_resolves_to_absolute(self) -> None:
        """``from ..core import x`` in repro/protocol is repro.core."""
        sources = {
            "src/repro/protocol/snippet.py": """\
            from ..core import scheduler
            """
        }
        assert codes(sources, select={"DGL014"}) == ["DGL014"]

    def test_deferred_function_level_import_is_seen(self) -> None:
        sources = {
            "src/repro/network/snippet.py": """\
            def lazily():
                from repro.protocol.runtime import ProtocolSampler
                return ProtocolSampler
            """
        }
        assert codes(sources, select={"DGL014"}) == ["DGL014"]

    def test_tests_and_benchmarks_are_exempt(self) -> None:
        sources = {
            "tests/protocol/snippet.py": """\
            from repro.core.session import DigestSession
            from repro.protocol.runtime import ProtocolSampler
            """,
            "benchmarks/bench_snippet.py": """\
            from repro.core.session import DigestSession
            from repro.protocol.runtime import ProtocolSampler
            """,
        }
        assert codes(sources, select={"DGL014"}) == []


# ----------------------------------------------------------------------
# DGL015 -- context propagation
# ----------------------------------------------------------------------


class TestContextPropagation:
    PATH = "src/repro/protocol/snippet.py"

    def test_forwarded_ctx_name_passes(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import WalkToken

            def forward(token):
                return WalkToken(
                    walker_id=token.walker_id,
                    origin=token.origin,
                    steps_remaining=token.steps_remaining - 1,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=token.ctx,
                )
            """
        }
        assert codes(sources, select={"DGL015"}) == []

    def test_missing_ctx_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import SampleReturn

            def respond(token):
                return SampleReturn(
                    walker_id=token.walker_id,
                    origin=token.origin,
                    sampled_node=3,
                    at_node=3,
                )
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [(f.code, f.path) for f in result.findings] == [
            ("DGL015", self.PATH)
        ]
        assert "without ctx=" in result.findings[0].message

    def test_explicit_ctx_none_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import BounceBack

            def bounce(token):
                return BounceBack(
                    walker_id=token.walker_id, origin=token.origin, ctx=None
                )
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "drops context" in result.findings[0].message

    def test_hand_built_ctx_dict_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import WalkToken

            def forge(token):
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=1,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx={"trace_id": 1, "span_id": 1, "attempt": 1},
                )
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "hand-built ctx dict" in result.findings[0].message

    def test_direct_trace_context_construction_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import TraceContext

            def forge():
                return TraceContext(trace_id=1, span_id=1, attempt=1)
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "direct TraceContext" in result.findings[0].message

    def test_minting_outside_the_lifecycle_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import mint_context

            def remint(record):
                return mint_context(record.span_id, record.span_id, 2)
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "stamping authority" in result.findings[0].message

    def test_reminting_at_the_construction_site_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import WalkToken, mint_context

            def launch(span_id):
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=5,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=mint_context(span_id, span_id, 1),
                )
            """
        }
        # both the mint-outside-authority and the re-mint-at-ctor findings
        assert codes(sources, select={"DGL015"}) == ["DGL015", "DGL015"]

    def test_lifecycle_module_may_mint(self) -> None:
        sources = {
            "src/repro/protocol/lifecycle.py": """\
            from repro.protocol.messages import WalkToken, mint_context

            def launch(span_id, attempt):
                ctx = mint_context(span_id, span_id, attempt)
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=5,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=ctx,
                )
            """
        }
        assert codes(sources, select={"DGL015"}) == []

    def test_weight_advertisement_is_control_traffic(self) -> None:
        """WeightAdvertisement is caused by no single walk; ctx-free
        construction is legitimate there."""
        sources = {
            "src/repro/network/snippet.py": """\
            from repro.protocol.messages import WeightAdvertisement

            def advertise(node):
                return WeightAdvertisement(sender=node, weight=1.0, degree=4)
            """
        }
        assert codes(sources, select={"DGL015"}) == []

    def test_tests_and_tools_are_exempt(self) -> None:
        sources = {
            "tests/protocol/snippet.py": """\
            from repro.protocol.messages import TraceContext, WalkToken

            def fixture():
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=1,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=TraceContext(trace_id=1, span_id=1, attempt=1),
                )
            """
        }
        assert codes(sources, select={"DGL015"}) == []


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


class TestPragmas:
    PATH = "src/repro/sampling/snippet.py"

    def test_dgl_disable_suppresses_exactly_the_named_rule(self) -> None:
        assert (
            codes(
                {
                    self.PATH: (
                        "import numpy as np\n"
                        "rng = np.random.default_rng()  # dgl: disable=DGL001\n"
                    )
                }
            )
            == []
        )

    def test_dgl_disable_with_wrong_code_does_not_suppress(self) -> None:
        result = analyze(
            {
                self.PATH: (
                    "import numpy as np\n"
                    "rng = np.random.default_rng()  # dgl: disable=DGL004\n"
                )
            }
        )
        found = {f.code for f in result.findings}
        assert "DGL001" in found  # the real finding survives
        assert "DGL099" in found  # and the useless pragma is reported

    def test_unused_suppression_is_reported(self) -> None:
        result = analyze(
            {self.PATH: "x = 1  # dgl: disable=DGL007\n"}
        )
        assert [f.code for f in result.findings] == ["DGL099"]
        assert "DGL007" in result.findings[0].message

    def test_unused_detection_skipped_under_select(self) -> None:
        assert (
            codes(
                {self.PATH: "x = 1  # dgl: disable=DGL007\n"},
                select={"DGL001"},
            )
            == []
        )

    def test_bare_noqa_still_works_without_unused_reporting(self) -> None:
        assert (
            codes(
                {
                    self.PATH: (
                        "import numpy as np\n"
                        "rng = np.random.default_rng()  # noqa\n"
                    )
                }
            )
            == []
        )

    def test_bare_noqa_suppresses(self) -> None:
        """A bare ``# noqa`` silences every rule firing on its line."""
        path = "src/repro/core/snippet.py"
        line = "    return time.time() if x == 0.5 else 0.0"
        source = "import time\n\ndef f(x: float) -> float:\n" + line + "{}\n"
        assert local_codes(source.format(""), path) == ["DGL002", "DGL004"]
        assert local_codes(source.format("  # noqa"), path) == []

    def test_noqa_with_matching_code_suppresses(self) -> None:
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # noqa: DGL001\n"
        )
        assert codes({self.PATH: source}) == []

    def test_noqa_with_other_code_does_not_suppress(self) -> None:
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # noqa: DGL002\n"
        )
        assert codes({self.PATH: source}, select={"DGL001"}) == ["DGL001"]

    def test_noqa_code_list(self) -> None:
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # noqa: DGL004, DGL001\n"
        )
        assert codes({self.PATH: source}, select=LOCAL_CODES) == []

    def test_docstring_example_is_not_a_pragma(self) -> None:
        source = (
            '"""Suppress with `# dgl: disable=DGL001` on the line."""\n'
            "x = 1\n"
        )
        assert parse_pragmas(source) == {}

    def test_multiple_codes_one_pragma(self) -> None:
        pragmas = parse_pragmas("y = a == 1.0  # dgl: disable=DGL004, DGL001\n")
        assert pragmas[1].dgl_codes == ("DGL004", "DGL001")


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def _finding(path: str, line: int, code: str, message: str) -> Finding:
    return Finding(path=path, line=line, col=1, code=code, message=message)


class TestBaseline:
    def test_round_trip_absorbs_findings_line_independently(
        self, tmp_path: Path
    ) -> None:
        old = [_finding("src/a.py", 10, "DGL004", "float equality")]
        baseline_file = tmp_path / "baseline.json"
        write_baseline(old, baseline_file)
        # the same finding, drifted to another line, still matches
        drifted = [_finding("src/a.py", 99, "DGL004", "float equality")]
        fresh, stale = apply_baseline(drifted, load_baseline(baseline_file))
        assert fresh == [] and not stale

    def test_new_findings_are_not_absorbed(self, tmp_path: Path) -> None:
        baseline_file = tmp_path / "baseline.json"
        write_baseline(
            [_finding("src/a.py", 1, "DGL004", "float equality")], baseline_file
        )
        new = [
            _finding("src/a.py", 1, "DGL004", "float equality"),
            _finding("src/a.py", 2, "DGL004", "other message"),
        ]
        fresh, stale = apply_baseline(new, load_baseline(baseline_file))
        assert [f.message for f in fresh] == ["other message"]
        assert not stale

    def test_counts_are_a_multiset(self, tmp_path: Path) -> None:
        pair = [
            _finding("src/a.py", 1, "DGL004", "float equality"),
            _finding("src/a.py", 2, "DGL004", "float equality"),
        ]
        baseline_file = tmp_path / "baseline.json"
        write_baseline(pair, baseline_file)
        triple = pair + [_finding("src/a.py", 3, "DGL004", "float equality")]
        fresh, _stale = apply_baseline(triple, load_baseline(baseline_file))
        assert len(fresh) == 1

    def test_stale_entries_are_reported(self, tmp_path: Path) -> None:
        baseline_file = tmp_path / "baseline.json"
        write_baseline(
            [_finding("src/gone.py", 1, "DGL004", "fixed long ago")],
            baseline_file,
        )
        fresh, stale = apply_baseline([], load_baseline(baseline_file))
        assert fresh == []
        assert sum(stale.values()) == 1

    def test_missing_baseline_is_empty(self, tmp_path: Path) -> None:
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_committed_baseline_loads(self) -> None:
        baseline = load_baseline(
            REPO_ROOT / "tools" / "digest_analyzer" / "baseline.json"
        )
        assert baseline  # grandfathered findings exist and parse


# ----------------------------------------------------------------------
# schema facts (static parse)
# ----------------------------------------------------------------------


class TestSchemaFacts:
    def test_real_schema_parses(self) -> None:
        facts = parse_schema_source(SCHEMA_TEXT, SCHEMA_PATH)
        assert "walk" in facts.spans
        assert "fault" in facts.events
        assert facts.resolve_ref("repro.obs.schema.SPAN_WALK") == "walk"
        assert facts.resolve_ref("somewhere.else.SPAN_WALK") is None
        assert "outcome" in facts.spans["walk"].required

    def test_restructured_registry_fails_loudly(self) -> None:
        with pytest.raises(SchemaParseError):
            parse_schema_source(
                "SPAN_SCHEMAS = build_registry()\nEVENT_SCHEMAS = {}\n",
                "schema.py",
            )


# ----------------------------------------------------------------------
# engine: unparseable files, cache, SARIF
# ----------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self) -> None:
        result = analyze({"src/repro/core/broken.py": "def f(:\n    pass\n"})
        broken = [
            f for f in result.findings if f.path == "src/repro/core/broken.py"
        ]
        assert [f.code for f in broken] == ["DGL000"]
        assert broken[0].line == 1
        assert result.parse_failures == 1

    def test_syntax_error_reports_dgl000(self) -> None:
        """An unparseable file is reported without hiding its neighbours."""
        result = analyze(
            {
                "src/repro/sampling/broken.py": "def broken(:\n",
                "src/repro/sampling/bad.py": (
                    "import numpy as np\nrng = np.random.default_rng()\n"
                ),
            },
            select=LOCAL_CODES,
        )
        assert sorted((f.path, f.code) for f in result.findings) == [
            ("src/repro/sampling/bad.py", "DGL001"),
            ("src/repro/sampling/broken.py", "DGL000"),
        ]

    def test_missing_path_raises(self, tmp_path: Path) -> None:
        with pytest.raises(FileNotFoundError):
            analyze_paths([tmp_path / "nope"], repo_root=tmp_path)

    def test_rule_catalog_is_complete(self) -> None:
        assert sorted(RULE_CATALOG) == [
            *(f"DGL{n:03d}" for n in range(16)),
            "DGL099",
        ]
        for name, summary, rationale in RULE_CATALOG.values():
            assert name and summary and rationale

    def test_null_bytes_are_a_finding_not_a_crash(self) -> None:
        result = analyze({"src/repro/core/binary.py": "x = 1\x00"})
        assert [
            f.code
            for f in result.findings
            if f.path == "src/repro/core/binary.py"
        ] == ["DGL000"]

    def test_select_restricts_rules(self) -> None:
        bad_both = (
            "import numpy as np\nimport time\n"
            "rng = np.random.default_rng()\nt = time.time()\n"
        )
        path = "src/repro/core/snippet.py"
        assert local_codes(bad_both, path) == ["DGL001", "DGL002"]
        assert codes({path: bad_both}, select={"DGL002"}) == ["DGL002"]

    def test_findings_are_sorted_and_renderable(self, tmp_path: Path) -> None:
        scoped = tmp_path / "core"
        scoped.mkdir()
        bad = scoped / "bad.py"
        bad.write_text(
            "import time\n\n"
            "def f(x: float) -> float:\n"
            "    return time.time() if x == 0.5 else 0\n"
        )
        # tmp_path has no ``repro`` component, so DGL005 stays out of scope
        findings = analyze_paths(
            [tmp_path], repo_root=tmp_path, select=frozenset(LOCAL_CODES)
        ).findings
        assert findings == sorted(findings)
        assert {f.code for f in findings} == {"DGL002", "DGL004"}
        rendered = findings[0].render()
        assert "core/bad.py" in rendered and ":DGL" not in rendered

    def test_cache_hits_on_second_run(self, tmp_path: Path) -> None:
        (tmp_path / "proj").mkdir()
        target = tmp_path / "proj" / "mod.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        cache_file = tmp_path / "cache.json"
        first = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert [f.code for f in second.findings] == [
            f.code for f in first.findings
        ]

    def test_cache_invalidated_by_content_change(self, tmp_path: Path) -> None:
        (tmp_path / "proj").mkdir()
        target = tmp_path / "proj" / "mod.py"
        target.write_text("x = 1\n")
        cache_file = tmp_path / "cache.json"
        analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        target.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        result = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert result.cache_misses == 1
        assert [f.code for f in result.findings] == ["DGL001"]

    def test_sarif_document_shape(self) -> None:
        finding = _finding("src/a.py", 3, "DGL011", "stream crossing")
        document = json.loads(
            render_sarif([finding], {"DGL011": ("summary", "rationale")}, "1")
        )
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "digest-analyzer"
        result = run["results"][0]
        assert result["ruleId"] == "DGL011"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["region"]["startLine"] == 3
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids.index("DGL011") == result["ruleIndex"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_list_rules_covers_the_full_catalog(self) -> None:
        process = run_cli("--list-rules")
        assert process.returncode == 0
        for code in (
            "DGL000",
            *sorted(LOCAL_CODES),
            "DGL009",
            "DGL010",
            "DGL011",
            "DGL012",
            "DGL013",
            "DGL099",
        ):
            assert code in process.stdout
        assert set(RULE_CATALOG) >= {"DGL009", "DGL013", "DGL099"}
        for _name, summary, rationale in RULE_CATALOG.values():
            assert summary and rationale

    def test_list_rules(self) -> None:
        process = run_cli("--list-rules")
        assert process.returncode == 0
        for code, (name, _summary, _rationale) in RULE_CATALOG.items():
            assert f"{code} [{name}]" in process.stdout

    def test_clean_tree_exits_zero(self) -> None:
        process = run_cli(
            "--no-cache", "--no-baseline",
            "--select", ",".join(sorted(LOCAL_CODES)), "src/repro",
        )
        assert process.returncode == 0, process.stdout + process.stderr
        assert process.stdout == ""

    def test_findings_exit_one_and_render_locations(
        self, tmp_path: Path
    ) -> None:
        bad = tmp_path / "src" / "repro" / "sampling" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        process = run_cli(
            "--root", str(tmp_path), "--no-cache", "--select", "DGL001"
        )
        assert process.returncode == 1
        assert "bad.py:2:7: DGL001" in process.stdout

    def test_each_per_file_rule_fails_the_run(self, tmp_path: Path) -> None:
        fixtures = {
            "DGL001": (
                "sampling",
                "import numpy as np\nrng = np.random.default_rng()\n",
            ),
            "DGL002": ("core", "import time\nt = time.time()\n"),
            "DGL003": ("protocol", "def f(g):\n    return g._adjacency\n"),
            "DGL004": ("core", "def f(x):\n    return x == 0.5\n"),
            "DGL005": ("repro", "def f(x):\n    return x\n"),
            "DGL006": (
                "protocol",
                "def _handle_x(m: object) -> None:\n    raise ValueError(m)\n",
            ),
            "DGL007": ("repro", 'print("hi")\n'),
            "DGL008": (
                "repro/core",
                "from repro.sampling.operator import SamplingOperator\n"
                "op = SamplingOperator(None, None)\n",
            ),
        }
        for code, (scope, source) in fixtures.items():
            scoped = tmp_path / code / scope
            scoped.mkdir(parents=True)
            (scoped / "bad.py").write_text(source)
        process = run_cli(
            "--root", str(tmp_path), "--no-cache",
            "--select", ",".join(sorted(fixtures)), str(tmp_path),
        )
        assert process.returncode == 1, process.stdout + process.stderr
        for code, (scope, _source) in fixtures.items():
            assert f"{code}/{scope}/bad.py:" in process.stdout
            assert f": {code} " in process.stdout

    def test_unknown_rule_code_exits_two(self) -> None:
        process = run_cli("--select", "DGL999", "src")
        assert process.returncode == 2

    def test_missing_path_exits_two(self) -> None:
        process = run_cli("definitely/not/here")
        assert process.returncode == 2

    def test_missing_path_is_usage_error(self) -> None:
        process = run_cli("definitely/not/a/path")
        assert process.returncode == 2
        assert "error: no such path: definitely/not/a/path" in process.stderr

    def test_unknown_select_names_the_code(self) -> None:
        process = run_cli("--select", "DGL001,DGL999", "src")
        assert process.returncode == 2
        assert "unknown rule codes: DGL999" in process.stderr

    def test_sarif_output_is_written(self, tmp_path: Path) -> None:
        bad = tmp_path / "src" / "repro" / "sampling" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        sarif_file = tmp_path / "out.sarif"
        process = run_cli(
            "--root",
            str(tmp_path),
            "--no-cache",
            "--sarif",
            str(sarif_file),
        )
        assert process.returncode == 1
        document = json.loads(sarif_file.read_text())
        assert document["runs"][0]["results"]

    def test_write_baseline_then_clean(self, tmp_path: Path) -> None:
        bad = tmp_path / "src" / "repro" / "sampling" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        write = run_cli("--root", str(tmp_path), "--no-cache", "--write-baseline")
        assert write.returncode == 0
        check = run_cli("--root", str(tmp_path), "--no-cache")
        assert check.returncode == 0, check.stdout + check.stderr


# ----------------------------------------------------------------------
# the repository meta-test
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_analyzer_reports_zero_non_baselined_findings(self) -> None:
        """The CI invariant: the repo analyzes clean against its own
        committed baseline (and the baseline itself has no stale
        entries)."""
        process = run_cli("--no-cache", "--stats")
        assert process.returncode == 0, process.stdout + process.stderr
        assert "stale baseline entry" not in process.stderr

    @pytest.mark.parametrize("root", ["src/repro", "tools"])
    def test_per_file_rules_need_no_baseline(self, root: str) -> None:
        """The per-file rules hold with no grandfathered debt at all."""
        result = analyze_paths(
            [REPO_ROOT / root],
            repo_root=REPO_ROOT,
            select=frozenset(LOCAL_CODES),
        )
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_runs_fast_enough_for_ci(self) -> None:
        import time

        started = time.perf_counter()
        run_cli("--no-cache")
        elapsed = time.perf_counter() - started
        # "under a few seconds" with generous CI headroom
        assert elapsed < 30.0
