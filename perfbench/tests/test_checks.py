"""The correctness checks a run applies to its repeats."""

from __future__ import annotations

import pytest

import run
from workloads import Answer


def _answers(hits: int, misses: int) -> list[Answer]:
    return [
        Answer(
            tick=index,
            query="q0",
            estimate=0.0 if index < hits else 1.0,
            truth=0.0,
            epsilon=0.5,
            confidence=0.95,
            degraded=False,
            achieved_epsilon=None,
        )
        for index in range(hits + misses)
    ]


def _repeat(answers: list[Answer], messages: int = 10) -> run.Repeat:
    return run.Repeat(
        traced=False,
        setup_s=0.1,
        answers=answers,
        window={"messages": messages, "walks_completed": 5, "walks_launched": 5},
    )


def test_binomial_cdf() -> None:
    assert run.binomial_cdf(20, 20, 0.95) == pytest.approx(1.0)
    assert run.binomial_cdf(16, 20, 0.95) == pytest.approx(0.01590, abs=1e-5)


def test_plausible_coverage_passes_and_implausible_fails() -> None:
    failures, _ = run.check([_repeat(_answers(16, 4))])
    assert failures == []
    failures, _ = run.check([_repeat(_answers(10, 10))])
    assert len(failures) == 1 and "coverage of q0" in failures[0]


def test_degraded_answer_without_achieved_epsilon_fails() -> None:
    answers = _answers(20, 0)
    answers[3] = Answer(3, "q0", 0.0, 0.0, 0.5, 0.95, True, None)
    failures, bad = run.check([_repeat(answers)])
    assert bad == 1 and failures


def test_repeats_must_agree_on_exact_counts() -> None:
    answers = _answers(20, 0)
    failures, _ = run.check([_repeat(answers), _repeat(answers, messages=11)])
    assert failures == ["repeat 1 differs from repeat 0 in messages: 11 != 10"]


def test_a_short_check_repeat_is_compared_over_its_prefix() -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS["clean_multi"]
    long = run.run_repeat(workload, 9, False, run.CHECK_TICKS + 3)
    same = run.run_repeat(workload, 9, False, run.CHECK_TICKS, turn=1)
    other = run.run_repeat(workload, 10, False, run.CHECK_TICKS)
    assert run.check([long, same])[0] == []
    assert run.check([long, other])[0]
