import time

import pytest

from mcrx import (
    DocumentCritic,
    ExitCriteria,
    QueryScorer,
    apply_rules,
    document_candidate_generator,
    rank,
    run,
    watch_read,
)
from mcrx.errors import NoCandidateError, UnknownLabelError

from conftest import make_kb


def counting_generator(candidates):
    pending = iter(candidates)

    def generate(feedback):
        return next(pending, None)

    return generate


def test_exit_criteria_requires_a_bound():
    with pytest.raises(ValueError):
        ExitCriteria()
    with pytest.raises(ValueError):
        ExitCriteria(max_iterations=0)


@pytest.mark.parametrize(
    "bounds",
    [
        {"max_iterations": True},
        {"max_iterations": 2.5},
        {"max_iterations": 2.0},
        {"max_iterations": "5"},
        {"max_seconds": float("nan")},
        {"max_seconds": float("inf")},
        {"max_seconds": -1.0},
        {"max_seconds": True},
        {"max_seconds": "5"},
        {"score_threshold": float("nan")},
        {"score_threshold": True},
        {"score_threshold": "100"},
        {"max_iterations": 10, "max_seconds": float("nan")},
        {"max_iterations": 10, "score_threshold": False},
    ],
)
def test_exit_criteria_refuses_bounds_that_cannot_trip(bounds):
    with pytest.raises(ValueError):
        ExitCriteria(**bounds)


def test_exit_criteria_accepts_finite_bounds():
    criteria = ExitCriteria(max_iterations=1, max_seconds=0, score_threshold=-1)
    assert criteria._replace(score_threshold=100.0).score_threshold == 100.0
    assert ExitCriteria(max_seconds=0.5).max_seconds == 0.5
    assert ExitCriteria(score_threshold=float("inf")).score_threshold == float("inf")


def test_exit_criteria_is_an_immutable_checked_record():
    criteria = ExitCriteria(max_iterations=5)
    # _replace (through _make) runs the constructor's checks again
    with pytest.raises(ValueError):
        criteria._replace(max_iterations=0)
    with pytest.raises(ValueError):
        ExitCriteria._make((None, None, None))
    with pytest.raises(AttributeError):
        criteria.max_iterations = 0
    with pytest.raises(AttributeError):
        criteria.extra = 1
    assert criteria == ExitCriteria(max_iterations=5) and criteria != ExitCriteria(max_iterations=6)
    assert hash(criteria) == hash(ExitCriteria(max_iterations=5))
    assert criteria.max_iterations == 5


def test_threshold_exit_on_first_candidate():
    report = run(
        counting_generator(["goal"]),
        lambda candidate: 100.0,
        ExitCriteria(score_threshold=100.0, max_iterations=50),
    )
    assert report.exit_reason == "threshold"
    assert report.iterations == 1
    assert report.best == "goal"


def test_iterations_exit_with_full_history():
    report = run(
        counting_generator(range(100)),
        lambda candidate: float(candidate),
        ExitCriteria(max_iterations=5, score_threshold=1000.0),
    )
    assert report.exit_reason == "iterations"
    assert report.iterations == 5
    assert len(report.history) == 5


def test_time_exit_between_iterations():
    def slow_critic(candidate):
        time.sleep(0.02)
        return 0.0

    report = run(
        counting_generator(range(100)),
        slow_critic,
        ExitCriteria(max_seconds=0.01),
    )
    assert report.exit_reason == "time"
    assert report.iterations >= 1


def test_generator_exhaustion_after_candidates():
    report = run(
        counting_generator(["one", "two"]),
        lambda candidate: 1.0,
        ExitCriteria(max_iterations=10),
    )
    assert report.exit_reason == "exhausted"
    assert report.iterations == 2


def test_generator_with_no_candidates_is_an_error():
    with pytest.raises(NoCandidateError):
        run(counting_generator([]), lambda c: 0.0, ExitCriteria(max_iterations=3))


def test_generator_receives_previous_score():
    seen = []

    def instrumented(feedback):
        seen.append(feedback)
        if len(seen) > 3:
            return None
        return len(seen)

    run(instrumented, lambda candidate: candidate * 10.0, ExitCriteria(max_iterations=10))
    assert seen[0] is None
    assert seen[1].score == 10.0 and seen[1].iteration == 1
    assert seen[2].score == 20.0 and seen[2].best_score == 20.0
    assert seen[3].best == 3


def test_best_is_running_maximum():
    scores = [5.0, 3.0, 9.0, 9.0, 1.0]
    report = run(
        counting_generator(range(len(scores))),
        lambda candidate: scores[candidate],
        ExitCriteria(max_iterations=len(scores)),
    )
    best_so_far = float("-inf")
    for _, score in report.history:
        best_so_far = max(best_so_far, score)
    assert report.best_score == best_so_far == 9.0
    assert report.best == 2  # first candidate reaching the maximum


def test_document_task_matches_rank(c2):
    expected = rank(c2, "a b", k=10, n=10, exclude_self=False)
    scorer = QueryScorer(c2, "a b")
    report = run(
        document_candidate_generator(scorer, k=10, exclude_self=False),
        DocumentCritic(scorer),
        ExitCriteria(max_iterations=10, score_threshold=100.0),
    )
    assert report.exit_reason == "threshold"
    best_label = c2.nodes[report.best].label
    assert best_label == expected[0].label
    assert report.best_score == pytest.approx(expected[0].percent, abs=1e-12)


def test_document_task_exhausts_without_self(c3):
    d2 = c3.article_id("d2")
    expected = rank(c3, d2, k=10, n=10, exclude_self=True)
    scorer = QueryScorer(c3, d2)
    report = run(
        document_candidate_generator(scorer, k=10, exclude_self=True),
        DocumentCritic(scorer),
        ExitCriteria(max_iterations=10, score_threshold=100.0),
    )
    assert report.exit_reason == "exhausted"
    assert c3.nodes[report.best].label == expected[0].label


def test_apply_rules_empty():
    kb = make_kb({"d": "x y"})
    assert apply_rules(kb, {}) == (0, [])


def test_apply_rules_zero_mutes_shared_word(c2):
    applied, unresolved = apply_rules(c2, {"b": 0.0})
    assert applied == 1 and unresolved == []
    scorer = QueryScorer(c2, "a b")
    assert scorer.score(c2.article_id("d2")).percent == 0.0
    labels = [r.label for r in rank(c2, "a b", exclude_self=False)]
    assert labels == ["d1"]


def test_apply_rules_unresolved_reported(c2):
    applied, unresolved = apply_rules(c2, {"nosuchword": 2.0})
    assert applied == 0
    assert unresolved == ["nosuchword"]


def test_apply_rules_rejects_negative(c2):
    with pytest.raises(ValueError):
        apply_rules(c2, {"a": -1.0})


@pytest.mark.parametrize(
    "multiplier",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        True,
        False,
        pytest.param(10**400, id="10**400"),
        "2",
        None,
    ],
)
def test_apply_rules_rejects_non_finite(c2, multiplier):
    apply_rules(c2, {"b": 0.5})
    before = dict(c2.attention)
    with pytest.raises(ValueError):
        apply_rules(c2, {"a": 2.0, "b": multiplier})
    assert c2.attention == before  # nothing applied


def test_apply_rules_resolves_article_labels(c2):
    applied, unresolved = apply_rules(c2, {"d2": 0.25})
    assert applied == 1 and unresolved == []
    assert c2.attention[c2.article_id("d2")] == 0.25
    assert type(c2.attention) is dict  # the stored rules stay a plain node-id map


def test_rule_reversibility(c2):
    baseline = [(r.label, r.percent) for r in rank(c2, "a b", exclude_self=False)]
    apply_rules(c2, {"a": 2.0, "b": 0.5})
    disturbed = [(r.label, r.percent) for r in rank(c2, "a b", exclude_self=False)]
    assert disturbed != baseline
    apply_rules(c2, {"a": 1.0, "b": 1.0})
    assert [(r.label, r.percent) for r in rank(c2, "a b", exclude_self=False)] == baseline
    assert c2.attention == {}


def test_watch_read_word_value(c2):
    values = watch_read(QueryScorer(c2, "a b"), ["a"])
    assert values["a"] == pytest.approx(0.5493061443340549, abs=1e-12)
    assert values["a"] == pytest.approx(0.54931, abs=1e-5)


def test_watch_read_article_and_absent(c2):
    values = watch_read(QueryScorer(c2, "c"), ["d2", "d1"])
    assert values["d2"] > 0
    assert values["d1"] == 0.0  # shares no word with the source


def test_watch_read_empty_and_unknown(c2):
    scorer = QueryScorer(c2, "a")
    assert watch_read(scorer, []) == {}
    with pytest.raises(UnknownLabelError):
        watch_read(scorer, ["ghost"])


def test_watch_log_per_iteration(c2):
    scorer = QueryScorer(c2, "a b")
    report = run(
        document_candidate_generator(scorer, k=10, exclude_self=False),
        DocumentCritic(scorer),
        ExitCriteria(max_iterations=10),
        watch=("a", "b"),
    )
    iterations = report.iterations
    assert len(report.watch_log) == 2 * iterations
    assert report.watch_log[0][1] == "a"
    assert report.watch_log[0][2] == pytest.approx(0.5493061443340549, abs=1e-12)


def test_watch_requires_capable_critic():
    with pytest.raises(ValueError):
        run(
            counting_generator([1]),
            lambda c: 0.0,
            ExitCriteria(max_iterations=1),
            watch=("a",),
        )
