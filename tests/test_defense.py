import numpy as np
import pytest

from fedattr.defense import (
    TrimDecision,
    detection_metrics,
    plausibility_check,
    trim_round,
)


def test_trim_flags_the_distant_client():
    updates = [np.zeros(4) for _ in range(9)] + [np.full(4, 100.0)]
    decision = trim_round(updates, tau=0.1)
    assert decision.trimmed == {9}
    assert decision.kept == set(range(9))
    assert len(decision.distances) == 10


def test_trim_identical_updates_uses_tie_rule():
    updates = [np.ones(3) for _ in range(5)]
    decision = trim_round(updates, tau=0.2)
    assert np.allclose(decision.distances, 0.0)
    assert decision.trimmed == {4}  # ties break toward the higher id


def test_trim_count_is_ceil():
    updates = [np.full(2, float(i)) for i in range(10)]
    assert len(trim_round(updates, tau=0.1).trimmed) == 1
    assert len(trim_round(updates, tau=0.11).trimmed) == 2
    assert len(trim_round(updates, tau=0.5).trimmed) == 5


def test_trim_validation():
    with pytest.raises(ValueError):
        trim_round([np.ones(2)], tau=0.1)
    with pytest.raises(ValueError):
        trim_round([np.ones(2), np.ones(2)], tau=1.0)
    with pytest.raises(ValueError):
        trim_round([np.ones(2), np.ones(2)], tau=0.0)


def test_plausibility_examples():
    median = np.array([1.0, 2.0, 0.0])
    kept = [median, median, median]
    same = plausibility_check(median, kept, eps=0.5)
    assert same.distance == pytest.approx(0.0, abs=1e-12)
    assert not same.flagged
    opposite = plausibility_check(-median, kept, eps=0.5)
    assert opposite.distance == pytest.approx(2.0, abs=1e-12)
    assert opposite.flagged
    orthogonal = plausibility_check(np.array([0.0, 0.0, 5.0]), kept, eps=1.5)
    assert orthogonal.distance == pytest.approx(1.0, abs=1e-12)
    assert not orthogonal.flagged
    zero = plausibility_check(np.zeros(3), kept, eps=0.5)
    assert zero.distance == 1.0
    with pytest.raises(ValueError):
        plausibility_check(median, [], eps=0.5)


def decision(t, trimmed, n=10):
    return TrimDecision(t=t, distances=np.zeros(n), trimmed=frozenset(trimmed))


def test_detection_perfect_and_zero():
    hits = [decision(t, {3}) for t in range(1, 6)]
    score = detection_metrics(hits, {3})
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    misses = [decision(t, {1}) for t in range(1, 6)]
    score = detection_metrics(misses, {3})
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_detection_requires_malicious_and_rounds():
    with pytest.raises(ValueError):
        detection_metrics([decision(1, {0})], set())
    with pytest.raises(ValueError):
        detection_metrics([], {1})


def test_detection_round_order_invariant():
    rng = np.random.default_rng(0)
    decisions = [decision(t, {int(rng.integers(0, 10))}) for t in range(20)]
    forward = detection_metrics(decisions, {4})
    backward = detection_metrics(list(reversed(decisions)), {4})
    assert forward == backward


def test_random_guess_baseline_is_one_over_n():
    # trimming 1 of 10 at random against a single attacker: mean F1 -> 0.10
    rng = np.random.default_rng(123)
    decisions = [
        decision(t, {int(rng.integers(0, 10))}) for t in range(20000)
    ]
    score = detection_metrics(decisions, {7})
    assert score.f1 == pytest.approx(0.10, abs=0.01)
    assert score.precision == pytest.approx(score.recall, abs=1e-12)


def test_trim_then_aggregate_reduces_to_fedavg_over_kept():
    from fedattr.flcore import weighted_aggregate

    rng = np.random.default_rng(5)
    updates = [rng.normal(size=6) for _ in range(4)]
    n = [2, 3, 4, 5]
    dec = trim_round(updates, tau=0.25)
    kept = sorted(dec.kept)
    agg = weighted_aggregate(updates, n, [np.isin(range(4), kept)])
    # identical updates: trimming any subset leaves the aggregate unchanged
    same = [np.ones(6)] * 4
    dec2 = trim_round(same, tau=0.25)
    kept2 = sorted(dec2.kept)
    assert np.allclose(
        weighted_aggregate(same, n, [np.isin(range(4), kept2)]),
        weighted_aggregate(same, n, [[True] * 4]),
    )
    assert agg.shape == (1, 6)
