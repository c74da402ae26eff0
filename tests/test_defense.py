import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedattr import oracles
from fedattr.defense import (
    TrimDecision,
    detection_metrics,
    plausibility_check,
    trim_round,
    trim_rounds,
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
    with pytest.raises(ValueError, match="at least two clients"):
        trim_rounds([[np.ones(2), np.ones(2)], [np.ones(2)]], tau=0.1)


def random_stack(rng, case):
    """A runs x clients x params stack: plain draws, draws with exact
    distance ties (integer updates mirrored about a center), or runs of
    identical updates."""
    runs, clients, params = (int(v) for v in rng.integers([1, 2, 1], [5, 9, 7]))
    if case == "random":
        return rng.normal(size=(runs, clients, params)) * rng.choice([1e-3, 1.0, 1e3])
    if case == "identical":
        return np.broadcast_to(rng.normal(size=(runs, 1, params)), (runs, clients, params))
    half = rng.integers(-4, 5, size=(runs, (clients + 1) // 2, params)).astype(float)
    center = rng.integers(-9, 10, size=(runs, 1, params))
    return (center + np.concatenate([half, -half], axis=1))[:, :clients]


@pytest.mark.parametrize("case", ["random", "ties", "identical"])
@pytest.mark.parametrize("seed", range(8))
def test_stacked_trimming_matches_the_oracle_and_each_round_alone(case, seed):
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, case)
    tau = float(rng.choice([0.1, 0.25, 0.5, 0.75]))
    decisions = trim_rounds(list(stack), tau, t=3)
    assert len(decisions) == len(stack)
    for updates, dec in zip(stack, decisions):
        alone = trim_round(list(updates), tau, t=3)
        assert (dec.t, dec.trimmed) == (alone.t, alone.trimmed)
        assert dec.distances.tobytes() == alone.distances.tobytes()
        distances, trimmed = oracles.trim_round(updates, tau)
        assert dec.trimmed == trimmed
        assert np.allclose(dec.distances, distances, rtol=1e-12, atol=0.0)
    if case == "identical":  # every distance 0: the highest ids go
        top = set(range(stack.shape[1] - len(decisions[0].trimmed), stack.shape[1]))
        assert all(dec.trimmed == top for dec in decisions)


@st.composite
def update_stacks(draw):
    """R rounds x N clients x P parameters: values from a small pool (ties,
    +-0.0) or of any finite magnitude, and some clients copies of others."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, 12)), draw(st.integers(1, 9)))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(-1e300, 1e300, allow_nan=False),
    )
    stack = draw(arrays(np.float64, shape, elements=values))
    for i in range(shape[1]):
        stack[:, i] = stack[:, draw(st.integers(0, i))]
    return stack


@settings(max_examples=300, deadline=None)
@given(update_stacks())
def test_trimming_distances_are_those_from_numpy_median(stack):
    # the sorted median is np.median's arithmetic: the same center, and so
    # the same distances, bit for bit (squares of 1e300 overflow alike)
    with np.errstate(over="ignore", invalid="ignore"):
        center = np.median(stack, axis=1, keepdims=True)
        expected = np.linalg.norm(stack - center, axis=2)
        decisions = trim_rounds(list(stack), 0.5)
    assert [dec.distances.tobytes() for dec in decisions] == [row.tobytes() for row in expected]


def test_oracle_trim_applies_the_tie_rule():
    # clients 1 and 3 tie for farthest, then clients 0 and 2
    updates = [np.array([1.0]), np.array([3.0]), np.array([-1.0]), np.array([-3.0])]
    distances, trimmed = oracles.trim_round(updates, 0.25)
    assert distances == [1.0, 3.0, 1.0, 3.0]
    assert trimmed == {3}
    assert oracles.trim_round(updates, 0.5)[1] == {1, 3}
    assert oracles.trim_round(updates, 0.75)[1] == {1, 2, 3}


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
