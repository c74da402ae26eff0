import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedattr import models, oracles
from fedattr.models import LabeledBatch, ModelSpec


def random_batch(rng, spec, n=8):
    return LabeledBatch(
        rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.num_classes, n)
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("mlp1", input_dim=2, num_classes=2, hidden_dim=0)
    with pytest.raises(ValueError):
        ModelSpec("logistic", input_dim=2, num_classes=2, hidden_dim=3)
    with pytest.raises(ValueError):
        ModelSpec("logistic", input_dim=2, num_classes=1)
    with pytest.raises(ValueError):
        ModelSpec("resnet", input_dim=2, num_classes=2)


def test_param_count():
    assert ModelSpec("logistic", input_dim=2, num_classes=2).param_count == 6
    assert (
        ModelSpec("mlp1", input_dim=3, num_classes=4, hidden_dim=5).param_count
        == 15 + 5 + 20 + 4
    )


def test_init_deterministic_and_biases_zero():
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    a = models.init_params(spec, 7)
    b = models.init_params(spec, 7)
    assert np.array_equal(a, b)
    assert np.all(a[-2:] == 0.0)

    mspec = ModelSpec("mlp1", input_dim=3, num_classes=2, hidden_dim=4)
    p = models.init_params(mspec, 1)
    w1_end = 4 * 3
    assert np.all(p[w1_end : w1_end + 4] == 0.0)  # hidden biases
    assert np.all(p[-2:] == 0.0)  # output biases


def probabilities(spec, params, batch):
    """Per-row class probabilities: `_softmax` of `_layers`' logits."""
    return models._softmax(models._layers(spec, params[None], batch.inputs)[2][0])


def test_forward_uniform_at_zero_params():
    spec = ModelSpec("logistic", input_dim=3, num_classes=4)
    batch = random_batch(np.random.default_rng(0), spec, n=5)
    probs = probabilities(spec, np.zeros(spec.param_count), batch)
    assert np.allclose(probs, 0.25)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for spec in (
        ModelSpec("logistic", input_dim=4, num_classes=3),
        ModelSpec("mlp1", input_dim=4, num_classes=3, hidden_dim=6),
    ):
        params = rng.normal(size=spec.param_count)
        probs = probabilities(spec, params, random_batch(rng, spec, 20))
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


def test_forward_hand_constructed_logistic():
    # weights favor class 1 on positive inputs: w0 = (-1, 0), w1 = (1, 0), b = 0
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    params = np.array([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    batch = LabeledBatch(np.array([[3.0, 0.5]]), np.array([1]))
    probs = probabilities(spec, params, batch)
    # logits are (-3, 3); direct computation of the softmax
    expect = np.exp(3.0) / (np.exp(3.0) + np.exp(-3.0))
    assert probs[0, 1] == pytest.approx(expect, abs=1e-12)
    assert probs[0].argmax() == 1


def test_forward_dimension_mismatch():
    # every public entry to the forward pass rejects inputs of the wrong width
    spec = ModelSpec("logistic", input_dim=3, num_classes=2)
    params, batch = np.zeros(spec.param_count), LabeledBatch(np.zeros((2, 2)), np.zeros(2, int))
    with pytest.raises(ValueError, match="2 columns, expected 3"):
        models.loss_and_grad(spec, params, batch)
    with pytest.raises(ValueError, match="2 columns, expected 3"):
        models.accuracy(spec, params, batch)
    with pytest.raises(ValueError, match="2 columns, expected 3"):
        models.sgd_train_many(spec, params[None], [batch], 1, 2, 0.1, [0])


def test_loss_at_zero_params_is_log_c():
    for c in (2, 3, 7):
        spec = ModelSpec("logistic", input_dim=2, num_classes=c)
        batch = random_batch(np.random.default_rng(c), spec, 6)
        loss, _ = models.loss_and_grad(spec, np.zeros(spec.param_count), batch)
        assert loss == pytest.approx(np.log(c), abs=1e-12)


def test_loss_empty_batch_rejected():
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    batch = LabeledBatch(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        models.loss_and_grad(spec, np.zeros(spec.param_count), batch)
    with pytest.raises(ValueError):
        models.accuracy(spec, np.zeros(spec.param_count), batch)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(100):
        if trial % 2 == 0:
            spec = ModelSpec(
                "logistic",
                input_dim=int(rng.integers(2, 6)),
                num_classes=int(rng.integers(2, 5)),
            )
        else:
            spec = ModelSpec(
                "mlp1",
                input_dim=int(rng.integers(2, 5)),
                num_classes=int(rng.integers(2, 4)),
                hidden_dim=int(rng.integers(2, 6)),
            )
        params = rng.normal(size=spec.param_count)
        batch = random_batch(rng, spec, int(rng.integers(2, 10)))
        _, grad = models.loss_and_grad(spec, params, batch)
        fd = oracles.fd_gradient(
            lambda p: models.loss_and_grad(spec, p, batch)[0], params, 1e-5
        )
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(grad - fd)) / scale <= 1e-4


def test_loss_and_grad_mean_reduction_duplication_invariant():
    spec = ModelSpec("logistic", input_dim=3, num_classes=3)
    rng = np.random.default_rng(5)
    params = rng.normal(size=spec.param_count)
    batch = random_batch(rng, spec, 6)
    doubled = LabeledBatch(
        np.concatenate([batch.inputs, batch.inputs]),
        np.concatenate([batch.labels, batch.labels]),
    )
    l1, g1 = models.loss_and_grad(spec, params, batch)
    l2, g2 = models.loss_and_grad(spec, params, doubled)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.allclose(g1, g2, atol=1e-12)


def test_loss_and_grad_row_permutation_invariant():
    spec = ModelSpec("mlp1", input_dim=3, num_classes=3, hidden_dim=4)
    rng = np.random.default_rng(6)
    params = rng.normal(size=spec.param_count)
    batch = random_batch(rng, spec, 9)
    perm = rng.permutation(9)
    shuffled = LabeledBatch(batch.inputs[perm], batch.labels[perm])
    l1, g1 = models.loss_and_grad(spec, params, batch)
    l2, g2 = models.loss_and_grad(spec, params, shuffled)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.allclose(g1, g2, atol=1e-12)


def test_accuracy_perfect_separation():
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    params = np.array([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    batch = LabeledBatch(
        np.array([[2.0, 0.0], [-2.0, 1.0], [3.0, -1.0]]), np.array([1, 0, 1])
    )
    assert models.accuracy(spec, params, batch) == 1.0


def test_accuracy_tie_breaks_to_lowest_class():
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    batch = LabeledBatch(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int))
    assert models.accuracy(spec, np.zeros(spec.param_count), batch) == 1.0


def test_accuracy_random_params_near_chance():
    spec = ModelSpec("logistic", input_dim=2, num_classes=4)
    rng = np.random.default_rng(9)
    batch = LabeledBatch(rng.normal(size=(4000, 2)), rng.integers(0, 4, 4000))
    acc = models.accuracy(spec, rng.normal(size=spec.param_count), batch)
    assert abs(acc - 0.25) <= 0.1


def test_accuracy_counts_a_nan_logit_in_the_label_column_as_wrong():
    # argmax would pick the NaN class 0 and call every row correct
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)
    params = np.zeros(spec.param_count)
    params[-3] = np.nan
    batch = LabeledBatch(np.ones((4, 2)), np.zeros(4, dtype=int))
    assert models.accuracy(spec, params, batch) == 0.0
    assert oracles.accuracy(spec, params, batch) == 0.0


@st.composite
def scoring_cases(draw):
    """A model kind and size, K stacked parameter rows and a test batch with
    labels up to num_classes + 1; `ties` zeroes a model, copies one class's
    output weights and bias onto another's, puts NaN or +inf in a class
    bias, +inf in two, or sets every output bias to -inf."""
    kind = draw(st.sampled_from(models.KINDS))
    hidden = draw(st.integers(1, 4)) if kind == "mlp1" else 0
    spec = ModelSpec(kind, draw(st.integers(1, 4)), draw(st.integers(2, 5)), hidden)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.normal(size=(draw(st.integers(1, 4)), spec.param_count))
    rows = draw(st.integers(1, 40))
    batch = LabeledBatch(
        rng.normal(size=(rows, spec.input_dim)),
        rng.integers(0, spec.num_classes + 2, rows),
    )
    ties = draw(
        st.sampled_from(["none", "zero", "duplicate", "nan", "inf", "inf_tie", "neg_inf"])
    )
    k = draw(st.integers(0, len(params) - 1))
    src, dst = draw(
        st.lists(st.integers(0, spec.num_classes - 1), min_size=2, max_size=2, unique=True)
    )
    *_, w, b = models._views(spec, params[k])
    if ties == "zero":
        params[k] = 0.0
    elif ties == "duplicate":
        w[dst], b[dst] = w[src], b[src]
    elif ties == "nan":
        b[dst] = np.nan
    elif ties == "inf":
        b[dst] = np.inf
    elif ties == "inf_tie":
        b[src] = b[dst] = np.inf
    elif ties == "neg_inf":
        b[:] = -np.inf
    return spec, params, batch


@settings(max_examples=150, deadline=None)
@given(scoring_cases())
def test_accuracy_many_matches_the_oracle(case):
    # many models scored by one kernel call
    spec, params, batch = case
    groups = models.group_by_label(spec, batch)
    assert groups.size == len(batch)  # rows labelled num_classes or above count too
    got = models.count_correct(spec, params, groups) / groups.size
    assert got.shape == (len(params),)
    for k, row in enumerate(params):
        expected = oracles.accuracy(spec, row, batch)
        assert got[k] == expected, k
        assert models.accuracy(spec, row, batch) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 70), st.integers(1, 500), st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(1, 1, 1)
def test_int32_hit_sums_count_as_count_nonzero_does(k, m, seed):
    # `count_correct` counts each model's hits (K, m) as an int32 row sum:
    # the counts, and the utilities divided from them as `_close_round` and
    # `CoalitionUtility.values` divide them, equal count_nonzero's bit for bit
    rng = np.random.default_rng(seed)
    hit = rng.random((k, m)) < rng.random()
    sums, nonzero = hit.sum(axis=1, dtype=np.int32), np.count_nonzero(hit, axis=1)
    assert sums.tolist() == nonzero.tolist()
    always, size = int(rng.integers(0, 100)), m + 100
    for count, expected in zip(sums, nonzero):
        assert float(count / size) == float(expected / size)
    assert ((always + sums) / size).tobytes() == ((always + nonzero) / size).tobytes()


def assert_rows_equal_each_model_alone(spec, params, batch):
    """Model k's (C, m) logits and count are bit for bit the same in a
    stack of K as alone, and its accuracy is its count over the batch."""
    groups = models.group_by_label(spec, batch)
    logits = models.grouped_logits(spec, params, groups.inputs)
    assert logits.shape == (spec.num_classes, len(params), len(groups.inputs))
    counts = models.count_correct(spec, params, groups)
    for k in range(len(params)):
        alone = models.grouped_logits(spec, params[k : k + 1], groups.inputs)[:, 0]
        assert logits[:, k].tobytes() == alone.tobytes(), k
        assert counts[k] == models.count_correct(spec, params[k : k + 1], groups)[0]
        assert models.accuracy(spec, params[k], batch) == counts[k] / len(batch)


@pytest.mark.parametrize("num_models", [2, 7, 33])
@pytest.mark.parametrize("kind", models.KINDS)
def test_accuracy_many_rows_equal_each_model_alone(kind, num_models):
    spec = ModelSpec(kind, 3, 5, 6 if kind == "mlp1" else 0)
    rng = np.random.default_rng(num_models)
    params = rng.normal(size=(num_models, spec.param_count))
    batch = LabeledBatch(rng.normal(size=(301, 3)), rng.integers(0, 5, 301))
    assert_rows_equal_each_model_alone(spec, params, batch)


@pytest.mark.parametrize("num_models", [1, 2, 33])
@pytest.mark.parametrize("kind", models.KINDS)
def test_wide_models_score_each_model_alone(kind, num_models):
    # a model's logits come from its own BLAS calls, so K cannot change
    # them, however many inputs each dot product sums
    spec = ModelSpec(kind, 1024, 10, 8 if kind == "mlp1" else 0)
    rng = np.random.default_rng(num_models)
    params = rng.normal(size=(num_models, spec.param_count)) / 32.0
    for rows in (1, 2, 3, 17, 120):
        batch = LabeledBatch(rng.normal(size=(rows, 1024)), rng.integers(0, 10, rows))
        assert_rows_equal_each_model_alone(spec, params, batch)


def test_infinite_logits_follow_the_first_max_rule():
    # rows labelled 0, 1 and 2; a tie, at -inf or at +inf, goes to the
    # lowest class holding it
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)
    batch = LabeledBatch(np.ones((6, 2)), np.array([0, 1, 1, 2, 2, 2]))
    groups = models.group_by_label(spec, batch)
    params = np.zeros((3, spec.param_count))
    *_, b = models._views(spec, params)
    b[0] = -np.inf  # every class at -inf: class 0
    b[1, 2] = np.inf  # class 2 alone at +inf
    b[2, 1:] = np.inf  # classes 1 and 2 at +inf: class 1
    assert models.count_correct(spec, params, groups).tolist() == [1, 3, 2]
    for row, count in zip(params, [1, 3, 2]):
        assert oracles.accuracy(spec, row, batch) == count / 6


def test_restrict_keeps_bounds_and_size_consistent():
    spec = ModelSpec("logistic", input_dim=2, num_classes=4)
    rng = np.random.default_rng(3)
    batch = LabeledBatch(rng.normal(size=(60, 2)), rng.integers(0, 5, 60))
    groups = models.group_by_label(spec, batch)
    rows = rng.random(len(groups.inputs)) < 0.5
    rows[groups.bounds[1] : groups.bounds[2]] = False  # no row labelled 1 left
    kept = groups.restrict(rows)
    assert kept.size == groups.size == 60
    assert kept.inputs.tobytes() == groups.inputs[rows].tobytes()
    labels = np.repeat(np.arange(4), np.diff(groups.bounds))[rows]
    assert np.diff(kept.bounds).tolist() == np.bincount(labels, minlength=4).tolist()
    assert kept.bounds[0] == 0 and kept.bounds[-1] == len(kept.inputs)
    params = rng.normal(size=(5, spec.param_count))
    alone = models.group_by_label(spec, LabeledBatch(kept.inputs[:, :-1], labels))
    assert (
        models.count_correct(spec, params, kept).tolist()
        == models.count_correct(spec, params, alone).tolist()
    )


@pytest.mark.parametrize("kind", models.KINDS)
def test_a_lone_row_scores_as_among_others(kind):
    # BLAS would take a matrix-vector path for one row; doubling it keeps
    # the matrix-matrix one, so the row's logits are those it gets among two
    spec = ModelSpec(kind, 3, 4, 5 if kind == "mlp1" else 0)
    rng = np.random.default_rng(5)
    params = rng.normal(size=(3, spec.param_count))
    inputs = np.ones((2, 4))
    inputs[:, :3] = rng.normal(size=(2, 3))
    pair = models.grouped_logits(spec, params, inputs)
    for r in range(2):
        alone = models.grouped_logits(spec, params, inputs[r : r + 1])
        assert alone.tobytes() == np.ascontiguousarray(pair[..., r : r + 1]).tobytes()


def test_sgd_rejects_bad_hyperparameters():
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    batch = random_batch(np.random.default_rng(0), spec, 4)
    p = models.init_params(spec, 0)
    with pytest.raises(ValueError):
        models.sgd_train(spec, p, batch, epochs=0, batch_size=2, eta_w=0.1, seed=0)
    with pytest.raises(ValueError):
        models.sgd_train(spec, p, batch, epochs=1, batch_size=0, eta_w=0.1, seed=0)
    with pytest.raises(ValueError):
        models.sgd_train(spec, p, batch, epochs=1, batch_size=2, eta_w=-0.1, seed=0)


def test_sgd_single_full_batch_step_is_exact():
    spec = ModelSpec("logistic", input_dim=3, num_classes=3)
    rng = np.random.default_rng(3)
    params = rng.normal(size=spec.param_count)
    batch = random_batch(rng, spec, 7)
    _, grad = models.loss_and_grad(spec, params, batch)
    out = models.sgd_train(
        spec, params, batch, epochs=1, batch_size=100, eta_w=0.3, seed=11
    )
    assert np.array_equal(out, params - 0.3 * grad)


def test_sgd_deterministic_and_pure():
    spec = ModelSpec("mlp1", input_dim=2, num_classes=2, hidden_dim=3)
    rng = np.random.default_rng(4)
    params = rng.normal(size=spec.param_count)
    before = params.copy()
    batch = random_batch(rng, spec, 20)
    a = models.sgd_train(spec, params, batch, epochs=3, batch_size=4, eta_w=0.1, seed=5)
    b = models.sgd_train(spec, params, batch, epochs=3, batch_size=4, eta_w=0.1, seed=5)
    assert np.array_equal(a, b)
    assert np.array_equal(params, before)


SGD_SPECS = [
    ModelSpec("logistic", input_dim=3, num_classes=4),
    ModelSpec("mlp1", input_dim=2, num_classes=3, hidden_dim=5),
]


@pytest.mark.parametrize("rows", ["own", "shared", "shared_seed"])
@pytest.mark.parametrize("num_rows", [21, 23])  # last mini-batch: 1 and 3 rows
@pytest.mark.parametrize("spec", SGD_SPECS, ids=lambda s: s.kind)
def test_sgd_train_many_rows_match_single_runs_and_oracle(spec, num_rows, rows):
    rng = np.random.default_rng(num_rows)
    k, batch_size = 4, 5
    if rows == "shared":  # as in a FedAvg round: every client starts from w_t
        params = np.broadcast_to(rng.normal(size=spec.param_count), (k, spec.param_count))
    else:
        params = rng.normal(size=(k, spec.param_count))
    datas = [random_batch(rng, spec, num_rows) for _ in range(k)]
    seeds = [int(s) for s in rng.integers(0, 2**63, k)]
    if rows == "shared_seed":  # one client in several lockstep runs: rows 0-2
        datas[1:3], seeds[1:3] = [datas[0]] * 2, [seeds[0]] * 2
    many = models.sgd_train_many(spec, params, datas, 3, batch_size, 0.2, seeds)
    assert many.shape == (k, spec.param_count)
    for row, start, data, seed in zip(many, params, datas, seeds):
        single = models.sgd_train(spec, start, data, 3, batch_size, 0.2, seed)
        assert row.tobytes() == single.tobytes()
        ref = oracles.sgd_train(spec, start, data, 3, batch_size, 0.2, seed)
        assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)


def test_sgd_train_many_stacks_only_distinct_rows(monkeypatch):
    # rows 0-2 share start, set and seed; row 3 changes the seed, row 4 the
    # start, row 5 the set object (equal content); row 6 repeats row 4
    spec = SGD_SPECS[1]
    rng = np.random.default_rng(9)
    data = random_batch(rng, spec, 21)
    twin = LabeledBatch(data.inputs.copy(), data.labels.copy())
    start, other = rng.normal(size=(2, spec.param_count))
    params = np.stack([start, start, start, start, other, start, other])
    datas = [data, data, data, data, data, twin, data]
    seeds = [4, 4, 4, 5, 4, 4, 4]
    stacked, ce_grads = [], models._ce_grads

    def spy(spec, params, x, y):
        stacked.append(len(params))
        return ce_grads(spec, params, x, y)

    monkeypatch.setattr(models, "_ce_grads", spy)
    many = models.sgd_train_many(spec, params, datas, 2, 5, 0.2, seeds)
    monkeypatch.undo()
    assert stacked == [4] * 2 * 5  # 2 epochs of 5 steps, 4 distinct rows
    for row, start, data, seed in zip(many, params, datas, seeds):
        assert row.tobytes() == models.sgd_train(spec, start, data, 2, 5, 0.2, seed).tobytes()


@st.composite
def duplicate_patterns(draw):
    """Rows drawing start, set and seed each from a small pool, so any of
    them may repeat; set 2 is a separate object equal to set 0, and the last
    row is row 0 with that copy.  Sets 0 and 1 draw their own sizes and the
    batch size its own, so a set may fall short of one batch, and two sets'
    last batches may differ in length."""
    spec = draw(st.sampled_from(SGD_SPECS))
    k = draw(st.integers(1, 6))
    picks = [draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)) for _ in range(3)]
    sizes = draw(st.tuples(st.integers(1, 20), st.integers(1, 20)))
    batch_size = draw(st.integers(1, 8))
    rows = [*zip(*picks), (picks[0][0], 2, picks[2][0])]
    return spec, rows, sizes, batch_size, draw(st.integers(0, 2**32))


@settings(max_examples=100, deadline=None)
@given(duplicate_patterns())
# sets of 5 and 6 rows, which lockstep once rejected as unequal in size
@example((SGD_SPECS[0], [(0, 0, 0), (1, 1, 1)], (5, 6), 2, 6))
# one set shorter than a batch, the other with a last batch of 3 rows
@example((SGD_SPECS[1], [(0, 0, 0), (1, 1, 1), (0, 1, 0), (0, 2, 0)], (3, 19), 8, 1))
def test_sgd_train_many_rows_with_duplicates_match_single_runs(pattern):
    spec, rows, sizes, batch_size, seed = pattern
    rng = np.random.default_rng(seed)
    starts = rng.normal(size=(3, spec.param_count))
    sets = [random_batch(rng, spec, size) for size in sizes]
    sets.append(LabeledBatch(sets[0].inputs.copy(), sets[0].labels.copy()))
    seeds = [int(s) for s in rng.integers(0, 2**63, 3)]
    params = np.stack([starts[s] for s, _, _ in rows])
    datas = [sets[d] for _, d, _ in rows]
    row_seeds = [seeds[r] for _, _, r in rows]
    many = models.sgd_train_many(spec, params, datas, 2, batch_size, 0.3, row_seeds)
    assert many.shape == (len(rows), spec.param_count)
    for row, start, data, s in zip(many, params, datas, row_seeds):
        single = models.sgd_train(spec, start, data, 2, batch_size, 0.3, s)
        assert row.tobytes() == single.tobytes()
        ref = oracles.sgd_train(spec, start, data, 2, batch_size, 0.3, s)
        assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)


def test_sgd_train_many_stacks_sets_of_unequal_size(monkeypatch):
    # a benign shard of 200 rows and the latent attacker's 232-row hybrid
    # set at batch 32: six steps share a call, then the attacker's full
    # batch, the shard's last 8 rows and the attacker's last 8 rows
    spec = SGD_SPECS[0]
    rng = np.random.default_rng(12)
    datas = [random_batch(rng, spec, 200), random_batch(rng, spec, 232)]
    params = rng.normal(size=(2, spec.param_count))
    calls, ce_grads = [], models._ce_grads

    def spy(spec, params, x, y):
        calls.append((len(params), x.shape[1]))
        return ce_grads(spec, params, x, y)

    monkeypatch.setattr(models, "_ce_grads", spy)
    many = models.sgd_train_many(spec, params, datas, 2, 32, 0.1, [3, 4])
    monkeypatch.undo()
    assert calls == ([(2, 32)] * 6 + [(1, 32), (1, 8), (1, 8)]) * 2
    for row, start, data, seed in zip(many, params, datas, [3, 4]):
        assert row.tobytes() == models.sgd_train(spec, start, data, 2, 32, 0.1, seed).tobytes()


@pytest.mark.parametrize("width", [*range(1, 18), 100])
def test_batch_sums_equal_numpy_sums_bit_for_bit(width):
    # `_ce_grads` sums its bias gradients over the batch axis with
    # `_batch_sum`: every batch length, on fresh arrays and on views of a
    # stack of steps as `sgd_train_many` slices its inputs
    rng = np.random.default_rng(width)
    for m in range(1, 101):
        k = m % 40 + 1
        steps = rng.normal(size=(k, 3, m, width)) * 10.0 ** rng.integers(-8, 9, (k, 3, m, width))
        for a in (steps[:, 1].copy(), steps[:, 1]):
            assert models._batch_sum(a).tobytes() == a.sum(axis=1).tobytes()


def test_sgd_train_many_rejects_mismatched_inputs():
    spec = SGD_SPECS[0]
    rng = np.random.default_rng(6)
    params = np.zeros((2, spec.param_count))
    same = [random_batch(rng, spec, 5)] * 2
    with pytest.raises(ValueError, match="one seed"):
        models.sgd_train_many(spec, params, same, 1, 2, 0.1, [0])
    with pytest.raises(ValueError, match="expected"):
        models.sgd_train_many(spec, params[:, 1:], same, 1, 2, 0.1, [0, 1])
    labels = LabeledBatch(same[0].inputs, np.full(5, spec.num_classes))
    with pytest.raises(ValueError, match="label out of range"):
        models.sgd_train_many(spec, params, [same[0], labels], 1, 2, 0.1, [0, 1])


def test_sgd_training_reduces_loss_on_separable_blobs():
    from fedattr.data import DatasetSpec, synthesize

    train, _ = synthesize(
        DatasetSpec("gaussian_blobs", 3, 2, 60, class_separation=6.0, noise_scale=1.0, seed=0)
    )
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)
    params = models.init_params(spec, 1)
    loss0, _ = models.loss_and_grad(spec, params, train)
    trained = models.sgd_train(
        spec, params, train, epochs=50, batch_size=16, eta_w=0.2, seed=2
    )
    loss1, _ = models.loss_and_grad(spec, trained, train)
    assert loss1 < loss0


def test_param_codec_round_trip():
    rng = np.random.default_rng(8)
    vec = rng.normal(size=37)
    blob = models.params_to_bytes(vec)
    assert len(blob) == 8 + 8 * 37
    back = models.params_from_bytes(blob)
    assert np.array_equal(vec, back)
    with pytest.raises(ValueError):
        models.params_from_bytes(blob[:-1])


def test_batch_rejects_non_finite_and_mismatch():
    with pytest.raises(ValueError):
        LabeledBatch(np.array([[np.inf, 0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        LabeledBatch(np.zeros((2, 2)), np.array([0]))


@pytest.mark.parametrize(
    "labels",
    [
        np.array([0.0, 1.7, 2.2]),  # truncated to [0, 1, 2] by an int cast
        np.array([0.0, np.nan, 1.0]),
        np.array([0.0, np.inf, 1.0]),
        np.array([0.0, 2.0**70, 1.0]),
        np.array(["0", "1", "1"]),
        np.array([0, 1, 1], dtype=object),
    ],
)
def test_batch_rejects_labels_that_are_not_whole_numbers(labels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before the cast could warn
        with pytest.raises(ValueError, match="labels must be"):
            LabeledBatch(np.zeros((3, 2)), labels)


def test_batch_takes_integer_bool_and_whole_float_labels():
    for labels in (np.array([2]), np.array([2], dtype=np.uint8), np.array([2.0]), [2]):
        assert LabeledBatch(np.zeros((1, 2)), labels).labels.tolist() == [2]
    assert LabeledBatch(np.zeros((1, 2)), np.array([True])).labels.tolist() == [1]
    assert LabeledBatch(np.zeros((0, 2)), np.zeros(0)).labels.dtype == np.int64
