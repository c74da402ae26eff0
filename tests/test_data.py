import numpy as np
import pytest

from fedattr import models
from fedattr.data import (
    ClientShard,
    DatasetSpec,
    PartitionSpec,
    coverage_stats,
    partition_noniid,
    synthesize,
)
from fedattr.models import LabeledBatch, ModelSpec


def blob_spec(**kw):
    base = dict(
        generator="gaussian_blobs",
        num_classes=4,
        input_dim=2,
        samples_per_class=100,
        class_separation=6.0,
        noise_scale=1.0,
        seed=0,
    )
    base.update(kw)
    return DatasetSpec(**base)


def test_dataset_spec_needs_two_samples_per_class():
    # each class splits into train and test rows, so the spec rejects one
    with pytest.raises(ValueError, match="samples_per_class >= 2"):
        blob_spec(samples_per_class=1)
    assert len(synthesize(blob_spec(samples_per_class=2))[1]) == 4


def test_synthesize_deterministic():
    a_train, a_test = synthesize(blob_spec())
    b_train, b_test = synthesize(blob_spec())
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_test.inputs, b_test.inputs)


def test_synthesize_balanced_and_disjoint():
    train, test = synthesize(blob_spec())
    train_counts = np.bincount(train.labels, minlength=4)
    test_counts = np.bincount(test.labels, minlength=4)
    assert np.all(train_counts == train_counts[0])
    assert np.all(test_counts == test_counts[0])
    assert len(test) == pytest.approx(0.25 * len(train), rel=0.01)  # 20/80 split
    # disjointness: no test row equals any train row
    train_set = {tuple(row) for row in train.inputs}
    assert all(tuple(row) not in train_set for row in test.inputs)


def test_synthesize_supports_rings():
    train, test = synthesize(blob_spec(generator="concentric_rings", num_classes=3))
    assert len(train) == 3 * 80
    radii = np.linalg.norm(train.inputs[:, :2], axis=1)
    # outer ring sits farther out than the inner one on average
    assert radii[train.labels == 2].mean() > radii[train.labels == 0].mean()


def test_separable_blobs_reach_high_accuracy():
    train, test = synthesize(blob_spec())
    spec = ModelSpec("logistic", input_dim=2, num_classes=4)
    params = models.sgd_train(
        spec, models.init_params(spec, 0), train, epochs=30, batch_size=32,
        eta_w=0.2, seed=1,
    )
    assert models.accuracy(spec, params, test) >= 0.9


def test_partition_class_structure():
    train, _ = synthesize(blob_spec(num_classes=10, samples_per_class=200))
    shards = partition_noniid(
        train, PartitionSpec(num_clients=10, classes_per_client=3,
                             samples_per_client=45, seed=3),
        num_classes=10,
    )
    assert len(shards) == 10
    for shard in shards:
        assert np.count_nonzero(shard.class_counts) == 3
        assert shard.n_i == 45
    covered = set()
    for shard in shards:
        covered |= {c for c in range(10) if shard.class_counts[c] > 0}
    assert covered == set(range(10))


def test_partition_no_duplicates_and_subset_of_train():
    train, _ = synthesize(blob_spec())
    shards = partition_noniid(
        train, PartitionSpec(num_clients=4, classes_per_client=2,
                             samples_per_client=30, seed=5),
        num_classes=4,
    )
    rows = [tuple(r) for s in shards for r in s.data.inputs]
    assert len(rows) == len(set(rows))
    train_rows = {tuple(r) for r in train.inputs}
    assert all(r in train_rows for r in rows)


def test_partition_full_coverage_mode():
    # k = C gives every client all classes (IID-like sanity mode)
    train, _ = synthesize(blob_spec())
    shards = partition_noniid(
        train, PartitionSpec(num_clients=5, classes_per_client=4,
                             samples_per_client=40, seed=1),
        num_classes=4,
    )
    for shard in shards:
        assert np.all(shard.class_counts > 0)


def test_partition_infeasible_raises():
    train, _ = synthesize(blob_spec(samples_per_class=10))
    with pytest.raises(ValueError):
        partition_noniid(
            train, PartitionSpec(num_clients=6, classes_per_client=2,
                                 samples_per_client=50, seed=0),
            num_classes=4,
        )
    with pytest.raises(ValueError):
        partition_noniid(
            train, PartitionSpec(num_clients=2, classes_per_client=9,
                                 samples_per_client=5, seed=0),
            num_classes=4,
        )


def test_partition_deals_a_class_missing_from_the_labels():
    # no sample is labelled 3, yet num_classes = 4 still deals class 3
    train, _ = synthesize(blob_spec())
    keep = train.labels != 3
    train = LabeledBatch(train.inputs[keep], train.labels[keep])
    with pytest.raises(ValueError, match="class 3: need 30 samples but only 0"):
        partition_noniid(train, PartitionSpec(4, 2, 30, seed=5), num_classes=4)


def test_default_scenario_attacker_misses_a_class():
    train, _ = synthesize(blob_spec(num_classes=10, samples_per_class=200))
    shards = partition_noniid(
        train, PartitionSpec(num_clients=10, classes_per_client=3,
                             samples_per_client=45, seed=7),
        num_classes=10,
    )
    for shard in shards:
        missing, _ = coverage_stats(shard)
        assert missing  # k < C leaves every shard short of some class


def shard_from_counts(counts):
    rows, labels = [], []
    for cls, count in enumerate(counts):
        for j in range(count):
            rows.append([float(cls), float(j)])
            labels.append(cls)
    batch = LabeledBatch(np.array(rows).reshape(len(rows), 2), np.array(labels))
    return ClientShard.build(0, batch, len(counts))


def test_coverage_stats_examples():
    assert coverage_stats(shard_from_counts([0, 5, 5])) == ({0}, set())
    assert coverage_stats(shard_from_counts([0, 1, 9])) == ({0}, {1})
    assert coverage_stats(shard_from_counts([4, 4, 4])) == (set(), set())


def test_coverage_sets_disjoint():
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = rng.integers(0, 8, size=6)
        if counts.sum() == 0:
            continue
        missing, under = coverage_stats(shard_from_counts(list(counts)))
        assert missing.isdisjoint(under)


def test_shard_invariant_enforced():
    batch = LabeledBatch(np.zeros((3, 2)), np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        ClientShard(0, batch, np.array([1, 1]))
    assert ClientShard(0, batch, np.array([2, 1])).n_i == 3
