"""Synthetic datasets and non-IID class-imbalanced client partitioning.

Replaces image benchmarks with controllable generators (Gaussian blobs and
concentric rings) so task difficulty can be tuned by tests.  The partitioner
assigns each client a small, round-robin-chosen subset of classes, which is
the structural condition the attribution game exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LabeledBatch

GENERATORS = ("gaussian_blobs", "concentric_rings")


@dataclass(frozen=True)
class DatasetSpec:
    generator: str
    num_classes: int
    input_dim: int
    samples_per_class: int
    class_separation: float
    noise_scale: float
    seed: int

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.input_dim < 2:
            raise ValueError("generators require input_dim >= 2")
        if self.samples_per_class < 2:  # each class splits into train and test rows
            raise ValueError("need samples_per_class >= 2 to carve a test split")
        if self.class_separation <= 0 or self.noise_scale <= 0:
            raise ValueError("class_separation and noise_scale must be positive")


@dataclass(frozen=True)
class PartitionSpec:
    num_clients: int
    classes_per_client: int
    samples_per_client: int
    seed: int

    def __post_init__(self) -> None:
        if self.num_clients < 2:
            raise ValueError("need at least two clients")
        if self.classes_per_client < 1:
            raise ValueError("classes_per_client must be positive")
        if self.samples_per_client < 1:
            raise ValueError("samples_per_client must be positive")


@dataclass(frozen=True)
class ClientShard:
    """A client's local labeled data plus per-class counts."""

    client_id: int
    data: LabeledBatch
    class_counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.class_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "class_counts", counts)
        if int(counts.sum()) != len(self.data):
            raise ValueError("class_counts must sum to the shard size")

    @property
    def n_i(self) -> int:
        return len(self.data)

    @classmethod
    def build(cls, client_id: int, data: LabeledBatch, num_classes: int) -> "ClientShard":
        return cls(client_id, data, np.bincount(data.labels, minlength=num_classes))


def _class_centers(spec: DatasetSpec) -> np.ndarray:
    centers = np.zeros((spec.num_classes, spec.input_dim))
    angles = 2.0 * np.pi * np.arange(spec.num_classes) / spec.num_classes
    centers[:, 0] = spec.class_separation * np.cos(angles)
    centers[:, 1] = spec.class_separation * np.sin(angles)
    return centers


def train_rows_per_class(samples_per_class: int) -> int:
    """Rows of each class that `synthesize` puts in the training split."""
    return samples_per_class - max(1, round(0.2 * samples_per_class))


def synthesize(spec: DatasetSpec) -> tuple[LabeledBatch, LabeledBatch]:
    """Deterministic class-balanced train/test split (test is ~20%, disjoint)."""
    rng = np.random.default_rng(spec.seed)
    n_train = train_rows_per_class(spec.samples_per_class)
    n_test = spec.samples_per_class - n_train

    train_x, train_y, test_x, test_y = [], [], [], []
    centers = _class_centers(spec) if spec.generator == "gaussian_blobs" else None
    for c in range(spec.num_classes):
        if spec.generator == "gaussian_blobs":
            pts = centers[c] + spec.noise_scale * rng.standard_normal(
                (spec.samples_per_class, spec.input_dim)
            )
        else:
            radius = spec.class_separation * (c + 1)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.samples_per_class)
            pts = spec.noise_scale * rng.standard_normal(
                (spec.samples_per_class, spec.input_dim)
            )
            pts[:, 0] += radius * np.cos(theta)
            pts[:, 1] += radius * np.sin(theta)
        train_x.append(pts[:n_train])
        test_x.append(pts[n_train:])
        train_y.append(np.full(n_train, c))
        test_y.append(np.full(n_test, c))

    train = LabeledBatch(np.concatenate(train_x), np.concatenate(train_y))
    test = LabeledBatch(np.concatenate(test_x), np.concatenate(test_y))
    return train, test


def _quotas(spec: PartitionSpec) -> list[int]:
    """samples_per_client split as evenly as possible over k classes."""
    base, extra = divmod(spec.samples_per_client, spec.classes_per_client)
    return [base + 1] * extra + [base] * (spec.classes_per_client - extra)


def cycle_demand(spec: PartitionSpec, num_classes: int) -> np.ndarray:
    """Samples `partition_noniid` takes at each position of its dealt class
    cycle; the seed decides only which class holds which position."""
    k = spec.classes_per_client
    if k > num_classes:
        raise ValueError("classes_per_client exceeds number of classes")
    quotas = _quotas(spec)
    demand = np.zeros(num_classes, dtype=np.int64)
    for slot in range(spec.num_clients * k):  # client slot // k, class slot % k
        demand[slot % num_classes] += quotas[slot % k]
    return demand


def partition_noniid(
    train: LabeledBatch, spec: PartitionSpec, num_classes: int
) -> list[ClientShard]:
    """Deal k classes per client round-robin, then draw per-class quotas.

    A seeded permutation of the classes is dealt in a cycle, k consecutive
    classes to each client, so every class is covered whenever N*k >= C.
    Each client receives exactly samples_per_client samples, split as evenly
    as possible across its classes; no sample lands in two shards.
    """
    labels = train.labels
    k = spec.classes_per_client
    demand = cycle_demand(spec, num_classes)

    rng = np.random.default_rng(spec.seed)
    class_order = rng.permutation(num_classes)
    assignments = [
        [int(class_order[(i * k + j) % num_classes]) for j in range(k)]
        for i in range(spec.num_clients)
    ]

    quotas = _quotas(spec)
    pools = {
        cls: list(rng.permutation(np.flatnonzero(labels == cls)))
        for cls in range(num_classes)
    }
    needed = np.empty(num_classes, dtype=np.int64)
    needed[class_order] = demand
    for cls in range(num_classes):
        if needed[cls] > len(pools[cls]):
            raise ValueError(
                f"class {cls}: need {needed[cls]} samples but only "
                f"{len(pools[cls])} available"
            )

    shards = []
    for i, classes in enumerate(assignments):
        chosen: list[int] = []
        for cls, q in zip(classes, quotas):
            pool = pools[cls]
            chosen.extend(int(pool.pop()) for _ in range(q))
        idx = np.array(sorted(chosen), dtype=np.int64)
        batch = LabeledBatch(train.inputs[idx], train.labels[idx])
        shards.append(ClientShard.build(i, batch, num_classes))
    return shards


def coverage_stats(shard: ClientShard) -> tuple[set[int], set[int]]:
    """Classes missing from the shard, and nonzero classes below the nonzero median."""
    counts = shard.class_counts
    missing = {c for c, count in enumerate(counts) if count == 0}
    nonzero = counts[counts > 0]
    if len(nonzero) == 0:
        return missing, set()
    med = float(np.median(nonzero))
    under = {c for c, count in enumerate(counts) if 0 < count < med}
    return missing, under
