"""Small differentiable classifiers over a flat parameter vector.

Two architectures are supported: multinomial logistic regression and a
one-hidden-layer tanh MLP.  Every operation treats the model as a pure
function of a flat float64 parameter vector, so updates, gradients, and
aggregates all live in one vector space.  Accuracy has one kernel,
`count_correct`, over test rows grouped by label (`LabelGroups`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

KINDS = ("logistic", "mlp1")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor fixing the flat-index-to-tensor layout."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.kind == "logistic" and self.hidden_dim != 0:
            raise ValueError("logistic model takes hidden_dim=0")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ValueError("mlp1 requires hidden_dim >= 1")

    @property
    def param_count(self) -> int:
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if self.kind == "logistic":
            return c * d + c
        return h * d + h + c * h + c


@dataclass(frozen=True)
class LabeledBatch:
    """Immutable matrix of inputs with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels)
        # the int64 cast would truncate 1.7, turn NaN into a number, parse '1'
        whole = labels.dtype.kind in "biu" or labels.dtype.kind == "f" and np.all(
            (labels == np.trunc(labels)) & (np.abs(labels) < 2.0**63)
        )
        if not whole:
            raise ValueError("labels must be integers or whole-number floats")
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D matrix")
        if labels.ndim != 1 or len(labels) != inputs.shape[0]:
            raise ValueError("labels length must match input rows")
        if inputs.size and not np.all(np.isfinite(inputs)):
            raise ValueError("inputs must be finite")
        if len(labels) and labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")
        inputs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def concat_batches(a: LabeledBatch, b: LabeledBatch) -> LabeledBatch:
    if a.inputs.shape[1] != b.inputs.shape[1]:
        raise ValueError("input dims differ")
    return LabeledBatch(
        np.concatenate([a.inputs, b.inputs], axis=0),
        np.concatenate([a.labels, b.labels]),
    )


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases exactly zero."""
    rng = np.random.default_rng(seed)
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if spec.kind == "logistic":
        w = rng.normal(0.0, 1.0 / np.sqrt(d), size=(c, d))
        return np.concatenate([w.ravel(), np.zeros(c)])
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(c, h))
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def _views(spec: ModelSpec, params: np.ndarray):
    """Reshaped views into a flat vector, or a (K, P) stack of them, in layout order."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if params.ndim not in (1, 2) or params.shape[-1] != spec.param_count:
        raise ValueError(
            f"parameters have shape {params.shape}, expected (..., {spec.param_count})"
        )
    lead = params.shape[:-1]
    if spec.kind == "logistic":
        return params[..., : c * d].reshape(*lead, c, d), params[..., c * d :]
    o1 = h * d
    o2 = o1 + h
    o3 = o2 + c * h
    return (
        params[..., :o1].reshape(*lead, h, d),
        params[..., o1:o2],
        params[..., o2:o3].reshape(*lead, c, h),
        params[..., o3:],
    )


def _layers(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """The row-major forward pass of K stacked models, row k of `params`
    (K, P), on x[k] (or on a shared x): the input to the output layer, the
    output layer's weights, and the logits (K, m, C).  Each matmul makes one
    BLAS call per model with the shapes and strides of a single-model call,
    so every row is bit for bit what K = 1 gives for that model alone."""
    if spec.kind == "logistic":
        w, b = _views(spec, params)
        hidden = x
    else:
        w1, b1, w, b = _views(spec, params)
        hidden = x @ w1.transpose(0, 2, 1)
        hidden += b1[:, None]
        np.tanh(hidden, out=hidden)
    return hidden, w, hidden @ w.transpose(0, 2, 1) + b[:, None]


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, batch: LabeledBatch
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in the flat space."""
    _check_batch(spec, batch)
    logp, grad = _ce_grads(spec, params[None], batch.inputs[None], batch.labels[None])
    return -float(logp[0, np.arange(len(batch)), batch.labels].mean()), grad[0]


def _check_batch(spec: ModelSpec, batch: LabeledBatch) -> None:
    if len(batch) == 0:
        raise ValueError("batch is empty")
    if batch.inputs.shape[1] != spec.input_dim:
        raise ValueError(f"inputs have {batch.inputs.shape[1]} columns, expected {spec.input_dim}")
    if batch.labels.max() >= spec.num_classes:
        raise ValueError("label out of range for num_classes")


def _ce_grads(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-probabilities (K, m, C) of K models, row k of `params` (K, P) on
    the batch x[k] (m, d), and each model's flat gradient (K, P) of the mean
    cross-entropy against labels y[k]."""
    k, m = y.shape
    hidden, w, logp = _layers(spec, params, x)
    num_classes = logp.shape[-1]
    # the row max column by column: exact, and cheaper than a reduce over
    # the short class axis
    top = logp[..., 0].copy()
    for j in range(1, num_classes):
        np.maximum(top, logp[..., j], out=top)
    shifted = logp - top[..., None]
    lse = np.exp(shifted, out=shifted).sum(axis=-1)
    np.log(lse, out=lse)
    lse += top
    logp -= lse[..., None]
    delta = np.exp(logp)
    delta.reshape(-1)[np.arange(k * m) * num_classes + y.ravel()] -= 1.0
    delta /= m
    grads = [(delta.transpose(0, 2, 1) @ hidden).reshape(k, -1), _batch_sum(delta)]
    if spec.kind == "mlp1":
        dhidden = delta @ w
        hidden *= hidden  # hidden is tanh's output, owned here: 1 - tanh^2 in place
        np.subtract(1.0, hidden, out=hidden)
        dhidden *= hidden
        grads[:0] = [(dhidden.transpose(0, 2, 1) @ x).reshape(k, -1), _batch_sum(dhidden)]
    return logp, np.concatenate(grads, axis=1)


def _batch_sum(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=1)` of a (K, m, w) array, bit for bit.  For w >= 2 numpy's
    sum adds the m rows in order with one short inner loop per row, and
    einsum adds them in the same order without those loops; at w = 1 both
    leave that order and disagree with each other, so w = 1 keeps `sum`."""
    return a.sum(axis=1) if a.shape[2] == 1 else np.einsum("kmc->kc", a)


def accuracy(spec: ModelSpec, params: np.ndarray, batch: LabeledBatch) -> float:
    """Fraction of correct rows of `batch`: `count_correct` over every row
    of `group_by_label(batch)`."""
    groups = group_by_label(spec, batch)
    return float(count_correct(spec, params[None], groups)[0] / groups.size)


@dataclass(frozen=True)
class LabelGroups:
    """Test rows grouped by label: row r of `inputs` (m, d + 1) is a row's
    inputs and a 1 that carries the first layer's bias, and rows
    bounds[y]:bounds[y + 1] are labelled y.  `size`, the accuracy
    denominator, counts every row of the batch, even those labelled C or up."""

    inputs: np.ndarray
    bounds: np.ndarray
    size: int

    def restrict(self, rows: np.ndarray) -> "LabelGroups":
        """The rows marked in the boolean `rows`, still grouped by label."""
        bounds = np.concatenate([[0], np.cumsum(rows)])[self.bounds]
        return LabelGroups(self.inputs[rows], bounds, self.size)


def group_by_label(spec: ModelSpec, batch: LabeledBatch) -> LabelGroups:
    """Every row of `batch` grouped by label, but a row labelled num_classes
    or above: it is never correct, and counts only in `size`."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    if batch.inputs.shape[1] != spec.input_dim:
        raise ValueError(
            f"inputs have {batch.inputs.shape[1]} columns, expected {spec.input_dim}"
        )
    order = np.argsort(batch.labels, kind="stable")
    bounds = np.searchsorted(batch.labels[order], np.arange(spec.num_classes + 1))
    inputs = np.ones((bounds[-1], spec.input_dim + 1))
    inputs[:, :-1] = batch.inputs[order[: bounds[-1]]]
    return LabelGroups(inputs, bounds, len(batch))


def count_correct(spec: ModelSpec, params: np.ndarray, groups: LabelGroups) -> np.ndarray:
    """Correct grouped rows of K models, row k of `params` (K, P); entry k
    is that model's count alone.  A row labelled y is correct when its logit
    is strictly above the running maximum of classes 0..y-1 and at least the
    maximum of all classes (argmax, ties to the lowest class); a NaN logit
    makes it wrong, as `np.maximum` carries it through.  Every comparison
    reads whole class planes z[j] (K, m): a pass up the classes marks where
    each is above the running maximum, and a pass down keeps a row labelled
    y where no class above y is, which holds when y is at least the maximum."""
    z = grouped_logits(spec, params, groups.inputs)
    bounds = groups.bounds.tolist()
    run = z[0].copy()
    above = np.empty(z.shape, dtype=bool)  # above[j]: z[j] > classes 0..j-1
    for j in range(1, len(z)):
        np.greater(z[j], run, out=above[j])
        np.maximum(run, z[j], out=run)
    taken = np.isnan(run)  # rows some class above y, or a NaN, takes from y
    hit = np.empty(run.shape, dtype=bool)
    for y in range(len(z) - 1, 0, -1):
        np.greater(above[y], taken, out=above[y])  # above and not taken
        hit[:, bounds[y] : bounds[y + 1]] = above[y, :, bounds[y] : bounds[y + 1]]
        taken |= above[y]
    np.logical_not(taken[:, : bounds[1]], out=hit[:, : bounds[1]])
    # int32 sums take half `count_nonzero`'s time; a config caps its inputs
    # at 2^24 values (`MAX_INPUT_VALUES`), so each count is far below 2^31
    return hit.sum(axis=1, dtype=np.int32)


def grouped_logits(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Class-major logits (C, K, m) of K stacked models, row k of `params`
    (K, P), on the rows of `inputs` (m, d + 1), whose last column is ones
    and carries the first layer's bias; mlp1 adds its output bias after.

    Each matmul makes one BLAS call per model with a single model's shapes,
    the last writing model k's (C, m) block through a transposed view, so
    its logits do not depend on K.  A lone row is doubled so BLAS takes its
    matrix-matrix path whatever m is.  A row's logits are then what the same
    model gives on any other set of rows only if BLAS rounds each output the
    same wherever it sits in the product: OpenBLAS 0.3 does for d + 1 <= 31
    (checked bit for bit); at larger d the last bit of a logit may move with
    m, which can flip a comparison between two logits only when they are
    within that rounding of each other."""
    x = np.concatenate([inputs, inputs]) if len(inputs) == 1 else inputs
    if spec.kind == "logistic":
        w, b = _views(spec, params)
        w, hidden = np.concatenate([w, b[..., None]], axis=-1), x.T
    else:
        w1, b1, w, b = _views(spec, params)
        hidden = np.concatenate([w1, b1[..., None]], axis=-1) @ x.T
        np.tanh(hidden, out=hidden)
    z = np.empty((spec.num_classes, len(params), len(x)))
    np.matmul(w, hidden, out=z.transpose(1, 0, 2))
    if spec.kind == "mlp1":
        z += b.T[..., None]
    return z[..., : len(inputs)]


def sgd_train(
    spec: ModelSpec,
    params: np.ndarray,
    data: LabeledBatch,
    epochs: int,
    batch_size: int,
    eta_w: float,
    seed: int,
) -> np.ndarray:
    """Mini-batch SGD with per-epoch reshuffling; returns new parameters.

    Deterministic for fixed (inputs, seed); the input vector is never mutated.
    """
    params = np.asarray(params)[None]
    return sgd_train_many(spec, params, [data], epochs, batch_size, eta_w, [seed])[0]


def sgd_train_many(
    spec: ModelSpec,
    params: np.ndarray,
    datas: Sequence[LabeledBatch],
    epochs: int,
    batch_size: int,
    eta_w: float,
    seeds: Sequence[int],
) -> np.ndarray:
    """`sgd_train` of K models in lockstep, one stacked kernel call per step
    and batch length.

    Row k of the returned (K, P) array trains params[k] on datas[k] with seed
    seeds[k] and equals `sgd_train` on that model alone bit for bit.  The
    training sets may differ in size: the distinct rows are ordered by set
    size, largest first, so at each step the rows whose mini-batch is full
    lead and share one kernel call, and the short last batches after them
    take one call per length.  Rows with the same training set object, seed
    and start bytes train once and share the result; each (set, seed) pair
    has one generator and one shuffled copy of its set per epoch, which all
    of its rows read.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if not np.isfinite(eta_w) or eta_w < 0:
        raise ValueError("eta_w must be a finite non-negative step size")
    if not datas or len(params) != len(datas) or len(seeds) != len(datas):
        raise ValueError("need one parameter row and one seed per training set")
    params = np.asarray(params)
    pairs: dict[tuple, int] = {}  # (id of set, seed) -> index of the pair
    distinct: dict[tuple, int] = {}  # (pair, start bytes) -> index of the distinct row
    firsts, row_of = [], [0] * len(datas)  # each distinct row's first row; each row's distinct row
    # rows by set size, largest first (stable, so equal sizes keep their
    # order), which numbers the pairs and distinct rows by size too
    for k in sorted(range(len(datas)), key=lambda k: -len(datas[k])):
        pair = pairs.setdefault((id(datas[k]), seeds[k]), len(pairs))
        row = distinct.setdefault((pair, params[k].tobytes()), len(distinct))
        if row == len(firsts):
            firsts.append(k)
        row_of[k] = row
    sets = {id(data): data for data in datas}
    for data in sets.values():
        _check_batch(spec, data)
    sizes = [len(sets[key]) for key, _ in pairs]
    row_n = [sizes[pair] for pair, _ in distinct]
    n = row_n[0]
    # each step's calls, one per block of distinct rows lo:hi that train on
    # the batch start:end; the ends fall with the set sizes, so each block
    # is contiguous and the rows whose batch is full lead
    plan = []
    for start in range(0, n, batch_size):
        ends = [min(size, start + batch_size) for size in row_n if size > start]
        for end in dict.fromkeys(ends):
            lo = ends.index(end)
            plan.append((lo, lo + ends.count(end), start, end))
    # C order whatever the layout of `params`: other strides send numpy's
    # matmul to a differently rounded loop
    w = np.array(params[firsts], dtype=np.float64, order="C")
    # each pair's set, padded to n rows that its shuffles never reach
    x = np.zeros((len(pairs), n, spec.input_dim))
    y = np.zeros((len(pairs), n), dtype=np.int64)
    for p, (key, _) in enumerate(pairs):
        x[p, : sizes[p]], y[p, : sizes[p]] = sets[key].inputs, sets[key].labels
    rngs = [np.random.default_rng(seed) for _, seed in pairs]
    rows = np.arange(len(pairs))[:, None]
    pair_of = np.array([pair for pair, _ in distinct])
    order = np.arange(n)[None].repeat(len(pairs), axis=0)
    for _ in range(epochs):
        for p, rng in enumerate(rngs):
            order[p, : sizes[p]] = rng.permutation(sizes[p])
        # each pair's shuffled set, then the one each distinct row reads
        xs, ys = x[rows, order][pair_of], y[rows, order][pair_of]
        for lo, hi, start, end in plan:
            _, grad = _ce_grads(spec, w[lo:hi], xs[lo:hi, start:end], ys[lo:hi, start:end])
            w[lo:hi] -= eta_w * grad
    return w[row_of]


# Flat-vector wire format: uint64 little-endian length prefix, then the raw
# float64 little-endian payload.  Used by the training-log persistence layer.

def params_to_bytes(params: np.ndarray) -> bytes:
    vec = np.ascontiguousarray(params, dtype="<f8")
    return struct.pack("<Q", vec.size) + vec.tobytes()


def params_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < 8:
        raise ValueError("truncated parameter blob")
    (count,) = struct.unpack_from("<Q", blob, 0)
    expected = 8 + 8 * count
    if len(blob) != expected:
        raise ValueError(f"parameter blob has {len(blob)} bytes, expected {expected}")
    return np.frombuffer(blob, dtype="<f8", offset=8).astype(np.float64)
