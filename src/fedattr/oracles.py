"""Brute-force reference implementations used by tests and acceptance checks.

These deliberately share no arithmetic with the production paths they verify:
Shapley values are averaged over explicitly enumerated permutations,
gradients come from plain central differences, accuracy scans each row's
logits from a written-out forward pass, a coalition's utility is one model
aggregated in a plain loop and scored that way, local SGD sums per-sample
gradients of a written-out forward and backward pass,
and trimming takes medians from sorted lists and distances from summed loops.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Mapping

import numpy as np

from . import models


def shapley_bruteforce(
    table: Mapping[frozenset[int], float], num_players: int
) -> np.ndarray:
    """Average marginal contribution over all num_players! orderings.

    `table` must map every subset of range(num_players), as a frozenset, to
    its coalition value (the empty frozenset included).
    """
    if num_players < 1:
        raise ValueError("need at least one player")
    if num_players > 8:
        raise ValueError("enumeration over permutations is capped at 8 players")
    totals = np.zeros(num_players)
    for perm in itertools.permutations(range(num_players)):
        coalition: frozenset[int] = frozenset()
        before = table[coalition]
        for player in perm:
            coalition = coalition | {player}
            after = table[coalition]
            totals[player] += after - before
            before = after
    return totals / math.factorial(num_players)


def fd_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def coalition_utility(
    record, spec: models.ModelSpec, test: models.LabeledBatch, members
) -> float:
    """Test accuracy of w_t plus the n-weighted mean update of `members`.

    `record` is a logged round (`w_t`, `updates`, `n`); `members` lists the
    coalition's client indices.  A coalition without samples scores w_t itself.
    """
    members = sorted(set(int(i) for i in members))
    params = np.array(record.w_t, dtype=np.float64)
    total = sum(record.n[i] for i in members)
    if total > 0:
        mean = np.zeros_like(params)
        for i in members:
            mean += (record.n[i] / total) * record.updates[i]
        params = params + mean
    return accuracy(spec, params, test)


def accuracy(spec: models.ModelSpec, params: np.ndarray, test: models.LabeledBatch) -> float:
    """Fraction of test rows whose predicted class is their label.  Each
    row's logits come from a forward pass in Python floats; the prediction
    is the first class holding the largest logit, found by a scan that only
    moves on to a strictly larger one.  A row with a NaN logit, or with a
    label of num_classes or above, counts as wrong."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    params = [float(v) for v in params]
    correct = 0
    for x, label in zip(test.inputs.tolist(), test.labels.tolist()):
        a, out = x, params  # logistic: the output layer reads the input
        if spec.kind == "mlp1":
            a = [
                math.tanh(sum(params[i * d + k] * x[k] for k in range(d)) + params[h * d + i])
                for i in range(h)
            ]
            out = params[h * d + h :]
        width = len(a)
        logits = [
            sum(out[j * width + k] * a[k] for k in range(width)) + out[c * width + j]
            for j in range(c)
        ]
        if any(math.isnan(z) for z in logits):
            continue
        best = 0
        for j in range(1, c):
            if logits[j] > logits[best]:
                best = j
        correct += best == label
    return correct / len(test)


def trim_round(updates, tau: float) -> tuple[list[float], frozenset[int]]:
    """Distances from the coordinate-wise median and the ceil(tau * N) trimmed
    clients of one round, in plain Python: each coordinate's median read off
    its sorted values (the mean of the two middle ones for even N), each
    distance the square root of a summed loop, and clients trimmed farthest
    first, an exact distance tie going to the higher client id."""
    rows = [[float(v) for v in update] for update in updates]
    num = len(rows)
    center = []
    for coord in zip(*rows):
        ordered = sorted(coord)
        mid = num // 2
        center.append(ordered[mid] if num % 2 else (ordered[mid - 1] + ordered[mid]) / 2)
    distances = []
    for row in rows:
        total = 0.0
        for value, c in zip(row, center):
            total += (value - c) ** 2
        distances.append(math.sqrt(total))
    trimmed: list[int] = []
    for _ in range(math.ceil(tau * num)):
        best = None
        for i in range(num):
            if i in trimmed:
                continue
            # farther wins; at an exact tie the higher id, reached later, wins
            if best is None or distances[i] >= distances[best]:
                best = i
        trimmed.append(best)
    return distances, frozenset(trimmed)


def sgd_train(
    spec: models.ModelSpec,
    params: np.ndarray,
    data: models.LabeledBatch,
    epochs: int,
    batch_size: int,
    eta_w: float,
    seed: int,
) -> np.ndarray:
    """Local SGD of one model: each epoch reshuffles by
    `default_rng(seed).permutation`, and each mini-batch steps along the
    mean of its per-sample cross-entropy gradients."""
    w = np.array(params, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), batch_size):
            rows = order[start : start + batch_size]
            grad = sum(_sample_grad(spec, w, data.inputs[i], data.labels[i]) for i in rows)
            w = w - eta_w * grad / len(rows)
    return w


def _sample_grad(spec: models.ModelSpec, w: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """Cross-entropy gradient of one sample, in the flat parameter layout."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    a, out = x, w  # logistic: the output layer reads the input
    if spec.kind == "mlp1":
        a = np.tanh(w[: h * d].reshape(h, d) @ x + w[h * d : h * d + h])
        out = w[h * d + h :]
    w2, b2 = out[: c * a.size].reshape(c, a.size), out[c * a.size :]
    z = w2 @ a + b2
    err = np.exp(z - z.max())
    err /= err.sum()
    err[y] -= 1.0  # d loss / d z of softmax cross-entropy
    grad = [np.outer(err, a).ravel(), err]
    if spec.kind == "mlp1":
        back = (w2.T @ err) * (1.0 - a * a)
        grad = [np.outer(back, x).ravel(), back] + grad
    return np.concatenate(grad)
