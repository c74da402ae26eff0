"""Brute-force reference implementations used by tests and acceptance checks.

These deliberately share no arithmetic with the production paths they verify:
Shapley values are averaged over explicitly enumerated permutations,
gradients come from plain central differences, and a coalition's utility is
one model aggregated in a plain loop and scored by `models.accuracy`.
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
    coalition's client indices.  The empty coalition scores w_t itself.
    """
    members = sorted(set(int(i) for i in members))
    params = np.array(record.w_t, dtype=np.float64)
    if members:
        total = sum(record.n[i] for i in members)
        mean = np.zeros_like(params)
        for i in members:
            mean += (record.n[i] / total) * record.updates[i]
        params = params + mean
    return models.accuracy(spec, params, test)
