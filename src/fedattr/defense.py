"""Geometry-based trimming and its reading as a per-round detector.

Each round, updates farthest from the coordinate-wise median are trimmed;
a trimmed client counts as "detected" for precision/recall/F1 scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TrimDecision:
    t: int
    distances: np.ndarray
    trimmed: frozenset[int]

    @property
    def kept(self) -> frozenset[int]:
        return frozenset(range(len(self.distances))) - self.trimmed


@dataclass(frozen=True)
class DetectionScore:
    precision: float
    recall: float
    f1: float


def trim_round(updates: Sequence[np.ndarray], tau: float, *, t: int = 0) -> TrimDecision:
    """Trim the ceil(tau*N) updates farthest from the coordinate-wise median.

    Distance ties break toward the higher client id.  Aggregation afterwards
    runs over the kept clients only (enforce mode).
    """
    return trim_rounds([updates], tau, t=t)[0]


def trim_rounds(
    rounds: Sequence[Sequence[np.ndarray]], tau: float, *, t: int = 0
) -> list[TrimDecision]:
    """`trim_round` of R rounds of N finite updates each (as `flcore` checks
    them), in one stacked median and distance computation; each decision is
    bit for bit its round's alone."""
    if any(len(updates) < 2 for updates in rounds):
        raise ValueError("trimming needs at least two clients")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    stacked = np.stack([np.stack(updates) for updates in rounds])
    num, mid = stacked.shape[1], stacked.shape[1] // 2
    # np.median's arithmetic, read off a sorted client-minor copy: the middle
    # value, or the mean of the middle two.  A fresh copy, because at P = 1
    # the transpose is already contiguous and would sort `stacked` in place.
    ordered = stacked.transpose(0, 2, 1).copy()
    ordered.sort(axis=2)
    center = ordered[..., mid] if num % 2 else (ordered[..., mid - 1] + ordered[..., mid]) / 2
    distances = np.linalg.norm(stacked - center[:, None], axis=2)
    m = math.ceil(tau * num)
    # a stable sort of each row reversed: farthest first, ties to the higher id
    order = num - 1 - np.argsort(-distances[:, ::-1], axis=1, kind="stable")
    return [
        TrimDecision(t=t, distances=row, trimmed=frozenset(ids[:m].tolist()))
        for row, ids in zip(distances, order)
    ]


@dataclass(frozen=True)
class PlausibilityFlag:
    distance: float
    flagged: bool


def plausibility_check(
    update: np.ndarray, kept_updates: Sequence[np.ndarray], eps: float
) -> PlausibilityFlag:
    """Cosine deviation of an update from the median of a benign reference set.

    Zero vectors get the orthogonal convention (distance 1).  Nothing in the
    program calls this: it stays only because the benchmark traces it by name,
    until ROADMAP item 1 deletes it with `PlausibilityFlag`.
    """
    if len(kept_updates) == 0:
        raise ValueError("reference set is empty")
    center = np.median(np.stack(kept_updates), axis=0)
    nu = float(np.linalg.norm(update))
    nc = float(np.linalg.norm(center))
    if nu == 0.0 or nc == 0.0:
        d = 1.0
    else:
        d = 1.0 - float(np.dot(update, center)) / (nu * nc)
    return PlausibilityFlag(distance=d, flagged=d > eps)


def detection_metrics(
    decisions: Sequence[TrimDecision], malicious: set[int]
) -> DetectionScore:
    """Per-round precision/recall/F1 against the known malicious set, averaged."""
    if len(decisions) == 0:
        raise ValueError("no rounds to score")
    if len(malicious) == 0:
        raise ValueError("malicious set is empty; recall undefined")
    ps, rs, fs = [], [], []
    for dec in decisions:
        hit = len(dec.trimmed & malicious)
        p = hit / len(dec.trimmed) if dec.trimmed else 0.0
        r = hit / len(malicious)
        f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return DetectionScore(
        precision=float(np.mean(ps)),
        recall=float(np.mean(rs)),
        f1=float(np.mean(fs)),
    )
