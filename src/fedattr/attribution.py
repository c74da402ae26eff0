"""Server-side attribution evaluators over a finished training log.

Per-round coalition utilities feed an exact (or permutation-sampled) Shapley
evaluator and leave-one-out variants; raw values are then shift-min
normalized into shares and ranked.  Evaluators only read the log, never
influence training.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .flcore import FLConfig, TrainingLog, run_training
from .models import LabeledBatch, ModelSpec

EVALUATORS = ("fedsv_exact", "fedsv_mc", "loo_round", "loo_retrain")

# Largest client count shapley_exact enumerates (2^N coalitions per round).
EXACT_LIMIT = 16
# Float64 logits held at once while evaluating a batch of coalitions; bounds
# the working set independently of how many coalitions are asked for.
_CHUNK_LOGITS = 1 << 16


@dataclass(frozen=True)
class CoalitionUtility:
    """Round-t coalition game: v(S) = U(w_t + weighted aggregate over S)."""

    t: int
    base_w: np.ndarray
    updates: tuple[np.ndarray, ...]
    n: tuple[int, ...]
    spec: ModelSpec
    test: LabeledBatch

    @classmethod
    def from_round(cls, record, spec: ModelSpec, test: LabeledBatch) -> "CoalitionUtility":
        return cls(record.t, record.w_t, record.updates, record.n, spec, test)

    @property
    def num_clients(self) -> int:
        return len(self.updates)

    def values(self, members) -> np.ndarray:
        """Utilities of many coalitions; row k of the boolean `members`
        matrix (coalitions x clients) marks the members of coalition k."""
        members = np.asarray(members, dtype=bool)
        if members.ndim != 2 or members.shape[1] != self.num_clients:
            raise ValueError(
                f"members must be a coalitions x {self.num_clients} matrix"
            )
        counts = np.asarray(self.n, dtype=np.float64)
        if np.any(counts < 0):
            raise ValueError("sample counts must be non-negative")
        if len(self.test) == 0:
            raise ValueError("batch is empty")
        # Test rows grouped by label, so each label's rows are one slice; rows
        # labelled num_classes or above can never be predicted correctly.
        order = np.argsort(self.test.labels, kind="stable")
        bounds = np.searchsorted(
            self.test.labels[order], np.arange(self.spec.num_classes + 1)
        )
        x = self.test.inputs[order[: bounds[-1]]]
        width = len(self.test) * max(self.spec.num_classes, self.spec.hidden_dim)
        chunk = max(1, _CHUNK_LOGITS // width)
        out = np.empty(len(members))
        for start in range(0, len(members), chunk):
            block = members[start : start + chunk]
            columns = self._class_logits(self._params(block, counts), x)
            out[start : start + chunk] = _count_correct(columns, bounds) / len(self.test)
        return out

    def _params(self, block: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """w_t + aggregate for each coalition, with the arithmetic of
        `flcore.weighted_aggregate`: clients added in index order, each
        scaled by n_i / (sum of n over the coalition)."""
        weights = np.where(block, counts, 0.0)
        totals = weights.sum(axis=1)
        nonempty = block.any(axis=1)
        if np.any(totals[nonempty] <= 0):
            raise ValueError("sample counts sum to zero")
        weights /= np.where(nonempty, totals, 1.0)[:, None]
        agg = np.zeros((len(block), len(self.base_w)))
        for i, update in enumerate(self.updates):
            agg += weights[:, i : i + 1] * update
        return self.base_w + agg

    def _class_logits(self, params: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        """Logits of each coalition's model, one coalitions x rows array per class.

        The stacked matmul makes one BLAS call per coalition with the shapes
        of `models.accuracy`'s call, so the logits equal it bit for bit.  The
        output bias is added one class at a time, which keeps the inner
        loops long.
        """
        spec = self.spec
        k, d, h, c = len(params), spec.input_dim, spec.hidden_dim, spec.num_classes
        if spec.kind == "logistic":
            z = x @ params[:, : c * d].reshape(k, c, d).transpose(0, 2, 1)
            bias = params[:, c * d :]
        else:
            o1, o2, o3 = h * d, h * d + h, h * d + h + c * h
            hidden = x @ params[:, :o1].reshape(k, h, d).transpose(0, 2, 1)
            hidden += params[:, None, o1:o2]
            np.tanh(hidden, out=hidden)
            z = hidden @ params[:, o2:o3].reshape(k, c, h).transpose(0, 2, 1)
            bias = params[:, o3:]
        return [z[..., j] + bias[:, j : j + 1] for j in range(c)]

    def value(self, subset: Iterable[int]) -> float:
        row = np.zeros((1, self.num_clients), dtype=bool)
        for i in subset:
            if not 0 <= i < self.num_clients:
                raise ValueError(f"client {i} not in this round")
            row[0, i] = True
        return float(self.values(row)[0])

    def value_mask(self, mask: int) -> float:
        """v(S) for the coalition whose members are the set bits of `mask`."""
        return self.value(i for i in range(self.num_clients) if mask >> i & 1)


def _count_correct(columns: list[np.ndarray], bounds: np.ndarray) -> np.ndarray:
    """Correct predictions per coalition from per-class logits whose rows are
    grouped by label: rows bounds[y]:bounds[y + 1] have label y.

    argmax's first-max rule: a row of label y is correct when its logit y is
    above every lower class's logit and at least every higher class's.
    """
    num_classes = len(columns)
    own = np.concatenate(
        [columns[y][:, bounds[y] : bounds[y + 1]] for y in range(num_classes)], axis=1
    )
    hit = np.ones(own.shape, dtype=bool)
    for j, col in enumerate(columns):
        higher, lower = bounds[j + 1], bounds[j]  # rows labelled above / below j
        hit[:, higher:] &= own[:, higher:] > col[:, higher:]
        hit[:, :lower] &= own[:, :lower] >= col[:, :lower]
    return hit.sum(axis=1)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct boolean rows and, for each input row, the index of its copy;
    `np.unique(rows, axis=0, return_inverse=True)` without its slow row sort."""
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T[::-1])
    ordered = packed[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


def shapley_exact(cu: CoalitionUtility) -> np.ndarray:
    """Exact Shapley values via the weighted-marginal sum over all subsets."""
    num = cu.num_clients
    if num > EXACT_LIMIT:
        raise ValueError(
            f"{num} clients exceeds the enumeration guard ({EXACT_LIMIT}); "
            "use shapley_mc"
        )
    # weight for a coalition of size s not containing i: s!(N-1-s)!/N!
    fact = [math.factorial(j) for j in range(num + 1)]
    weights = np.array(
        [fact[s] * fact[num - 1 - s] / fact[num] for s in range(num)]
    )
    masks = np.arange(1 << num)
    members = (masks[:, None] >> np.arange(num) & 1).astype(bool)  # row = bits
    values = cu.values(members)
    sizes = members.sum(axis=1)
    phi = np.empty(num)
    for i in range(num):
        without = masks[~members[:, i]]  # increasing, as the sum runs
        marginals = values[without | (1 << i)] - values[without]
        # cumsum adds in order, so the total is the left-to-right sum
        phi[i] = np.cumsum(weights[sizes[without]] * marginals)[-1]
    return phi


def shapley_mc(
    cu: CoalitionUtility, num_permutations: int, seed: int
) -> np.ndarray:
    """Mean marginal contribution over seeded uniform random permutations."""
    if num_permutations < 1:
        raise ValueError("num_permutations must be at least 1")
    num = cu.num_clients
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(num) for _ in range(num_permutations)])
    # prefixes[p, j] holds the first j + 1 clients of permutation p
    position = np.argsort(perms, axis=1)
    prefixes = position[:, None, :] <= np.arange(num)[None, :, None]
    coalitions = np.concatenate(
        [np.zeros((1, num), dtype=bool), prefixes.reshape(-1, num)]
    )
    unique, inverse = _unique_rows(coalitions)
    values = cu.values(unique)[inverse]
    after = values[1:].reshape(num_permutations, num)
    before = np.concatenate(
        [np.full((num_permutations, 1), values[0]), after[:, :-1]], axis=1
    )
    totals = np.zeros(num)
    # unbuffered and in draw order: the same sums as a per-permutation loop
    np.add.at(totals, perms.ravel(), (after - before).ravel())
    return totals / num_permutations


@dataclass(frozen=True)
class AttributionReport:
    evaluator: str
    raw: np.ndarray
    shares: np.ndarray
    ranks: np.ndarray

    @classmethod
    def from_raw(cls, evaluator: str, raw: np.ndarray) -> "AttributionReport":
        shares = normalize_shares(raw)
        return cls(evaluator, np.asarray(raw, dtype=np.float64), shares, rank_clients(shares))


def normalize_shares(raw: np.ndarray) -> np.ndarray:
    """Shift by the minimum and rescale to sum to one; uniform if degenerate."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size < 1:
        raise ValueError("need at least one client")
    shifted = raw - raw.min()
    total = shifted.sum()
    if total == 0.0:
        return np.full(raw.size, 1.0 / raw.size)
    return shifted / total


def rank_clients(shares: np.ndarray) -> np.ndarray:
    """Rank 1 = largest share; ties break toward the lower client id."""
    order = sorted(range(len(shares)), key=lambda i: (-shares[i], i))
    ranks = np.empty(len(shares), dtype=np.int64)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return ranks


def fedsv(
    log: TrainingLog,
    spec: ModelSpec,
    test: LabeledBatch,
    mode: str = "exact",
    *,
    num_permutations: int = 200,
    seed: int = 0,
) -> AttributionReport:
    """Federated Shapley: per-round values summed across all rounds."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown FedSV mode {mode!r}")
    total = np.zeros(log.num_clients)
    for rec in log.rounds:
        cu = CoalitionUtility.from_round(rec, spec, test)
        if mode == "exact":
            total += shapley_exact(cu)
        else:
            total += shapley_mc(cu, num_permutations, seed + rec.t)
    name = "fedsv_exact" if mode == "exact" else "fedsv_mc"
    return AttributionReport.from_raw(name, total)


def loo_round(
    log: TrainingLog, spec: ModelSpec, test: LabeledBatch
) -> AttributionReport:
    """Leave-one-out on logged rounds: sum_t v_t(All) - v_t(All minus i)."""
    num = log.num_clients
    total = np.zeros(num)
    # row 0 is the full coalition, row i + 1 leaves client i out
    members = np.ones((num + 1, num), dtype=bool)
    members[1:] = ~np.eye(num, dtype=bool)
    for rec in log.rounds:
        values = CoalitionUtility.from_round(rec, spec, test).values(members)
        total += values[0] - values[1:]
    return AttributionReport.from_raw("loo_round", total)


def loo_retrain(cfg: FLConfig, client_id: int) -> float:
    """Utility drop from rerunning the whole training without one client."""
    full = run_training(cfg)
    reduced = run_training(cfg.without_client(client_id))
    return full.final_utility - reduced.final_utility


def loo_retrain_report(cfg: FLConfig) -> AttributionReport:
    full = run_training(cfg)
    raw = np.array(
        [
            full.final_utility
            - run_training(cfg.without_client(s.client_id)).final_utility
            for s in cfg.shards
        ]
    )
    return AttributionReport.from_raw("loo_retrain", raw)


def write_report_csv(
    reports: list[tuple[str, str, AttributionReport]], path
) -> None:
    """Tabular dump; rows are (run_id, evaluator, client, raw, share, rank, phase)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "evaluator", "client_id", "raw", "share", "rank", "phase"]
        )
        for run_id, phase, report in reports:
            for i in range(len(report.raw)):
                writer.writerow(
                    [
                        run_id,
                        report.evaluator,
                        i,
                        repr(float(report.raw[i])),
                        repr(float(report.shares[i])),
                        int(report.ranks[i]),
                        phase,
                    ]
                )
