"""Server-side attribution evaluators over a finished training log.

Per-round coalition utilities feed an exact (or permutation-sampled) Shapley
evaluator and leave-one-out variants; raw values are then shift-min
normalized into shares and ranked.  Evaluators only read the log, never
influence training.  For a logistic model, coalition scoring is certified:
test rows that w_t and every one-client model of a round get right (or
wrong) by a margin above a rounding bound are settled once per round
(`_certify`), and only the others are scored per coalition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .flcore import (
    FLConfig, RoundRecord, TrainingLog, coalition_matrix, run_training_many, weighted_aggregate,
)
from .models import (
    LabeledBatch,
    LabelGroups,
    ModelSpec,
    count_correct,
    group_by_label,
    grouped_logits,
)

# Evaluators that read only the logged rounds; `evaluate_log` scores them together.
LOGGED_EVALUATORS = ("fedsv_exact", "fedsv_mc", "loo_round")
EVALUATORS = (*LOGGED_EVALUATORS, "loo_retrain")

# Largest client count shapley_exact enumerates (2^N coalitions per round).
EXACT_LIMIT = 16
# Client models one group of leave-one-out reruns trains per round: enough
# to fill a lockstep call, while only one group's logs are held at a time.
_RERUN_MODELS = 32
# Float64 logits (or hidden activations, if wider) of a chunk of coalitions,
# and parameters of a block of them, held at once; bounds the working set
# independently of how many coalitions are asked for.  A larger chunk
# spreads each call's fixed cost over more coalitions; 2^18 and up scored
# faster but raised peak memory.
_CHUNK_LOGITS = 1 << 17
# Coalitions a round must score before `_certify` pays for its one-client
# pass: on 2 vCPUs with 480 test rows and N = 8-12 it broke even at about
# 200, and cost up to twice the scoring itself below 64.
_CERTIFY_MIN = 200


@dataclass(frozen=True)
class CoalitionUtility:
    """Round-t coalition game: v(S) = U(w_t + weighted aggregate over S), the
    accuracy on the grouped test set `groups`, shared across rounds."""

    record: RoundRecord
    spec: ModelSpec
    groups: LabelGroups

    @property
    def num_clients(self) -> int:
        return len(self.record.updates)

    def values(self, members) -> np.ndarray:
        """Utilities of many coalitions; row k of the boolean `members`
        matrix (coalitions x clients) marks the members of coalition k.
        Every coalition scores the rows and classes `_certify` leaves open
        (all of them when fewer than `_CERTIFY_MIN`), plus the rows it
        settles right.  Each block of up to `_CHUNK_LOGITS` floats of
        parameters is aggregated in one `weighted_aggregate` call and scored
        in whole chunks of one `models.count_correct` call.  Each value is
        the accuracy its model gets alone on the whole test set, bit for bit
        where BLAS rounds a row's logits the same among fewer rows
        (`models.grouped_logits`)."""
        rec, spec, members = self.record, self.spec, coalition_matrix(members, self.num_clients)
        groups, always = self.groups, 0
        if len(members) >= _CERTIFY_MIN:
            groups, always = _certify(spec, rec, self.groups)
        if len(groups.inputs) == 0:  # every row settled: no coalition differs
            return np.full(len(members), always / self.groups.size)
        out = np.empty(len(members))
        width = len(groups.inputs) * max(spec.num_classes, spec.hidden_dim)
        chunk = max(1, _CHUNK_LOGITS // max(width, spec.param_count))
        # whole chunks a block, so only the round's last chunk is short
        block = chunk * max(1, _CHUNK_LOGITS // spec.param_count // chunk)
        for start in range(0, len(members), block):
            params = weighted_aggregate(rec.updates, rec.n, members[start : start + block])
            params += rec.w_t
            for k in range(0, len(params), chunk):
                counts = count_correct(spec, params[k : k + chunk], groups)
                out[start + k : start + k + chunk] = (always + counts) / self.groups.size
        return out

    def value_mask(self, mask: int) -> float:
        """v(S) for the coalition whose members are the set bits of `mask`."""
        row = mask >> np.arange(self.num_clients) & 1
        return float(self.values(row[None, :])[0])


def _certify(spec: ModelSpec, rec: RoundRecord, groups: LabelGroups) -> tuple[LabelGroups, int]:
    """The grouped rows and classes that can tell round `rec`'s coalitions
    apart, and the number of rows every one of them gets right.

    A coalition's parameters w_t + sum_S (n_i / n_S) u_i are a convex
    combination of w_t and the one-client models w_t + u_i (w_t itself for
    a coalition without samples), and a logistic model's logits are affine
    in its parameters, so each margin logit_y - logit_j at grouped row r
    (label y) is a convex combination of the vertices' margins.  Row r is
    right for every coalition if every vertex margin of every class j != y
    is above tau_r, and wrong for every coalition if, for some j, every one
    is below -tau_r, where

        tau_r = 2^-30 (1 + |x_r|_1) (|w_t|_inf + max_i |u_i|_inf).

    Rounding moves a computed logit of a coalition by at most
    (N + d + 3) 2^-53 of that scale from the logit of the exact convex
    combination, and a computed vertex margin by at most (2d + 6) 2^-53 of
    it (w_t adds no summed term), so a decision holds while
    2N + 4d + 12 < 2^23.  tau_r is never below 2^-1000, far above the error
    of products that underflow, and a row with a non-finite vertex logit is
    left open.  Rows labelled y are compared only with the classes some
    vertex does not beat there by tau_r.  mlp1 is not affine in its
    parameters: it settles nothing and keeps every row and class."""
    if spec.kind != "logistic":
        return groups, 0
    updates = np.stack(rec.updates)
    z = grouped_logits(spec, np.vstack([rec.w_t, rec.w_t + updates]), groups.inputs)
    label = np.repeat(np.arange(spec.num_classes), np.diff(groups.bounds))
    rows = np.arange(len(label))
    margin = np.subtract(z[:, label, rows][:, None, :], z, out=z)
    low, high = margin.min(axis=0), margin.max(axis=0)  # (C, m); NaN if any is NaN
    finite = np.isfinite(low).all(axis=0) & np.isfinite(high).all(axis=0)
    scale = np.abs(rec.w_t).max() + np.abs(updates).max()
    tau = np.maximum(2.0**-30 * np.abs(groups.inputs).sum(axis=1) * scale, 2.0**-1000)
    beaten = (low > tau) & finite  # (C, m): by every vertex
    beaten[label, rows] = True
    right = beaten.all(axis=0)
    wrong = (high < -tau).any(axis=0) & finite
    open_rows = ~right & ~wrong
    # keep[y, j]: some open row labelled y is not beaten at class j
    unbeaten = np.zeros((spec.num_classes, len(rows) + 1), dtype=np.int64)
    np.cumsum(~beaten & open_rows, axis=1, out=unbeaten[:, 1:])
    keep = (unbeaten[:, groups.bounds[1:]] > unbeaten[:, groups.bounds[:-1]]).T
    return groups.restrict(open_rows, keep), int(np.count_nonzero(right))


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


def _all_coalitions(num: int) -> np.ndarray:
    """The 2^N x N membership matrix whose row `mask` holds mask's set bits."""
    if num > EXACT_LIMIT:
        raise ValueError(
            f"{num} clients exceeds the enumeration guard ({EXACT_LIMIT}); "
            "use shapley_mc"
        )
    return (np.arange(1 << num)[:, None] >> np.arange(num) & 1).astype(bool)


def _permutation_prefixes(
    num: int, num_permutations: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform permutations, and the coalitions their marginals need:
    row 0 is empty, row 1 + p * N + j holds permutation p's first j + 1."""
    if num_permutations < 1:
        raise ValueError("num_permutations must be at least 1")
    # one call, the same draws as a `rng.permutation(num)` per row
    perms = np.random.default_rng(seed).permuted(
        np.tile(np.arange(num), (num_permutations, 1)), axis=1
    )
    prefixes = np.argsort(perms, axis=1)[:, None, :] <= np.arange(num)[:, None]
    return perms, np.concatenate([np.zeros((1, num), dtype=bool), prefixes.reshape(-1, num)])


def shapley_exact(values) -> np.ndarray:
    """Exact Shapley values via the weighted-marginal sum over all subsets;
    `values[mask]` is the utility of the coalition whose members are the set
    bits of `mask`."""
    values = np.asarray(values, dtype=np.float64)
    num = max(values.size.bit_length() - 1, 0)
    if values.shape != (1 << num,):
        raise ValueError("need one utility per coalition: 2^N values in mask order")
    members = _all_coalitions(num)
    # weight for a coalition of size s not containing i: s!(N-1-s)!/N!
    fact = [math.factorial(j) for j in range(num + 1)]
    weights = np.array(
        [fact[s] * fact[num - 1 - s] / fact[num] for s in range(num)]
    )
    masks = np.arange(1 << num)
    sizes = members.sum(axis=1)
    phi = np.empty(num)
    for i in range(num):
        without = masks[~members[:, i]]  # increasing, as the sum runs
        marginals = values[without | (1 << i)] - values[without]
        # cumsum adds in order, so the total is the left-to-right sum
        phi[i] = np.cumsum(weights[sizes[without]] * marginals)[-1]
    return phi


def shapley_mc(values, perms: np.ndarray) -> np.ndarray:
    """Mean marginal contribution over the permutations `perms`; `values`
    are the utilities of the `_permutation_prefixes` rows drawn with them."""
    values = np.asarray(values, dtype=np.float64)
    num_permutations, num = perms.shape
    if values.shape != (1 + num_permutations * num,):
        raise ValueError("need the empty coalition's utility, then one per prefix")
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
    raw: np.ndarray
    shares: np.ndarray
    ranks: np.ndarray

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "AttributionReport":
        shares = normalize_shares(raw)
        return cls(np.asarray(raw, dtype=np.float64), shares, rank_clients(shares))


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
    ranks[order] = np.arange(1, len(shares) + 1)
    return ranks


def evaluate_log(
    log: TrainingLog,
    spec: ModelSpec,
    test: LabeledBatch,
    evaluators: Iterable[str],
    *,
    num_permutations: int = 200,
    seed: int = 0,
) -> dict[str, AttributionReport]:
    """Logged-round evaluators over one log.  The test set is grouped by
    label once; each round concatenates the coalitions every evaluator asks
    for, scores the distinct ones in one `CoalitionUtility.values` call, and
    hands each evaluator its own rows' utilities.  With `fedsv_exact` the
    distinct ones are all 2^N coalitions in mask order, and each row is
    indexed by its mask; without it, they are sorted out (`_unique_rows`)."""
    totals = {name: np.zeros(log.num_clients) for name in evaluators}
    if not set(totals) <= set(LOGGED_EVALUATORS):
        raise ValueError(f"logged-round evaluators are {LOGGED_EVALUATORS}")
    if not totals:
        return {}
    num = log.num_clients
    loo = np.ones((num + 1, num), dtype=bool)  # all, then all minus client i
    loo[1:] = ~np.eye(num, dtype=bool)
    exact = _all_coalitions(num) if "fedsv_exact" in totals else None
    groups = group_by_label(spec, test)
    for rec in log.rounds:
        rows = {}
        if exact is not None:
            rows["fedsv_exact"] = exact
        if "fedsv_mc" in totals:
            perms, rows["fedsv_mc"] = _permutation_prefixes(num, num_permutations, seed + rec.t)
        if "loo_round" in totals:
            rows["loo_round"] = loo
        asked = np.concatenate(list(rows.values()))
        if exact is not None:
            distinct, inverse = exact, asked @ (1 << np.arange(num))
        else:
            distinct, inverse = _unique_rows(asked)
        scored = CoalitionUtility(rec, spec, groups).values(distinct)[inverse]
        ends = np.cumsum([len(part) for part in rows.values()])
        values = dict(zip(rows, np.split(scored, ends[:-1])))
        for name, total in totals.items():
            if name == "fedsv_exact":
                total += shapley_exact(values[name])
            elif name == "fedsv_mc":
                total += shapley_mc(values[name], perms)
            else:
                total += values[name][0] - values[name][1:]
    return {name: AttributionReport.from_raw(total) for name, total in totals.items()}


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
    name = f"fedsv_{mode}"
    return evaluate_log(
        log, spec, test, [name], num_permutations=num_permutations, seed=seed
    )[name]


def loo_round(
    log: TrainingLog, spec: ModelSpec, test: LabeledBatch
) -> AttributionReport:
    """Leave-one-out on logged rounds: sum_t v_t(All) - v_t(All minus i)."""
    return evaluate_log(log, spec, test, ["loo_round"])["loo_round"]


def loo_retrain_report(
    cfg: FLConfig, known: Mapping[int, float] | None = None
) -> tuple[TrainingLog, AttributionReport, dict[int, float]]:
    """`run_training(cfg)`, the utility drop from rerunning the whole
    training without each client, and each rerun's final utility by the id
    of the client it leaves out.  `known` holds final utilities of reruns
    trained before, which are not trained again.  The other reruns train in
    lockstep, in groups of about `_RERUN_MODELS` client models, the first
    group alongside cfg's own run, and only each rerun's final utility
    outlives its group."""
    known = dict(known or {})
    missing = [s.client_id for s in cfg.shards if s.client_id not in known]
    reruns = [cfg.without_client(i) for i in missing]
    per_group = max(1, _RERUN_MODELS // max(1, len(cfg.shards) - 1))
    log, *first = run_training_many([cfg, *reruns[:per_group]])
    finals = [run.final_utility for run in first]
    for k in range(per_group, len(reruns), per_group):
        finals += [run.final_utility for run in run_training_many(reruns[k : k + per_group])]
    known.update(zip(missing, finals))
    utilities = {s.client_id: known[s.client_id] for s in cfg.shards}
    raw = log.final_utility - np.array(list(utilities.values()))
    return log, AttributionReport.from_raw(raw), utilities
