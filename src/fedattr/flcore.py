"""FedAvg round loop: broadcast, client behaviors, weighted aggregation, logging.

A client behavior is one pure step `(ctx, state) -> (update, state, diag)`:
it sees only the current and previous broadcasts, its own shard, and its
own RNG stream, and its state lives for one run, starting from None.  A step
that trains is a generator whose `update = yield batch` has the runner train
`batch` from `ctx.w_t` with `ctx.hp` and a seed drawn from `ctx.rng` at the
yield.  Every round is recorded, with each client's diagnostics, so
evaluators and defenses can replay the run without touching training.

`run_training_many` advances several runs round by round, so the training
sets of all their clients train in shared lockstep calls and their rounds
close together; each run's log is bit for bit the one `run_training` gives
it alone.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Generator
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from . import streams
from .data import ClientShard
from .defense import TrimDecision, trim_round, trim_rounds
from .models import (
    LabeledBatch,
    LabelGroups,
    ModelSpec,
    _check_batch,
    accuracy,
    count_correct,
    group_by_label,
    init_params,
    params_from_bytes,
    params_to_bytes,
    sgd_train_many,
)

DEFENSE_MODES = ("off", "monitor", "enforce")


def check_setup(num_clients: int, defense_mode: str, trim_tau: float) -> None:
    """Raise ValueError unless `num_clients` clients can train every round
    under `defense_mode` and `trim_tau` (NaN fails); `enforce` trims
    ceil(trim_tau * N) of N clients each round and must keep one."""
    if num_clients < 1:
        raise ValueError("a run needs at least one client")
    if defense_mode not in DEFENSE_MODES:
        raise ValueError(f"unknown defense mode {defense_mode!r}")
    if not 0.0 < trim_tau < 1.0:
        raise ValueError("trim_tau must be in (0, 1)")
    if defense_mode != "off" and num_clients < 2:
        raise ValueError("trimming needs at least two clients")
    if defense_mode == "enforce" and math.ceil(trim_tau * num_clients) >= num_clients:
        raise ValueError(f"trim_tau {trim_tau} trims all {num_clients} clients")


@dataclass(frozen=True)
class LocalHP:
    """Client-side training hyperparameters (shared by all clients)."""

    epochs: int = 2
    batch_size: int = 32
    eta_w: float = 0.1


@dataclass(frozen=True)
class RoundContext:
    """What a behavior is allowed to see: the last two broadcasts and its own shard."""

    spec: ModelSpec
    t: int
    w_t: np.ndarray
    w_prev: np.ndarray | None  # w_{t-1}, read-only; None at t = 1
    shard: ClientShard
    hp: LocalHP
    rng: np.random.Generator


# (ctx, state) -> (update, state, diag), or a generator that yields training
# sets and returns that triple; state is None at the start of a run.
# RoundContext is named by string: typing caches subscripted aliases, and a
# cached class would keep each re-imported copy of this module alive.
Behavior = Callable[["RoundContext", Any], Any]


@dataclass(frozen=True)
class RoundRecord:
    t: int
    w_t: np.ndarray
    updates: tuple[np.ndarray, ...]
    diags: tuple[dict | None, ...]  # one per client; None when it gave none
    n: tuple[int, ...]
    w_next: np.ndarray
    test_utility_after: float
    trim: TrimDecision | None = None


@dataclass(frozen=True)
class TrainingLog:
    rounds: tuple[RoundRecord, ...]
    fingerprint: str
    defense_mode: str
    trim_tau: float

    @property
    def final_utility(self) -> float:
        return self.rounds[-1].test_utility_after

    @property
    def num_clients(self) -> int:
        return len(self.rounds[0].updates)


@dataclass(frozen=True)
class FLConfig:
    spec: ModelSpec
    shards: Sequence[ClientShard]
    behaviors: Sequence[Behavior]
    hp: LocalHP
    rounds: int
    test: LabeledBatch
    master_seed: int
    defense_mode: str = "off"
    trim_tau: float = 0.1
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if len(self.shards) != len(self.behaviors):
            raise ValueError("one behavior per shard required")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        ids = [s.client_id for s in self.shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"client ids {ids} repeat")
        check_setup(len(self.shards), self.defense_mode, self.trim_tau)

    def without_client(self, client_id: int) -> "FLConfig":
        """Drop one client, keeping everyone else's id-keyed RNG streams intact."""
        keep = [i for i, s in enumerate(self.shards) if s.client_id != client_id]
        if len(keep) == len(self.shards):
            raise ValueError(f"no client with id {client_id}")
        return replace(
            self,
            shards=[self.shards[i] for i in keep],
            behaviors=[self.behaviors[i] for i in keep],
        )


class FLRunError(RuntimeError):
    def __init__(self, round_index: int, client_id: int, cause: Exception):
        super().__init__(f"round {round_index}, client {client_id}: {cause}")
        self.round_index = round_index
        self.client_id = client_id


def coalition_matrix(members, num_clients: int) -> np.ndarray:
    """`members` as a boolean coalitions x `num_clients` matrix, or ValueError."""
    members = np.asarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != num_clients:
        raise ValueError(f"members must be a coalitions x {num_clients} matrix")
    return members


def weighted_aggregate(
    updates: Sequence[np.ndarray], n: Sequence[int], members
) -> np.ndarray:
    """Data-size-weighted mean update of each coalition: row k of the boolean
    `members` matrix (coalitions x clients) marks coalition k's clients, whose
    updates row k of the result adds in index order, each scaled by n_i / (sum
    of n over the coalition).  A coalition without samples aggregates to zero.
    The sums run parameter-major, so each client's term is one multiply over
    the coalitions side by side; the result is C-ordered, coalitions x
    parameters."""
    if len(updates) == 0:
        raise ValueError("no updates to aggregate")
    if len(updates) != len(n):
        raise ValueError("updates and counts differ in length")
    members = coalition_matrix(members, len(updates))
    counts = np.asarray(n, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("sample counts must be non-negative")
    weights = np.where(members.T, counts[:, None], 0.0)  # clients x coalitions
    totals = weights.sum(axis=0)  # integer counts: exact in any order
    weights /= np.where(totals > 0, totals, 1.0)
    agg = np.zeros((len(updates[0]), len(members)))
    out = np.empty((len(members), len(updates[0])))
    term = out.reshape(agg.shape)  # scratch in out's memory until the sums are done
    for update, weight in zip(updates, weights):
        agg += np.multiply(update[:, None], weight, out=term)
    out[...] = agg.T
    return out


def benign(ctx: RoundContext, state: Any):
    """Standard client: trains on its shard, reports the weight delta."""
    update = yield ctx.shard.data
    return update, state, None


def utility(spec: ModelSpec, params: np.ndarray, test: LabeledBatch) -> float:
    """Global utility metric: held-out test accuracy."""
    return accuracy(spec, params, test)


class _blame:
    """Re-raise a failure as an FLRunError naming ctx's round and client; a
    BaseException that is no Exception passes through as it is."""

    def __init__(self, ctx: RoundContext):
        self.ctx = ctx

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, Exception):
            raise FLRunError(self.ctx.t, self.ctx.shard.client_id, exc) from exc


class _Run:
    """One run's progress between rounds: broadcasts, client states, records,
    and the grouping of its test set that its call shares among its runs."""

    def __init__(self, cfg: FLConfig, groups: LabelGroups):
        self.cfg = cfg
        self.groups = groups
        self.w = init_params(cfg.spec, streams.child_seed(cfg.master_seed, "init"))
        self.w.setflags(write=False)
        self.w_prev: np.ndarray | None = None
        self.n = tuple(s.n_i for s in cfg.shards)
        self.states: Sequence[Any] = [None] * len(cfg.shards)
        self.records: list[RoundRecord] = []


def _next_broadcast(
    w_t: np.ndarray, updates: Sequence[np.ndarray], n: tuple, mode: str,
    trim: TrimDecision | None,
) -> np.ndarray:
    """w_t plus the weighted mean update of a round's kept clients: all of
    them, less the trimmed ones under `enforce` (`check_setup` keeps one)."""
    kept = np.ones((1, len(updates)), dtype=bool)
    if mode == "enforce":
        kept[0, list(trim.trimmed)] = False
    return w_t + weighted_aggregate(updates, n, kept)[0]


def _close_round(runs: Sequence[_Run], t: int, steps: Sequence[tuple]) -> None:
    """Round t of every run from its client steps' (updates, diags): trimming,
    aggregation, utility.  Runs that share client count, parameter count and
    trim_tau are trimmed in one `trim_rounds` call, each run aggregates its
    kept clients alone, and runs that share a grouped test set are scored in
    one `count_correct` call; every value is bit for bit its run's alone."""
    trims: list[TrimDecision | None] = [None] * len(runs)
    by_shape: dict[tuple, list[int]] = {}
    for r, (run, (updates, _)) in enumerate(zip(runs, steps)):
        if run.cfg.defense_mode != "off":
            key = (len(updates), run.w.size, run.cfg.trim_tau)
            by_shape.setdefault(key, []).append(r)
    for (_, _, tau), members in by_shape.items():
        decisions = trim_rounds([steps[r][0] for r in members], tau, t=t)
        for r, trim in zip(members, decisions):
            trims[r] = trim
    w_next = []
    for run, (updates, _), trim in zip(runs, steps, trims):
        mode = run.cfg.defense_mode
        w_next.append(_next_broadcast(run.w, updates, run.n, mode, trim))
        w_next[-1].setflags(write=False)
    utils = [0.0] * len(runs)
    by_test: dict[int, list[int]] = {}
    for r, run in enumerate(runs):
        by_test.setdefault(id(run.groups), []).append(r)
    for members in by_test.values():
        first = runs[members[0]]
        params = np.stack([w_next[r] for r in members])
        counts = count_correct(first.cfg.spec, params, first.groups)
        for r, count in zip(members, counts):
            utils[r] = float(count / first.groups.size)
    for run, (updates, diags), trim, w, util in zip(runs, steps, trims, w_next, utils):
        run.records.append(RoundRecord(t, run.w, updates, diags, run.n, w, util, trim))
        run.w_prev, run.w = run.w, w


def _check_vector(vec, shape: tuple, name: str) -> np.ndarray:
    """`vec` as float64, or ValueError unless it is finite and shaped `shape`:
    the rule for each update (`_check_result`) and a stored log's `w_1`."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != shape or not np.all(np.isfinite(vec)):
        raise ValueError(f"bad {name} shape or non-finite")
    return vec


def _check_result(w_t: np.ndarray, update, diag) -> np.ndarray:
    """A client's `update` as float64, or ValueError unless it is a finite vector
    shaped like w_t and `diag` is None or a dict that `save_log` can write as
    strict JSON (no NaN or infinity); the runner and `load_log` agree."""
    update = _check_vector(update, w_t.shape, "update")
    if diag is None:
        return update
    if not isinstance(diag, dict):
        raise ValueError(f"diag {diag!r} is not a dict or None")
    try:
        json.dumps(diag, sort_keys=True, allow_nan=False)  # as save_log writes it
    except (TypeError, ValueError) as exc:
        raise ValueError(f"diag {diag!r} cannot be written to the log: {exc}") from None
    return update


def _checked(ctx: RoundContext, result) -> tuple:
    """A step's returned (update, state, diag), checked by `_check_result`."""
    update, state, diag = result
    return _check_result(ctx.w_t, update, diag), state, diag


def _drive(entries: Sequence[tuple]) -> list[tuple]:
    """Start the step `behavior(ctx, state)` of every (ctx, behavior, state)
    entry, drive it until it returns, and give each step's checked (update,
    state, diag) in entry order.  A step that is not a generator has already
    returned.  The training sets that generators yield are checked (each set
    object once per pass, blaming the first step that yields it), grouped by
    model, hyperparameters and size, trained in one `sgd_train_many` call per
    group (each row from its own ctx.w_t, with the seed its own ctx.rng gives
    at the yield) and sent back as updates.  Rows equal training alone bit
    for bit; a failure raises FLRunError naming the step's round and client."""
    results: list = [None] * len(entries)
    pending = []  # (entry index, ctx, step) of each unfinished generator
    for e, (ctx, behavior, state) in enumerate(entries):
        with _blame(ctx):
            step = behavior(ctx, state)
            if isinstance(step, Generator):
                pending.append((e, ctx, step))
            else:
                results[e] = _checked(ctx, step)
    sent = [None] * len(pending)
    while pending:
        groups: dict[tuple, list[tuple]] = {}
        checked = set()  # (id of set, spec) of each set this pass has checked
        waiting = []
        for (e, ctx, step), update in zip(pending, sent):
            with _blame(ctx):
                try:
                    batch = step.send(update)
                except StopIteration as done:
                    results[e] = _checked(ctx, done.value)
                    continue
                if (id(batch), ctx.spec) not in checked:
                    _check_batch(ctx.spec, batch)
                    checked.add((id(batch), ctx.spec))
                seed = int(ctx.rng.integers(0, 2**63))
            key = (ctx.spec, ctx.hp, len(batch))
            groups.setdefault(key, []).append((len(waiting), ctx, batch, seed))
            waiting.append((e, ctx, step))
        sent = [None] * len(waiting)
        for (spec, hp, _), members in groups.items():
            rows, ctxs, batches, seeds = zip(*members)
            starts = np.stack([ctx.w_t for ctx in ctxs])
            with _blame(ctxs[0]):
                trained = sgd_train_many(
                    spec, starts, batches, hp.epochs, hp.batch_size, hp.eta_w, seeds
                )
            for k, ctx, params in zip(rows, ctxs, trained):
                sent[k] = params - ctx.w_t
        pending = waiting
    return results


def _play_round(runs: Sequence[_Run], t: int) -> None:
    """Round t of every run: `_drive` starts its client steps in run and
    client order and trains all of them in shared lockstep calls, each run
    keeps its clients' new states, and `_close_round` closes every round."""
    entries = []
    for run in runs:
        cfg = run.cfg
        for shard, behavior, state in zip(cfg.shards, cfg.behaviors, run.states):
            rng = streams.stream(cfg.master_seed, "client", shard.client_id, t)
            ctx = RoundContext(cfg.spec, t, run.w, run.w_prev, shard, cfg.hp, rng)
            entries.append((ctx, behavior, state))
    results = iter(_drive(entries))
    steps = []
    for run in runs:
        updates, run.states, diags = zip(*[next(results) for _ in run.states])
        steps.append((updates, diags))
    _close_round(runs, t, steps)


def run_training_many(cfgs: Sequence[FLConfig]) -> list[TrainingLog]:
    """Run several configs round by round, each log equal to its run alone,
    grouping each distinct model and test set by label once; `_play_round`
    trains the clients of all of them in shared lockstep calls."""
    tests = {(cfg.spec, id(cfg.test)): cfg.test for cfg in cfgs}
    groups = {key: group_by_label(key[0], test) for key, test in tests.items()}
    runs = [_Run(cfg, groups[cfg.spec, id(cfg.test)]) for cfg in cfgs]
    for t in range(1, max((cfg.rounds for cfg in cfgs), default=0) + 1):
        _play_round([run for run in runs if t <= run.cfg.rounds], t)
    return [
        TrainingLog(tuple(run.records), cfg.fingerprint, cfg.defense_mode, cfg.trim_tau)
        for run, cfg in zip(runs, cfgs)
    ]


def run_training(cfg: FLConfig) -> TrainingLog:
    """Run T FedAvg rounds and record every broadcast, update, and aggregate."""
    return run_training_many([cfg])[0]


# --- line-delimited persistence -------------------------------------------

def _enc(vec: np.ndarray) -> str:
    return base64.b64encode(params_to_bytes(vec)).decode("ascii")


def _dec(blob: str) -> np.ndarray:
    return params_from_bytes(base64.b64decode(blob))


def save_log(log: TrainingLog, path) -> None:
    """A header holding the run's constants, `w_1` and `n`, then one line per round."""
    with open(path, "w") as fh:
        header = {
            "kind": "training_log",
            "fingerprint": log.fingerprint,
            "defense_mode": log.defense_mode,
            "trim_tau": log.trim_tau,
            "rounds": len(log.rounds),
            "final_utility": log.final_utility,
            "w_1": _enc(log.rounds[0].w_t),
            "n": list(log.rounds[0].n),
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in log.rounds:
            row = {
                "t": rec.t,
                "updates": [_enc(u) for u in rec.updates],
                "w_next": _enc(rec.w_next),
                "test_utility_after": rec.test_utility_after,
                "diags": list(rec.diags),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _load_round(row: dict, t: int, w_t: np.ndarray, n: tuple, mode: str, tau: float) -> RoundRecord:
    """Round t of a stored log from its row, broadcast w_t, counts n and
    trim_tau, checked against itself: one update and diag per client, as the
    runner checks them (`_check_result`), an int t, a float utility in
    [0, 1], and a w_next `_next_broadcast` gives bit for bit under the
    runner's trim rule."""
    if type(row["t"]) is not int or row["t"] != t:  # a bool is no int here
        raise ValueError(f"round {row['t']!r} where round {t} belongs")
    updates, diags, clients = tuple(map(_dec, row["updates"])), tuple(row["diags"]), len(n)
    if not len(updates) == len(diags) == clients:
        raise ValueError(f"{len(updates)} updates, {len(diags)} diags, {clients} clients")
    updates = tuple(_check_result(w_t, u, diag) for u, diag in zip(updates, diags))
    util = row["test_utility_after"]
    if type(util) is not float or not 0 <= util <= 1:  # the runner writes count / size
        raise ValueError(f"test utility {util!r} is not a float in [0, 1]")
    trim = None if mode == "off" else trim_round(updates, tau, t=t)
    w_next = _dec(row["w_next"])
    if _next_broadcast(w_t, updates, n, mode, trim).tobytes() != w_next.tobytes():
        raise ValueError(f"round {t}: w_next is not w_t plus its aggregated updates")
    return RoundRecord(t, w_t, updates, diags, n, w_next, util, trim)


def load_log(path) -> TrainingLog:
    """The log `save_log` wrote: round t + 1's broadcast is round t's w_next
    and every round gets the header's counts and trim_tau.  A malformed file
    or header (a field of a JSON type `save_log` does not write, `check_setup`
    and a non-finite `w_1` included), or rounds that do not run 1..T or
    contradict themselves (`_load_round`), raises ValueError naming its
    line."""
    lineno = 1
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("kind") != "training_log":
                raise ValueError("not a training log")
            fingerprint, mode, tau, rounds, final, n = (
                header["fingerprint"], header["defense_mode"], header["trim_tau"],
                header["rounds"], header["final_utility"], header["n"],
            )
            kinds = {"fingerprint": str, "trim_tau": float, "rounds": int, "final_utility": float}
            for key, kind in kinds.items():
                if type(header[key]) is not kind:
                    raise ValueError(f"{key} {header[key]!r} is not a {kind.__name__}")
            if not isinstance(n, list) or not all(type(c) is int and c >= 0 for c in n):
                raise ValueError(f"sample counts {n!r} are not a list of non-negative ints")
            check_setup(len(n), mode, tau)
            w_1, n = _dec(header["w_1"]), tuple(n)
            w_t = _check_vector(w_1, w_1.shape, "w_1")
            records = []
            for lineno, line in enumerate(fh, start=2):
                records.append(_load_round(json.loads(line), lineno - 1, w_t, n, mode, tau))
                w_t = records[-1].w_next
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}, line {lineno}: malformed training log: {exc!r}"
            ) from exc
    log = TrainingLog(tuple(records), fingerprint, mode, tau)
    if not records or (rounds, final) != (len(records), log.final_utility):
        raise ValueError(
            f"{path}: log header ({rounds} rounds, final utility {final!r}) disagrees "
            f"with its {len(records)} records"
        )
    return log
