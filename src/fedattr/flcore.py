"""FedAvg round loop: broadcast, client behaviors, weighted aggregation, logging.

A client behavior is one pure step `(ctx, state) -> (update, state, diag)`:
it sees only the current and previous broadcasts, its own shard, and its
own RNG stream, and its state lives for one run, starting from None.  Every
round is recorded, with each client's diagnostics, so evaluators and
defenses can replay the run without touching training.

`run_training_many` advances several runs round by round, so the `benign`
clients of all of them train in shared lockstep calls; each run's log is
bit for bit the one `run_training` gives it alone.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from . import streams
from .data import ClientShard
from .defense import TrimDecision, trim_round
from .models import (
    LabeledBatch,
    ModelSpec,
    accuracy,
    init_params,
    params_from_bytes,
    params_to_bytes,
    sgd_train,
    sgd_train_many,
)

DEFENSE_MODES = ("off", "monitor", "enforce")


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


# (ctx, state) -> (update, state, diag); state is None at the start of a run.
# RoundContext is named by string: typing caches subscripted aliases, and a
# cached class would keep each re-imported copy of this module alive.
Behavior = Callable[["RoundContext", Any], tuple[np.ndarray, Any, dict | None]]


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
        if self.defense_mode not in DEFENSE_MODES:
            raise ValueError(f"unknown defense mode {self.defense_mode!r}")

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


def weighted_aggregate(
    updates: Sequence[np.ndarray], n: Sequence[int]
) -> np.ndarray:
    """Data-size-weighted average of client updates."""
    if len(updates) == 0:
        raise ValueError("no updates to aggregate")
    if len(updates) != len(n):
        raise ValueError("updates and counts differ in length")
    counts = np.asarray(n, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("sample counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("sample counts sum to zero")
    agg = np.zeros_like(updates[0])
    for u, w in zip(updates, counts):
        agg += (w / total) * u
    return agg


def benign_local_update(
    spec: ModelSpec,
    w_t: np.ndarray,
    shard: ClientShard,
    hp: LocalHP,
    seed: int,
) -> np.ndarray:
    """Local SGD on the client's own shard; returns trained params minus w_t."""
    trained = sgd_train(
        spec, w_t, shard.data, hp.epochs, hp.batch_size, hp.eta_w, seed
    )
    return trained - w_t


def benign(ctx: RoundContext, state: Any) -> tuple[np.ndarray, Any, None]:
    """Standard client: trains on its shard, reports the weight delta.

    `run_training_many` trains all of a round's `benign` clients in lockstep
    instead of calling them one by one; the updates are the same.
    """
    seed = int(ctx.rng.integers(0, 2**63))
    update = benign_local_update(ctx.spec, ctx.w_t, ctx.shard, ctx.hp, seed)
    return update, state, None


def utility(spec: ModelSpec, params: np.ndarray, test: LabeledBatch) -> float:
    """Global utility metric: held-out test accuracy."""
    return accuracy(spec, params, test)


class _Run:
    """One run's progress between rounds: broadcasts, client states, records."""

    def __init__(self, cfg: FLConfig):
        self.cfg = cfg
        self.w = init_params(cfg.spec, streams.child_seed(cfg.master_seed, "init"))
        self.w.setflags(write=False)
        self.w_prev: np.ndarray | None = None
        self.n = tuple(s.n_i for s in cfg.shards)
        self.states: list[Any] = [None] * len(cfg.shards)
        self.records: list[RoundRecord] = []

    def play_round(self, t: int, lockstep: dict[int, np.ndarray]) -> None:
        """Round t: the other clients' steps, trimming, aggregation, utility."""
        cfg, w, n = self.cfg, self.w, self.n
        updates: list[np.ndarray] = []
        diags: list[dict | None] = []
        for i, (shard, behavior) in enumerate(zip(cfg.shards, cfg.behaviors)):
            if i in lockstep:
                u, diag = lockstep[i], None
            else:
                rng = streams.stream(cfg.master_seed, "client", shard.client_id, t)
                ctx = RoundContext(cfg.spec, t, w, self.w_prev, shard, cfg.hp, rng)
                try:
                    u, self.states[i], diag = behavior(ctx, self.states[i])
                    u = np.asarray(u, dtype=np.float64)
                except Exception as exc:
                    raise FLRunError(t, shard.client_id, exc) from exc
            if u.shape != w.shape or not np.all(np.isfinite(u)):
                raise FLRunError(
                    t, shard.client_id, ValueError("bad update shape or non-finite")
                )
            updates.append(u)
            diags.append(diag)

        trim = None
        kept_idx = list(range(len(updates)))
        if cfg.defense_mode != "off":
            trim = trim_round(updates, cfg.trim_tau, t=t)
            if cfg.defense_mode == "enforce":
                kept_idx = sorted(trim.kept)

        agg = weighted_aggregate(
            [updates[i] for i in kept_idx], [n[i] for i in kept_idx]
        )
        w_next = w + agg
        w_next.setflags(write=False)
        util = utility(cfg.spec, w_next, cfg.test)
        self.records.append(
            RoundRecord(t, w, tuple(updates), tuple(diags), n, w_next, util, trim)
        )
        self.w_prev, self.w = w, w_next


def _lockstep_updates(runs: Sequence[_Run], t: int) -> list[dict[int, np.ndarray]]:
    """Round-t updates of the `benign` clients of each run, by run and then
    by position.

    Clients of every run that share a model, hyperparameters and shard size
    train in one `sgd_train_many` call, each row from its own run's w_t and
    with the seed `benign` would draw from its own stream, so the updates
    equal the per-client ones bit for bit.  That seed depends only on
    (master seed, client id, t), so it is drawn once for all runs.  A group
    that fails validation is left to the per-client path, which names the
    failing client.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for r, run in enumerate(runs):
        cfg = run.cfg
        for i, (shard, behavior) in enumerate(zip(cfg.shards, cfg.behaviors)):
            if behavior is benign:
                groups.setdefault((cfg.spec, cfg.hp, shard.n_i), []).append((r, i))
    seeds: dict[tuple[int, int], int] = {}
    updates: list[dict[int, np.ndarray]] = [{} for _ in runs]
    for (spec, hp, _), members in groups.items():
        shards = [runs[r].cfg.shards[i] for r, i in members]
        keys = [(runs[r].cfg.master_seed, s.client_id) for (r, _), s in zip(members, shards)]
        for key in keys:
            if key not in seeds:
                rng = streams.stream(key[0], "client", key[1], t)
                seeds[key] = int(rng.integers(0, 2**63))
        starts = np.stack([runs[r].w for r, _ in members])
        try:
            trained = sgd_train_many(
                spec, starts, [s.data for s in shards],
                hp.epochs, hp.batch_size, hp.eta_w, [seeds[k] for k in keys],
            )
        except ValueError:
            continue
        for (r, i), update in zip(members, trained - starts):
            updates[r][i] = update
    return updates


def run_training_many(cfgs: Sequence[FLConfig]) -> list[TrainingLog]:
    """Run several configs round by round; each log equals its run alone.

    At round t the `benign` clients of every run that still trains go
    through `_lockstep_updates` together; every other step, and trimming,
    aggregation and utility, stay per run, in config order.
    """
    runs = [_Run(cfg) for cfg in cfgs]
    for t in range(1, max((cfg.rounds for cfg in cfgs), default=0) + 1):
        active = [run for run in runs if t <= run.cfg.rounds]
        lockstep = _lockstep_updates(active, t)
        for run, updates in zip(active, lockstep):
            run.play_round(t, updates)
    return [TrainingLog(tuple(run.records), run.cfg.fingerprint) for run in runs]


def run_training(cfg: FLConfig) -> TrainingLog:
    """Run T FedAvg rounds and record every broadcast, update, and aggregate."""
    return run_training_many([cfg])[0]


# --- line-delimited persistence -------------------------------------------

def _enc(vec: np.ndarray) -> str:
    return base64.b64encode(params_to_bytes(vec)).decode("ascii")


def _dec(blob: str) -> np.ndarray:
    return params_from_bytes(base64.b64decode(blob))


def save_log(log: TrainingLog, path) -> None:
    """One JSON line per round, preceded by a header line."""
    with open(path, "w") as fh:
        header = {
            "kind": "training_log",
            "fingerprint": log.fingerprint,
            "rounds": len(log.rounds),
            "final_utility": log.final_utility,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in log.rounds:
            row = {
                "t": rec.t,
                "w_t": _enc(rec.w_t),
                "updates": [_enc(u) for u in rec.updates],
                "n": list(rec.n),
                "w_next": _enc(rec.w_next),
                "test_utility_after": rec.test_utility_after,
                "trimmed": sorted(rec.trim.trimmed) if rec.trim else None,
                "distances": (
                    [float(d) for d in rec.trim.distances] if rec.trim else None
                ),
                "diags": list(rec.diags),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_log(path) -> TrainingLog:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "training_log":
            raise ValueError("not a training log")
        records = []
        for line in fh:
            row = json.loads(line)
            trim = None
            if row["trimmed"] is not None:
                trim = TrimDecision(
                    row["t"], np.array(row["distances"]), frozenset(row["trimmed"])
                )
            records.append(
                RoundRecord(
                    t=row["t"],
                    w_t=_dec(row["w_t"]),
                    updates=tuple(_dec(u) for u in row["updates"]),
                    diags=tuple(row["diags"]),
                    n=tuple(row["n"]),
                    w_next=_dec(row["w_next"]),
                    test_utility_after=row["test_utility_after"],
                    trim=trim,
                )
            )
    log = TrainingLog(tuple(records), header["fingerprint"])
    if not records or (header["rounds"], header["final_utility"]) != (
        len(records), log.final_utility
    ):
        raise ValueError(
            f"log header ({header['rounds']} rounds, final utility "
            f"{header['final_utility']!r}) disagrees with its {len(records)} records"
        )
    return log
