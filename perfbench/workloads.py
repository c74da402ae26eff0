"""Workloads, operations and correctness checks of the fedattr benchmark.

One operation is one paired experiment, `expcli.experiment.run_experiment`:
attack-free phase, target pick, attacked phase and evaluators.  On
`retrain_defense` it also writes the run directory and reads both training
logs back.  A workload is a fixed cycle of config overrides; operation `i`
uses entry `i % len(cycle)` and a master seed derived from the workload seed
and `i`, so the same seed always gives the same configs.

fedattr modules are looked up when a function runs, not at import, because
the benchmark re-imports fedattr while it measures set-up time and the tracer
patches module attributes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

# Evaluators whose per-round Shapley values telescope: summed over rounds and
# clients they equal final_utility - U(w_1) when every update is aggregated.
EFFICIENT_EVALUATORS = ("fedsv_exact", "fedsv_mc")
EFFICIENCY_TOL = 1e-9
SHARE_SUM_TOL = 1e-12

_LATENT = {"attack": "latent_opt"}
_ATTRIBUTION = {
    "attack": "label_flip",
    "evaluators": "fedsv_exact,fedsv_mc,loo_round",
    # The 200-sample default fails the partition feasibility check at N >= 10.
    "samples_per_client": 100,
}
_RETRAIN = {
    "attack": "random_noise",
    "model_kind": "mlp1",
    "hidden_dim": 16,
    "evaluators": "loo_retrain,loo_round",
    "defense_mode": "enforce",
}


@dataclass(frozen=True)
class Workload:
    cycle: tuple[dict, ...]
    writes_run_dir: bool = False


# Each cycle has an odd length and the timed loop runs whole cycles, so the
# median operation is always of the same kind and does not jump between kinds
# as the number of completed operations changes.
WORKLOADS = {
    # attacks.grad_z_fd takes ~90% of an operation and its cost grows with
    # the synthetic batch B (32 at intensity 1, 64 at intensity 2).
    "latent_attack": Workload(
        cycle=(
            {**_LATENT, "intensity": 1.0},
            {**_LATENT, "intensity": 2.0},
            {**_LATENT, "model_kind": "mlp1", "hidden_dim": 8},
        ),
    ),
    # Coalition utilities (value_mask -> weighted_aggregate + accuracy) take
    # ~87% of an operation; N varies the 2^N working set; the attack is cheap.
    "attribution_game": Workload(
        cycle=tuple({**_ATTRIBUTION, "num_clients": n} for n in (8, 10, 12)),
    ),
    # Local SGD inside 16 trainings per operation takes ~90%; the only
    # workload with trimming, mlp1 training and the log codec's write/read.
    "retrain_defense": Workload(
        cycle=(_RETRAIN,),
        writes_run_dir=True,
    ),
}

# Functions the workload never reaches; the traced run reports whether each
# one really has zero calls.
LATENT_ONLY = (
    "attacks.behavior_latent_opt",
    "attacks.refine_latent",
    "attacks.grad_z_fd",
    "attacks.joint_loss",
    "attacks.decode",
)
ZERO_CALLS = {
    "latent_attack": ("defense.trim_round",),
    "attribution_game": LATENT_ONLY + ("defense.trim_round",),
    "retrain_defense": LATENT_ONLY,
}


def op_config(workload: str, seed: int, index: int):
    from fedattr.expcli.config import ExperimentConfig

    cycle = WORKLOADS[workload].cycle
    master_seed = zlib.crc32(f"{workload}:{seed}:{index}".encode("ascii"))
    return ExperimentConfig(**cycle[index % len(cycle)], master_seed=master_seed)


@dataclass
class OpResult:
    index: int
    config: object
    seconds: float
    report: object = None
    loaded: dict | None = None  # phase -> TrainingLog read back from disk
    error: str | None = None


def run_op(workload: str, index: int, cfg, out_root: Path) -> OpResult:
    """Run and time one operation; an exception is recorded, not raised."""
    from fedattr import flcore
    from fedattr.expcli import experiment

    start = time.perf_counter()
    try:
        report = experiment.run_experiment(cfg)
        loaded = None
        if WORKLOADS[workload].writes_run_dir:
            run_dir = experiment.write_run_outputs(report, out_root)
            loaded = {
                phase: flcore.load_log(run_dir / f"{phase}.log.jsonl")
                for phase in ("attack_free", "attacked")
            }
    except Exception:  # one failed operation must not end the run
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return OpResult(index, cfg, seconds, error=traceback.format_exc(limit=1))
    return OpResult(index, cfg, time.perf_counter() - start, report, loaded)


def digest(report) -> str:
    """Hash of the report payload, diagnostics and every logged vector."""
    from fedattr.expcli.experiment import report_payload

    h = hashlib.sha256(json.dumps(report_payload(report), sort_keys=True).encode())
    h.update(json.dumps(report.diagnostics, sort_keys=True).encode())
    for log in (report.attack_free_log, report.attacked_log):
        for rec in log.rounds:
            for vec in (rec.w_t, *rec.updates, rec.w_next):
                h.update(vec.tobytes())
    return h.hexdigest()


def _same_vector(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def logs_identical(a, b) -> bool:
    """Every vector, scalar and trim decision equal bit for bit."""
    if (a.fingerprint, a.final_utility, len(a.rounds)) != (
        b.fingerprint,
        b.final_utility,
        len(b.rounds),
    ):
        return False
    for ra, rb in zip(a.rounds, b.rounds):
        if (ra.t, ra.n, ra.test_utility_after) != (rb.t, rb.n, rb.test_utility_after):
            return False
        va, vb = (ra.w_t, *ra.updates, ra.w_next), (rb.w_t, *rb.updates, rb.w_next)
        if len(va) != len(vb) or not all(map(_same_vector, va, vb)):
            return False
        if (ra.trim is None) != (rb.trim is None):
            return False
        if ra.trim is not None and not (
            (ra.trim.t, ra.trim.trimmed, ra.trim.kept)
            == (rb.trim.t, rb.trim.trimmed, rb.trim.kept)
            and _same_vector(ra.trim.distances, rb.trim.distances)
        ):
            return False
    return True


def check(result: OpResult) -> list[str]:
    """Correctness problems of one finished operation (empty when correct)."""
    from fedattr import flcore
    from fedattr.expcli import experiment

    if result.error is not None:
        return [f"raised: {result.error.strip()}"]
    report, cfg = result.report, result.config
    logs = {"attack_free": report.attack_free_log, "attacked": report.attacked_log}
    problems = []
    if list(report.evaluations) != list(cfg.evaluator_list):
        problems.append(f"evaluators {list(report.evaluations)}")
    scenario = None
    for name, by_phase in report.evaluations.items():
        if sorted(by_phase) != sorted(logs):
            problems.append(f"{name}: phases {sorted(by_phase)}")
            continue
        for phase, rep in by_phase.items():
            n = len(rep.raw)
            if abs(float(rep.shares.sum()) - 1.0) > SHARE_SUM_TOL:
                problems.append(f"{name}/{phase}: shares sum to {rep.shares.sum()!r}")
            if sorted(int(r) for r in rep.ranks) != list(range(1, n + 1)):
                problems.append(f"{name}/{phase}: ranks {rep.ranks.tolist()}")
            if cfg.defense_mode == "off" and name in EFFICIENT_EVALUATORS:
                if scenario is None:
                    scenario = experiment.build_scenario(cfg)
                log = logs[phase]
                u_w1 = flcore.utility(scenario.spec, log.rounds[0].w_t, scenario.test)
                gap = float(rep.raw.sum()) - (log.final_utility - u_w1)
                if abs(gap) > EFFICIENCY_TOL:
                    problems.append(f"{name}/{phase}: efficiency gap {gap!r}")
    if result.loaded is not None:
        for phase, log in logs.items():
            if not logs_identical(log, result.loaded[phase]):
                problems.append(f"{phase}: log read back differs from the run")
    return problems
