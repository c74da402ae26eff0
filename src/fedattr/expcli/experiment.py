"""Paired attack-free/attacked experiment runs and their reports.

The attack-free phase doubles as calibration: it fixes the malicious client
(by attack-free rank) and the norm budget kappa (a multiple of the median
benign update norm).  Both phases share one master seed, so benign clients'
RNG streams are identical and any attribution delta is attributable to the
attacker alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .. import attacks, attribution, data, flcore, streams
from ..defense import DetectionScore, detection_metrics
from .config import ConfigError, ExperimentConfig

SWEEP_AXES = ("num_clients", "target_rank", "intensity")


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    malicious_id: int
    evaluations: dict[str, dict[str, attribution.AttributionReport]]
    detection: DetectionScore | None
    kappa: float
    attack_free_log: flcore.TrainingLog
    attacked_log: flcore.TrainingLog

    @property
    def u0(self) -> float:
        return self.attack_free_log.final_utility

    @property
    def u1(self) -> float:
        return self.attacked_log.final_utility

    @property
    def utility_within_delta(self) -> bool:
        return abs(self.u1 - self.u0) <= self.config.delta

    @property
    def diagnostics(self) -> list[dict]:
        """The attacker's per-round diagnostics in the attacked log, with t added."""
        return [
            {**rec.diags[self.malicious_id], "t": rec.t}
            for rec in self.attacked_log.rounds
            if rec.diags[self.malicious_id] is not None
        ]

    def target_share(self, evaluator: str, phase: str) -> float:
        return float(self.evaluations[evaluator][phase].shares[self.malicious_id])

    def target_rank(self, evaluator: str, phase: str) -> int:
        return int(self.evaluations[evaluator][phase].ranks[self.malicious_id])


def build_scenario(cfg: ExperimentConfig) -> flcore.FLConfig:
    """The attack-free run of `cfg`: its data, model and training, every
    client `benign`."""
    train, test = data.synthesize(
        cfg.dataset_spec(streams.child_seed(cfg.master_seed, "dataset"))
    )
    partition = cfg.partition_spec(streams.child_seed(cfg.master_seed, "partition"))
    shards = data.partition_noniid(train, partition, cfg.num_classes)
    return flcore.FLConfig(
        spec=cfg.model_spec(),
        shards=shards,
        behaviors=[flcore.benign] * len(shards),
        hp=flcore.LocalHP(
            epochs=cfg.local_epochs, batch_size=cfg.batch_size, eta_w=cfg.local_lr
        ),
        rounds=cfg.rounds,
        test=test,
        master_seed=cfg.master_seed,
        defense_mode=cfg.defense_mode,
        trim_tau=cfg.trim_tau,
        fingerprint=cfg.fingerprint,
    )


def select_malicious(
    report: attribution.AttributionReport, rule: str, k: int = 1
) -> int:
    """Pick the attacked client by its attack-free rank."""
    n = len(report.ranks)
    if rule == "lowest_rank":
        k = n
    elif rule != "rank_k":
        raise ConfigError(f"unknown target rule {rule!r}")
    if not 1 <= k <= n:
        raise ConfigError(f"target rank {k} out of range 1..{n}")
    return int(np.flatnonzero(report.ranks == k)[0])


def _make_attack_behavior(cfg: ExperimentConfig, kappa: float) -> flcore.Behavior:
    behavior = getattr(attacks, attacks.BEHAVIORS[cfg.attack])
    if cfg.attack == "random_noise":
        return partial(behavior, sigma_rel=cfg.sigma_rel)
    if cfg.attack == "latent_opt":
        # Public calibration pool for the frozen decoder; disjoint stream, same domain.
        pool, _ = data.synthesize(
            replace(
                cfg.dataset_spec(streams.child_seed(cfg.master_seed, "decoder_pool")),
                samples_per_class=cfg.pool_samples_per_class,
            )
        )
        decoder = attacks.calibrate_decoder(
            pool,
            cfg.latent_dim,
            streams.child_seed(cfg.master_seed, "decoder"),
            num_classes=cfg.num_classes,
        )
        return partial(
            behavior,
            dec=decoder,
            kappa=kappa,
            latent_steps=cfg.latent_steps,
            synth_batch=cfg.synthetic_rows,
            eta_z=cfg.latent_lr,
        )
    return behavior


def _train_and_evaluate(
    cfg: ExperimentConfig, flcfg: flcore.FLConfig, known: dict[int, float] | None = None
) -> tuple[flcore.TrainingLog, dict[str, attribution.AttributionReport], dict[int, float]]:
    """One phase's log, every configured evaluator's report on it in config
    order, and the final utility of each leave-one-out rerun by client id.
    Under loo_retrain the phase trains with its reruns, except those whose
    final utility `known` holds; otherwise there are no reruns."""
    if "loo_retrain" in cfg.evaluator_list:
        log, retrain, reruns = attribution.loo_retrain_report(flcfg, known)
    else:
        log, retrain, reruns = flcore.run_training(flcfg), None, {}
    logged = [name for name in cfg.evaluator_list if name in attribution.LOGGED_EVALUATORS]
    reports = attribution.evaluate_log(
        log, flcfg.spec, flcfg.test, logged,
        num_permutations=cfg.mc_permutations, seed=cfg.mc_seed,
    )
    reports["loo_retrain"] = retrain  # read only when configured
    return log, {name: reports[name] for name in cfg.evaluator_list}, reruns


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Attack-free run, target selection, attacked run, evaluation, verdicts."""
    free_cfg = build_scenario(cfg)
    free_log, free_reports, free_reruns = _train_and_evaluate(cfg, free_cfg)
    evaluations = {name: {"attack_free": report} for name, report in free_reports.items()}

    primary = cfg.evaluator_list[0]
    malicious_id = select_malicious(
        evaluations[primary]["attack_free"], cfg.target_rule, cfg.target_rank
    )

    benign_norms = [np.linalg.norm(u) for rec in free_log.rounds for u in rec.updates]
    kappa = cfg.kappa_mult * float(np.median(benign_norms)) if cfg.kappa_mult > 0 else np.inf
    attack_behavior = _make_attack_behavior(cfg, kappa)
    attacked_cfg = replace(
        free_cfg,
        behaviors=[
            attack_behavior if shard.client_id == malicious_id else flcore.benign
            for shard in free_cfg.shards
        ],
    )
    # Every client of the attacked phase's rerun without the attacker is
    # benign, so it is the attack-free phase's rerun without that client.
    known = {malicious_id: free_reruns[malicious_id]} if free_reruns else None
    attacked_log, attacked_reports, _ = _train_and_evaluate(cfg, attacked_cfg, known)
    for name, report in attacked_reports.items():
        evaluations[name]["attacked"] = report

    detection = None
    if cfg.defense_mode != "off":
        decisions = [rec.trim for rec in attacked_log.rounds if rec.trim is not None]
        detection = detection_metrics(decisions, {malicious_id})

    return ExperimentReport(
        config=cfg,
        malicious_id=malicious_id,
        evaluations=evaluations,
        detection=detection,
        kappa=kappa,
        attack_free_log=free_log,
        attacked_log=attacked_log,
    )


def report_payload(report: ExperimentReport) -> dict:
    """JSON-ready view of a report with stable structure."""
    evals = {}
    for name, phases in report.evaluations.items():
        evals[name] = {
            phase: {
                "raw": [float(v) for v in rep.raw],
                "shares": [float(v) for v in rep.shares],
                "ranks": [int(v) for v in rep.ranks],
            }
            for phase, rep in phases.items()
        }
        evals[name]["target_share_before"] = report.target_share(name, "attack_free")
        evals[name]["target_share_after"] = report.target_share(name, "attacked")
        evals[name]["target_rank_before"] = report.target_rank(name, "attack_free")
        evals[name]["target_rank_after"] = report.target_rank(name, "attacked")
    return {
        "fingerprint": report.config.fingerprint,
        "config": dict(sorted(asdict(report.config).items())),
        "malicious_id": report.malicious_id,
        "u0": report.u0,
        "u1": report.u1,
        "utility_within_delta": report.utility_within_delta,
        "evaluators": evals,
        "detection": (
            None
            if report.detection is None
            else {
                "precision": report.detection.precision,
                "recall": report.detection.recall,
                "f1": report.detection.f1,
            }
        ),
        # JSON has no infinity: an unbounded budget is null
        "kappa": report.kappa if math.isfinite(report.kappa) else None,
    }


def _write_csv(path: Path, header: str, rows) -> None:
    """`header`, then one line per row, each ended by a bare newline; rows hold
    str, int and float values, and a float is written by repr, so it parses back."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def write_run_outputs(report: ExperimentReport, out_dir: Path) -> Path:
    """Write config, logs, CSV tables, JSON report, diagnostics, and plots for one run."""
    from . import plots

    fingerprint = report.config.fingerprint
    run_dir = out_dir / f"run_{fingerprint}_{report.config.attack}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(report.config.canonical())
    flcore.save_log(report.attack_free_log, run_dir / "attack_free.log.jsonl")
    flcore.save_log(report.attacked_log, run_dir / "attacked.log.jsonl")

    payload = report_payload(report)
    _write_csv(
        run_dir / "attribution.csv",
        "run_id,evaluator,client_id,raw,share,rank,phase",
        (
            (fingerprint, name, i, raw, share, rank, phase)
            for name, view in payload["evaluators"].items()
            for phase in ("attack_free", "attacked")
            for i, (raw, share, rank) in enumerate(
                zip(view[phase]["raw"], view[phase]["shares"], view[phase]["ranks"])
            )
        ),
    )
    (run_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n"
    )
    if report.detection is not None:
        _write_csv(
            run_dir / "detection.csv",
            "run_id,defense_mode,precision,recall,f1",
            [(fingerprint, report.config.defense_mode, *astuple(report.detection))],
        )
    with open(run_dir / "diagnostics.jsonl", "w") as fh:
        for diag in report.diagnostics:
            fh.write(json.dumps(diag, sort_keys=True) + "\n")
    plots.emit_run_plots(payload, run_dir / "plots")
    return run_dir


def sweep(cfg: ExperimentConfig, axis: str, values: list, out_dir: Path) -> list[ExperimentReport]:
    """One paired run per axis value, sharing the base master seed, each
    written under `out_dir` with the sweep's summary."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")

    def whole(v) -> int:
        if not math.isfinite(v) or v != int(v):
            raise ConfigError(f"{axis} takes whole numbers, not {v!r}")
        return int(v)

    # every point is validated before the first one trains
    if axis == "num_clients":
        points = [replace(cfg, num_clients=whole(v)) for v in values]
    elif axis == "target_rank":
        points = [replace(cfg, target_rule="rank_k", target_rank=whole(v)) for v in values]
    else:
        points = [replace(cfg, intensity=float(v)) for v in values]
    reports = []
    for point in points:
        reports.append(run_experiment(point))
        write_run_outputs(reports[-1], out_dir)
    write_sweep_summary(reports, axis, out_dir)
    return reports


def write_sweep_summary(reports: list[ExperimentReport], axis: str, out_dir: Path) -> Path:
    """One CSV row per point and evaluator, keyed by the axis value the point ran with."""
    from . import plots

    payloads = [report_payload(report) for report in reports]
    values = [payload["config"][axis] for payload in payloads]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"sweep_{axis}.csv"
    _write_csv(
        path,
        "axis,value,run_id,evaluator,malicious_id,share_before,share_after,u0,u1",
        (
            (axis, value, payload["fingerprint"], name, payload["malicious_id"],
             view["target_share_before"], view["target_share_after"], payload["u0"],
             payload["u1"])
            for value, payload in zip(values, payloads)
            for name, view in payload["evaluators"].items()
        ),
    )
    plots.emit_sweep_plots(payloads, axis, values, out_dir / "plots")
    return path
