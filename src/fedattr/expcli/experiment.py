"""Paired attack-free/attacked experiment runs and their reports.

The attack-free phase doubles as calibration: it fixes the malicious client
(by attack-free rank) and the norm budget kappa (a multiple of the median
benign update norm).  Both phases share one master seed, so benign clients'
RNG streams are identical and any attribution delta is attributable to the
attacker alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .. import attacks, attribution, data, flcore, streams
from ..defense import DetectionScore, detection_metrics, plausibility_check
from ..models import LabeledBatch, ModelSpec
from .config import ConfigError, ExperimentConfig

SWEEP_AXES = ("num_clients", "target_rank", "intensity")


@dataclass(frozen=True)
class Scenario:
    """Materialized inputs shared by both phases of a run."""

    spec: ModelSpec
    shards: list[data.ClientShard]
    test: LabeledBatch
    decoder: attacks.Decoder
    hp: flcore.LocalHP


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    fingerprint: str
    malicious_id: int
    u0: float
    u1: float
    utility_within_delta: bool
    evaluations: dict[str, dict[str, attribution.AttributionReport]]
    detection: DetectionScore | None
    plausibility_flags: int
    plausibility_max: float
    kappa: float
    diagnostics: list[dict]
    attack_free_log: flcore.TrainingLog
    attacked_log: flcore.TrainingLog

    def target_share(self, evaluator: str, phase: str) -> float:
        return float(self.evaluations[evaluator][phase].shares[self.malicious_id])

    def target_rank(self, evaluator: str, phase: str) -> int:
        return int(self.evaluations[evaluator][phase].ranks[self.malicious_id])


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    dataset = data.DatasetSpec(
        generator=cfg.generator,
        num_classes=cfg.num_classes,
        input_dim=cfg.input_dim,
        samples_per_class=cfg.samples_per_class,
        class_separation=cfg.class_separation,
        noise_scale=cfg.noise_scale,
        seed=streams.child_seed(cfg.master_seed, "dataset"),
    )
    train, test = data.synthesize(dataset)
    partition = data.PartitionSpec(
        num_clients=cfg.num_clients,
        classes_per_client=cfg.classes_per_client,
        samples_per_client=cfg.samples_per_client,
        seed=streams.child_seed(cfg.master_seed, "partition"),
    )
    shards = data.partition_noniid(train, partition, cfg.num_classes)

    # Public calibration pool for the frozen decoder; disjoint stream, same domain.
    pool, _ = data.synthesize(
        replace(
            dataset,
            samples_per_class=cfg.pool_samples_per_class,
            seed=streams.child_seed(cfg.master_seed, "decoder_pool"),
        )
    )
    decoder = attacks.calibrate_decoder(
        pool,
        cfg.latent_dim,
        streams.child_seed(cfg.master_seed, "decoder"),
        num_classes=cfg.num_classes,
    )

    spec = ModelSpec(
        kind=cfg.model_kind,
        input_dim=cfg.input_dim,
        num_classes=cfg.num_classes,
        hidden_dim=cfg.hidden_dim,
    )
    hp = flcore.LocalHP(
        epochs=cfg.local_epochs, batch_size=cfg.batch_size, eta_w=cfg.local_lr
    )
    return Scenario(spec=spec, shards=shards, test=test, decoder=decoder, hp=hp)


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


def _make_attack_behavior(
    cfg: ExperimentConfig, scenario: Scenario, kappa: float
) -> flcore.Behavior:
    spec = scenario.spec
    if cfg.attack == "attack_free":
        return flcore.BenignBehavior(spec)
    if cfg.attack == "label_flip":
        return attacks.LabelFlipBehavior(spec)
    if cfg.attack == "random_noise":
        return attacks.RandomNoiseBehavior(spec, cfg.sigma_rel)
    if cfg.attack == "free_rider":
        return attacks.FreeRiderBehavior()
    if cfg.attack == "direct_ref":
        return attacks.DirectRefBehavior(spec)
    budgets = attacks.Budgets(
        delta=cfg.delta,
        eps=cfg.eps,
        kappa=kappa,
        c_max=spec.param_count,
    )
    hyper = attacks.LatentHP(
        latent_dim=cfg.latent_dim,
        latent_steps=cfg.latent_steps,
        synth_batch=cfg.synth_batch,
        eta_z=cfg.latent_lr,
    )
    return attacks.LatentOptBehavior(
        spec, scenario.decoder, budgets, hyper, intensity=cfg.intensity
    )


def _evaluate(
    name: str,
    cfg: ExperimentConfig,
    scenario: Scenario,
    log: flcore.TrainingLog,
    flcfg: flcore.FLConfig,
) -> attribution.AttributionReport:
    if name == "fedsv_exact":
        return attribution.fedsv(log, scenario.spec, scenario.test, mode="exact")
    if name == "fedsv_mc":
        return attribution.fedsv(
            log,
            scenario.spec,
            scenario.test,
            mode="mc",
            num_permutations=cfg.mc_permutations,
            seed=cfg.mc_seed,
        )
    if name == "loo_round":
        return attribution.loo_round(log, scenario.spec, scenario.test)
    if name == "loo_retrain":
        return attribution.loo_retrain_report(flcfg)
    raise ConfigError(f"unknown evaluator {name!r}")


def _median_benign_norm(log: flcore.TrainingLog) -> float:
    norms = [
        float(np.linalg.norm(u)) for rec in log.rounds for u in rec.updates
    ]
    return float(np.median(norms))


def run_experiment(cfg: ExperimentConfig, out_dir: Path | None = None) -> ExperimentReport:
    """Attack-free run, target selection, attacked run, evaluation, verdicts."""
    scenario = build_scenario(cfg)
    fingerprint = cfg.fingerprint

    def fl_config(behaviors) -> flcore.FLConfig:
        return flcore.FLConfig(
            spec=scenario.spec,
            shards=scenario.shards,
            behaviors=behaviors,
            hp=scenario.hp,
            rounds=cfg.rounds,
            test=scenario.test,
            master_seed=cfg.master_seed,
            defense_mode=cfg.defense_mode,
            trim_tau=cfg.trim_tau,
            fingerprint=fingerprint,
        )

    benign = [flcore.BenignBehavior(scenario.spec) for _ in scenario.shards]
    free_cfg = fl_config(benign)
    free_log = flcore.run_training(free_cfg)

    evaluations: dict[str, dict[str, attribution.AttributionReport]] = {}
    for name in cfg.evaluator_list:
        evaluations[name] = {
            "attack_free": _evaluate(name, cfg, scenario, free_log, free_cfg)
        }

    primary = cfg.evaluator_list[0]
    malicious_id = select_malicious(
        evaluations[primary]["attack_free"], cfg.target_rule, cfg.target_rank
    )

    kappa = (
        cfg.kappa_mult * _median_benign_norm(free_log)
        if cfg.kappa_mult > 0
        else float("inf")
    )
    attack_behavior = _make_attack_behavior(cfg, scenario, kappa)
    attacked_behaviors = [
        attack_behavior if shard.client_id == malicious_id else flcore.BenignBehavior(scenario.spec)
        for shard in scenario.shards
    ]
    attacked_cfg = fl_config(attacked_behaviors)
    attacked_log = flcore.run_training(attacked_cfg)

    for name in cfg.evaluator_list:
        evaluations[name]["attacked"] = _evaluate(
            name, cfg, scenario, attacked_log, attacked_cfg
        )

    # communication budget: update length never exceeds the parameter count
    c_max = scenario.spec.param_count
    assert all(
        len(u) <= c_max for rec in attacked_log.rounds for u in rec.updates
    ), "communication budget exceeded"

    flags = 0
    max_dev = 0.0
    for rec in attacked_log.rounds:
        others = [u for i, u in enumerate(rec.updates) if i != malicious_id]
        res = plausibility_check(rec.updates[malicious_id], others, cfg.eps)
        flags += int(res.flagged)
        max_dev = max(max_dev, res.distance)

    detection = None
    if cfg.defense_mode != "off":
        decisions = [rec.trim for rec in attacked_log.rounds if rec.trim is not None]
        detection = detection_metrics(decisions, {malicious_id})

    diagnostics = getattr(attack_behavior, "diagnostics", [])
    report = ExperimentReport(
        config=cfg,
        fingerprint=fingerprint,
        malicious_id=malicious_id,
        u0=free_log.final_utility,
        u1=attacked_log.final_utility,
        utility_within_delta=abs(attacked_log.final_utility - free_log.final_utility)
        <= cfg.delta,
        evaluations=evaluations,
        detection=detection,
        plausibility_flags=flags,
        plausibility_max=max_dev,
        kappa=kappa,
        diagnostics=diagnostics,
        attack_free_log=free_log,
        attacked_log=attacked_log,
    )
    if out_dir is not None:
        write_run_outputs(report, Path(out_dir))
    return report


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
        "fingerprint": report.fingerprint,
        "config": dict(sorted(asdict(report.config).items())),
        "malicious_id": report.malicious_id,
        "u0": report.u0,
        "u1": report.u1,
        "delta": report.config.delta,
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
        "plausibility_flags": report.plausibility_flags,
        "plausibility_max": report.plausibility_max,
        "kappa": report.kappa,
    }


def write_run_outputs(report: ExperimentReport, out_dir: Path) -> Path:
    """Write config, logs, CSV, JSON report, diagnostics, and plots for one run."""
    from . import plots

    run_dir = out_dir / f"run_{report.fingerprint}_{report.config.attack}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(report.config.canonical())
    flcore.save_log(report.attack_free_log, run_dir / "attack_free.log.jsonl")
    flcore.save_log(report.attacked_log, run_dir / "attacked.log.jsonl")

    rows = []
    for name, phases in report.evaluations.items():
        for phase, rep in phases.items():
            rows.append((report.fingerprint, phase, rep))
    attribution.write_report_csv(rows, run_dir / "attribution.csv")

    payload = report_payload(report)
    (run_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n"
    )
    if report.detection is not None:
        with open(run_dir / "detection.csv", "w") as fh:
            fh.write("run_id,defense_mode,precision,recall,f1\n")
            fh.write(
                f"{report.fingerprint},{report.config.defense_mode},"
                f"{report.detection.precision!r},{report.detection.recall!r},"
                f"{report.detection.f1!r}\n"
            )
    with open(run_dir / "diagnostics.jsonl", "w") as fh:
        for diag in report.diagnostics:
            fh.write(json.dumps(diag, sort_keys=True) + "\n")
    plots.emit_run_plots(payload, run_dir / "plots")
    return run_dir


def sweep(
    cfg: ExperimentConfig, axis: str, values: list, out_dir: Path | None = None
) -> list[ExperimentReport]:
    """One paired run per axis value, sharing the base master seed."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    # every point is validated before the first one trains
    if axis == "num_clients":
        points = [cfg.override(num_clients=int(v)) for v in values]
    elif axis == "target_rank":
        points = [cfg.override(target_rule="rank_k", target_rank=int(v)) for v in values]
    else:
        points = [cfg.override(intensity=float(v)) for v in values]
    reports = [run_experiment(point, out_dir) for point in points]
    if out_dir is not None:
        write_sweep_summary(reports, axis, values, Path(out_dir))
    return reports


def write_sweep_summary(
    reports: list[ExperimentReport], axis: str, values: list, out_dir: Path
) -> Path:
    from . import plots

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"sweep_{axis}.csv"
    with open(path, "w") as fh:
        fh.write(
            "axis,value,run_id,evaluator,malicious_id,"
            "share_before,share_after,u0,u1\n"
        )
        for value, report in zip(values, reports):
            for name in report.evaluations:
                fh.write(
                    f"{axis},{value},{report.fingerprint},{name},"
                    f"{report.malicious_id},"
                    f"{report.target_share(name, 'attack_free')!r},"
                    f"{report.target_share(name, 'attacked')!r},"
                    f"{report.u0!r},{report.u1!r}\n"
                )
    plots.emit_sweep_plots(
        [report_payload(r) for r in reports], axis, values, out_dir / "plots"
    )
    return path
