"""Flat key=value experiment configuration.

A config file is plain text, one `key = value` per line, `#` comments
allowed.  Keys map one-to-one onto ExperimentConfig fields; unknown keys are
errors.  A config fully determines a run: its canonical dump is hashed into
the fingerprint recorded in every output file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from ..attribution import EVALUATORS, EXACT_LIMIT

ATTACKS = (
    "attack_free",
    "label_flip",
    "random_noise",
    "free_rider",
    "direct_ref",
    "latent_opt",
)
TARGET_RULES = ("lowest_rank", "rank_k")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    generator: str = "gaussian_blobs"
    num_classes: int = 6
    input_dim: int = 2
    samples_per_class: int = 400
    class_separation: float = 3.0
    noise_scale: float = 1.0
    # partition
    num_clients: int = 6
    classes_per_client: int = 2
    samples_per_client: int = 200
    # model
    model_kind: str = "logistic"
    hidden_dim: int = 0
    # federated training
    rounds: int = 15
    local_epochs: int = 2
    batch_size: int = 32
    local_lr: float = 0.1
    # evaluators (comma-separated; the first one picks the malicious client)
    evaluators: str = "fedsv_exact"
    mc_permutations: int = 200
    mc_seed: int = 0
    # attack
    attack: str = "latent_opt"
    target_rule: str = "lowest_rank"
    target_rank: int = 1
    intensity: float = 1.0
    sigma_rel: float = 1.0
    # latent-optimization hyperparameters
    latent_dim: int = 8
    latent_steps: int = 4
    synth_batch: int = 32
    latent_lr: float = 0.05
    # budgets
    delta: float = 0.02
    eps: float = 0.5
    kappa_mult: float = 3.0  # kappa = mult * median benign update norm; 0 disables
    # defense
    defense_mode: str = "off"
    trim_tau: float = 0.1
    # decoder calibration pool
    pool_samples_per_class: int = 40
    # seeding
    master_seed: int = 1

    def __post_init__(self) -> None:
        if self.attack not in ATTACKS:
            raise ConfigError(f"unknown attack {self.attack!r}")
        if self.target_rule not in TARGET_RULES:
            raise ConfigError(f"unknown target rule {self.target_rule!r}")
        if self.defense_mode not in ("off", "monitor", "enforce"):
            raise ConfigError(f"unknown defense mode {self.defense_mode!r}")
        for name in self.evaluator_list:
            if name not in EVALUATORS:
                raise ConfigError(f"unknown evaluator {name!r}")
        if self.num_clients < 2:
            raise ConfigError("num_clients must be at least 2")
        if self.rounds < 1:
            raise ConfigError("rounds must be at least 1")
        if "fedsv_exact" in self.evaluator_list and self.num_clients > EXACT_LIMIT:
            raise ConfigError(
                f"{self.num_clients} clients exceeds the fedsv_exact enumeration "
                f"guard ({EXACT_LIMIT}); use fedsv_mc"
            )
        if "fedsv_mc" in self.evaluator_list and self.mc_permutations < 1:
            raise ConfigError("mc_permutations must be at least 1")
        if self.defense_mode != "off":
            if not 0.0 < self.trim_tau < 1.0:
                raise ConfigError("trim_tau must be in (0, 1)")
            if (
                self.defense_mode == "enforce"
                and math.ceil(self.trim_tau * self.num_clients) >= self.num_clients
            ):
                raise ConfigError(
                    f"trim_tau {self.trim_tau} trims all {self.num_clients} clients"
                )
        if self.intensity < 0:
            raise ConfigError("intensity must be non-negative")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")

    @property
    def evaluator_list(self) -> tuple[str, ...]:
        return tuple(e.strip() for e in self.evaluators.split(",") if e.strip())

    def canonical(self) -> str:
        """Stable key=value dump used for hashing and for the stored config."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
