"""Flat key=value experiment configuration.

A config file is plain text, one `key = value` per line, `#` comments
allowed.  Keys map one-to-one onto ExperimentConfig fields; unknown keys are
errors.  A config fully determines a run: its canonical dump is hashed into
the fingerprint recorded in every output file.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from ..attribution import EVALUATORS, EXACT_LIMIT
from ..data import DatasetSpec, PartitionSpec, cycle_demand, train_rows_per_class
from ..flcore import check_setup
from ..models import ModelSpec

ATTACKS = (
    "attack_free",
    "label_flip",
    "random_noise",
    "free_rider",
    "direct_ref",
    "latent_opt",
)
TARGET_RULES = ("lowest_rank", "rank_k")

_MAX = sys.float_info.max
# field -> (lo, hi): checked as lo <= value <= hi, which NaN and +-inf fail.
# The finite float caps keep training and latent refinement inside float64;
# the integer caps bound a run's work and memory (see the README).
_BOUNDS = {
    "class_separation": (0, 1e6),
    "noise_scale": (0, 1e6),
    "input_dim": (1, 1024),
    "num_classes": (2, 100),
    "samples_per_class": (2, 100_000),
    "num_clients": (2, 100),
    "hidden_dim": (0, 1024),
    "rounds": (1, 1000),
    "local_epochs": (1, 100),
    "batch_size": (1, _MAX),
    "local_lr": (0, 1e3),
    "intensity": (0, _MAX),
    "sigma_rel": (0, 1e3),
    "latent_dim": (1, 1024),
    "latent_steps": (0, 1000),
    "synth_batch": (0, _MAX),
    "latent_lr": (-1e3, 1e3),
    "delta": (0, _MAX),
    "eps": (-_MAX, _MAX),
    "kappa_mult": (0, _MAX),
    "pool_samples_per_class": (2, 100_000),
    "mc_permutations": (1, 10_000),
    "master_seed": (0, _MAX),
    "mc_seed": (0, _MAX),
}
# The latent attacker decodes at most this many rows per sample of its shard;
# the default intensity x synth_batch (32 rows) fits any shard.
SYNTH_ROWS_PER_SAMPLE = 32
# Float64 values one run may hold: synthesized inputs (rows x input_dim, for
# the dataset and the latent attacker's decoder pool; 128 MiB) and one
# training log's updates (rounds x clients x parameters; 512 MiB).
MAX_INPUT_VALUES = 1 << 24
MAX_LOGGED_VALUES = 1 << 26


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
        # one spelling per evaluator list, so equal runs share one fingerprint
        object.__setattr__(self, "evaluators", ",".join(self.evaluator_list))
        if self.attack not in ATTACKS:
            raise ConfigError(f"unknown attack {self.attack!r}")
        if self.target_rule not in TARGET_RULES:
            raise ConfigError(f"unknown target rule {self.target_rule!r}")
        if not self.evaluator_list:
            raise ConfigError("evaluators must name at least one evaluator")
        for k, name in enumerate(self.evaluator_list):
            if name not in EVALUATORS:
                raise ConfigError(f"unknown evaluator {name!r}")
            if name in self.evaluator_list[:k]:
                raise ConfigError(f"evaluator {name!r} is listed twice")
        for name, (lo, hi) in _BOUNDS.items():
            value = getattr(self, name)
            if not lo <= value <= hi:
                least = f"at least {lo:g} and " if lo > -_MAX else ""
                most = "finite" if hi == _MAX else f"at most {hi:g}"
                raise ConfigError(f"{name} must be {least}{most}, got {value!r}")
        if self.target_rule == "rank_k" and not 1 <= self.target_rank <= self.num_clients:
            raise ConfigError(
                f"target rank {self.target_rank} out of range 1..{self.num_clients}"
            )
        if "fedsv_exact" in self.evaluator_list and self.num_clients > EXACT_LIMIT:
            raise ConfigError(
                f"{self.num_clients} clients exceeds the fedsv_exact enumeration "
                f"guard ({EXACT_LIMIT}); use fedsv_mc"
            )
        try:  # the setup rule and the specs check their own fields
            check_setup(self.num_clients, self.defense_mode, self.trim_tau)
            if "loo_retrain" in self.evaluator_list:
                try:  # each rerun leaves one client out
                    check_setup(self.num_clients - 1, self.defense_mode, self.trim_tau)
                except ValueError as exc:
                    raise ValueError(f"a loo_retrain rerun without one client: {exc}") from None
            self.dataset_spec(0)  # seed 0 stands in for the run's
            self.model_spec()
            demand = int(cycle_demand(self.partition_spec(0), self.num_classes).max())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        pool = self.pool_samples_per_class if self.attack == "latent_opt" else 0
        rows = max(self.samples_per_class, pool) * self.num_classes
        if rows * self.input_dim > MAX_INPUT_VALUES:
            raise ConfigError(
                f"{rows} synthesized rows x input_dim {self.input_dim} exceed the cap of "
                f"{MAX_INPUT_VALUES} input values"
            )
        params = self.model_spec().param_count
        if self.rounds * self.num_clients * params > MAX_LOGGED_VALUES:
            raise ConfigError(
                f"{self.rounds} rounds x {self.num_clients} clients x {params} parameters "
                f"exceed the cap of {MAX_LOGGED_VALUES} logged update values"
            )
        available = train_rows_per_class(self.samples_per_class)
        if demand > available:
            raise ConfigError(
                f"samples_per_client {self.samples_per_client} needs {demand} "
                f"training samples of one class, but a class has {available}"
            )
        rows = self.intensity * self.synth_batch  # inf when the product overflows
        cap = SYNTH_ROWS_PER_SAMPLE * self.samples_per_client
        if not rows <= cap:
            raise ConfigError(
                f"intensity x synth_batch asks for {rows:g} synthetic rows; the cap is "
                f"{SYNTH_ROWS_PER_SAMPLE} x samples_per_client = {cap}"
            )

    def dataset_spec(self, seed: int) -> DatasetSpec:
        return DatasetSpec(
            generator=self.generator,
            num_classes=self.num_classes,
            input_dim=self.input_dim,
            samples_per_class=self.samples_per_class,
            class_separation=self.class_separation,
            noise_scale=self.noise_scale,
            seed=seed,
        )

    def partition_spec(self, seed: int) -> PartitionSpec:
        return PartitionSpec(
            num_clients=self.num_clients,
            classes_per_client=self.classes_per_client,
            samples_per_client=self.samples_per_client,
            seed=seed,
        )

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            kind=self.model_kind,
            input_dim=self.input_dim,
            num_classes=self.num_classes,
            hidden_dim=self.hidden_dim,
        )

    @property
    def synthetic_rows(self) -> int:
        """Decoded rows the latent attacker adds to its shard each round."""
        return round(self.intensity * self.synth_batch)

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


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """The config a file's text gives, with `overrides` replacing its values
    before the one validation."""
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
        return ExperimentConfig(**{**values, **overrides})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, **overrides) -> ExperimentConfig:
    """`parse_config` of the UTF-8 file at `path`; a file that is missing,
    is a directory or is not UTF-8 raises `ConfigError` naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, **overrides)
