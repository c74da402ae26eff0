"""Acceptance checks: exact oracle verification plus directional reproduction
of the attribution-manipulation findings on the default desk-scale scenario.

Each criterion returns a pass/fail result with a one-line detail string; the
CLI `check` verb and the pytest acceptance module both run these.
Scenario-level criteria use five paired seeds and compare medians.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import attacks, attribution, models, oracles
from .config import ExperimentConfig
from .experiment import run_experiment, write_run_outputs

SEEDS = (101, 202, 303, 404, 505)

DEFAULT = ExperimentConfig(
    evaluators="fedsv_exact,loo_round",
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


class _Battery:
    """Lazily computed, memoized experiment runs shared across criteria."""

    def __init__(self, base: ExperimentConfig = DEFAULT):
        self.base = base
        self._cache: dict[tuple, object] = {}

    def run(self, **overrides):
        # overrides equal to the base value share the base run's cache entry
        key = tuple(
            sorted(
                (k, v) for k, v in overrides.items() if getattr(self.base, k) != v
            )
        )
        if key not in self._cache:
            self._cache[key] = run_experiment(self.base.override(**overrides))
        return self._cache[key]

    def per_seed(self, **overrides):
        return [self.run(master_seed=s, **overrides) for s in SEEDS]


def _timed(fn):
    start = time.perf_counter()
    passed, detail = fn()
    return passed, detail, time.perf_counter() - start


# --- criterion implementations ---------------------------------------------


def _random_game(rng: np.random.Generator, n: int) -> dict[frozenset[int], float]:
    return {
        frozenset(i for i in range(n) if mask >> i & 1): float(rng.normal())
        for mask in range(1 << n)
    }


class _TableGame:
    """Adapter exposing an explicit value table through the CoalitionUtility API."""

    def __init__(self, table: dict[frozenset[int], float], n: int):
        self.table = table
        self.num_clients = n

    def value_mask(self, mask: int) -> float:
        return self.table[frozenset(i for i in range(self.num_clients) if mask >> i & 1)]


def check_shapley_correctness() -> tuple[bool, str]:
    rng = np.random.default_rng(7001)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        table = _random_game(rng, n)
        exact = attribution.shapley_exact(_TableGame(table, n))
        brute = oracles.shapley_bruteforce(table, n)
        worst = max(worst, float(np.max(np.abs(exact - brute))))
    if worst > 1e-12:
        return False, f"oracle disagreement {worst:.2e} > 1e-12"

    # axioms on fresh random games
    axiom_err = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        table = _random_game(rng, n)
        phi = attribution.shapley_exact(_TableGame(table, n))
        full = frozenset(range(n))
        axiom_err = max(
            axiom_err,
            abs(float(phi.sum()) - (table[full] - table[frozenset()])),
        )
        # linearity: phi(v1+v2) = phi(v1)+phi(v2)
        other = _random_game(rng, n)
        combined = {s: table[s] + other[s] for s in table}
        lin = attribution.shapley_exact(_TableGame(combined, n))
        parts = phi + attribution.shapley_exact(_TableGame(other, n))
        axiom_err = max(axiom_err, float(np.max(np.abs(lin - parts))))
    # dummy and symmetry on constructed games
    for n in (3, 4, 5):
        base = _random_game(np.random.default_rng(500 + n), n - 1)
        dummy_table = {}
        for s, v in base.items():
            dummy_table[s] = v
            dummy_table[s | {n - 1}] = v  # player n-1 adds nothing
        phi = attribution.shapley_exact(_TableGame(dummy_table, n))
        axiom_err = max(axiom_err, abs(float(phi[n - 1])))
        # symmetry: value depends on coalition size only, so all players tie
        sym = {s: float(len(s)) ** 1.5 for s in _random_game(rng, n)}
        phi_sym = attribution.shapley_exact(_TableGame(sym, n))
        axiom_err = max(axiom_err, float(phi_sym.max() - phi_sym.min()))
    if axiom_err > 1e-9:
        return False, f"axiom violation {axiom_err:.2e} > 1e-9"
    return True, f"oracle match {worst:.1e}, axioms {axiom_err:.1e}"


def _random_spec(rng: np.random.Generator, trial: int) -> models.ModelSpec:
    """Small random logistic spec on even trials, mlp1 on odd ones."""
    if trial % 2 == 0:
        return models.ModelSpec(
            "logistic",
            input_dim=int(rng.integers(2, 6)),
            num_classes=int(rng.integers(2, 5)),
        )
    return models.ModelSpec(
        "mlp1",
        input_dim=int(rng.integers(2, 5)),
        num_classes=int(rng.integers(2, 4)),
        hidden_dim=int(rng.integers(2, 5)),
    )


def check_gradient_integrity() -> tuple[bool, str]:
    rng = np.random.default_rng(7002)
    worst = 0.0
    for trial in range(100):
        spec = _random_spec(rng, trial)
        params = rng.normal(size=spec.param_count)
        batch = models.LabeledBatch(
            rng.normal(size=(8, spec.input_dim)), rng.integers(0, spec.num_classes, 8)
        )
        _, grad = models.loss_and_grad(spec, params, batch)
        fd = oracles.fd_gradient(
            lambda p: models.loss_and_grad(spec, p, batch)[0], params, 1e-5
        )
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    if worst > 1e-4:
        return False, f"model gradient rel err {worst:.2e} > 1e-4"

    # latent-space finite differences at two step sizes
    pool = models.LabeledBatch(
        np.array([[2.0, 0.0], [-2.0, 0.5], [0.0, 2.0]]), np.array([0, 1, 2])
    )
    dec = attacks.calibrate_decoder(pool, latent_dim=4, seed=5, num_classes=3)
    spec = models.ModelSpec("logistic", input_dim=2, num_classes=3)
    rng2 = np.random.default_rng(7003)
    worst_z = 0.0
    for _ in range(10):
        z = rng2.normal(size=(5, 4))
        labels = rng2.integers(0, 3, 5)
        params = rng2.normal(size=spec.param_count)
        ref = rng2.normal(size=spec.param_count)
        g1 = attacks.grad_z_fd(spec, params, dec, z, labels, ref, step_scale=1e-4)
        g2 = attacks.grad_z_fd(spec, params, dec, z, labels, ref, step_scale=3e-5)
        scale = max(float(np.max(np.abs(g1))), 1e-8)
        worst_z = max(worst_z, float(np.max(np.abs(g1 - g2))) / scale)
    if worst_z > 1e-3:
        return False, f"latent FD cross-check rel err {worst_z:.2e} > 1e-3"

    # analytic latent gradient against finite differences, both model kinds
    rng3 = np.random.default_rng(7005)
    worst_a = 0.0
    for trial in range(20):
        spec = _random_spec(rng3, trial)
        c = spec.num_classes
        pool = models.LabeledBatch(rng3.normal(size=(c, spec.input_dim)), np.arange(c))
        dec = attacks.calibrate_decoder(
            pool, latent_dim=int(rng3.integers(2, 5)), seed=trial, num_classes=c
        )
        z = rng3.normal(size=(6, dec.latent_dim))
        labels = rng3.integers(0, c, 6)
        params = rng3.normal(size=spec.param_count)
        ref = rng3.normal(size=spec.param_count)
        ga = attacks.grad_z(spec, params, dec, z, labels, ref)
        fd = attacks.grad_z_fd(spec, params, dec, z, labels, ref, step_scale=1e-5)
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        worst_a = max(worst_a, float(np.max(np.abs(ga - fd))) / scale)
    if worst_a > 1e-6:
        return False, f"latent analytic-vs-FD rel err {worst_a:.2e} > 1e-6"
    return (
        True,
        f"model grad {worst:.1e}, latent FD {worst_z:.1e},"
        f" latent analytic {worst_a:.1e}",
    )


def check_normalization_contract() -> tuple[bool, str]:
    rng = np.random.default_rng(7004)
    for trial in range(1000):
        n = int(rng.integers(1, 13))
        raw = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=n)
        shares = attribution.normalize_shares(raw)
        if shares.min() < 0:
            return False, f"trial {trial}: negative share"
        if abs(float(shares.sum()) - 1.0) > 1e-9:
            return False, f"trial {trial}: shares sum {shares.sum()!r}"
        if np.all(raw == raw[0]):
            if not np.allclose(shares, 1.0 / n):
                return False, f"trial {trial}: degenerate case not uniform"
        elif shares.min() != 0.0:
            return False, f"trial {trial}: min share {shares.min()!r} != 0"
        if not np.array_equal(
            attribution.rank_clients(shares), attribution.rank_clients(raw)
        ):
            return False, f"trial {trial}: rank order not preserved"
    return True, "1000 random vectors: non-negative, sum 1, min 0, order preserved"


def _median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))


def check_attack_effect(battery: _Battery) -> tuple[bool, str]:
    gains = {}
    shares = {}
    for attack in ("latent_opt", "label_flip", "random_noise", "free_rider"):
        reports = battery.per_seed(attack=attack)
        shares[attack] = _median(
            [r.target_share("fedsv_exact", "attacked") for r in reports]
        )
        gains[attack] = _median(
            [
                r.target_share("fedsv_exact", "attacked")
                - r.target_share("fedsv_exact", "attack_free")
                for r in reports
            ]
        )
    ok_gain = gains["latent_opt"] >= 0.05
    ok_best = all(
        shares["latent_opt"] > shares[a]
        for a in ("label_flip", "random_noise", "free_rider")
    )
    detail = (
        f"latent gain {gains['latent_opt']:+.4f} (need >= +0.05); shares: "
        + ", ".join(f"{a}={shares[a]:.4f}" for a in shares)
    )
    return ok_gain and ok_best, detail


def check_utility_preservation(battery: _Battery) -> tuple[bool, str]:
    latent = battery.per_seed(attack="latent_opt")
    flip = battery.per_seed(attack="label_flip")
    latent_ok = sum(abs(r.u1 - r.u0) <= r.config.delta for r in latent)
    flip_deg = sum((r.u0 - r.u1) > r.config.delta for r in flip)
    detail = (
        f"latent within delta in {latent_ok}/5 seeds (need >=4); "
        f"label flip degrades >delta in {flip_deg}/5 (need >=4)"
    )
    return latent_ok >= 4 and flip_deg >= 4, detail


def check_intensity_monotonicity(battery: _Battery) -> tuple[bool, str]:
    intensities = (0.0, 0.5, 1.0, 2.0, 4.0)
    medians = []
    util_ok = True
    for level in intensities:
        reports = battery.per_seed(attack="latent_opt", intensity=level)
        medians.append(
            _median([r.target_share("fedsv_exact", "attacked") for r in reports])
        )
        if _median([abs(r.u1 - r.u0) for r in reports]) > battery.base.delta:
            util_ok = False

    inversions = [
        max(0.0, medians[i] - medians[i + 1]) for i in range(len(medians) - 1)
    ]
    big = [v for v in inversions if v > 1e-12]
    mono_ok = len(big) <= 1 and all(v <= 0.01 for v in big)

    # 0x must reproduce the attack-free run exactly
    zero = battery.per_seed(attack="latent_opt", intensity=0.0)
    exact_ok = all(
        all(
            np.array_equal(a.w_next, b.w_next)
            and all(np.array_equal(x, y) for x, y in zip(a.updates, b.updates))
            for a, b in zip(r.attack_free_log.rounds, r.attacked_log.rounds)
        )
        for r in zero
    )
    detail = (
        "medians "
        + "->".join(f"{m:.4f}" for m in medians)
        + f"; utility ok={util_ok}; 0x exact={exact_ok}"
    )
    return mono_ok and util_ok and exact_ok, detail


def check_target_rank_asymmetry(battery: _Battery) -> tuple[bool, str]:
    low = battery.per_seed(attack="latent_opt")  # lowest_rank rule = rank N
    high = battery.per_seed(
        attack="latent_opt", target_rule="rank_k", target_rank=1
    )
    gain_low = _median(
        [
            r.target_share("fedsv_exact", "attacked")
            - r.target_share("fedsv_exact", "attack_free")
            for r in low
        ]
    )
    gain_high = _median(
        [
            r.target_share("fedsv_exact", "attacked")
            - r.target_share("fedsv_exact", "attack_free")
            for r in high
        ]
    )
    detail = f"gain rank-N {gain_low:+.4f} vs rank-1 {gain_high:+.4f}"
    return gain_low > gain_high, detail


def check_stealth_vs_trimming(battery: _Battery) -> tuple[bool, str]:
    latent = battery.per_seed(attack="latent_opt", defense_mode="enforce")
    noisy = battery.per_seed(
        attack="random_noise", sigma_rel=2.0, defense_mode="enforce"
    )
    f1_latent = _median([r.detection.f1 for r in latent])
    f1_noise = _median([r.detection.f1 for r in noisy])
    detail = f"latent F1 {f1_latent:.3f} (need <= 0.15); noise F1 {f1_noise:.3f} (need >= 0.5)"
    return f1_latent <= 0.15 and f1_noise >= 0.5, detail


def check_loo_robustness(battery: _Battery) -> tuple[bool, str]:
    reports = battery.per_seed(
        attack="latent_opt", evaluators="loo_round,fedsv_exact"
    )
    gain = _median(
        [
            r.target_share("loo_round", "attacked")
            - r.target_share("loo_round", "attack_free")
            for r in reports
        ]
    )
    detail = f"LOO median gain {gain:+.4f} (need >= +0.03)"
    return gain >= 0.03, detail


def check_determinism() -> tuple[bool, str]:
    cfg = DEFAULT.override(rounds=6, master_seed=SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dirs = []
        for name in ("a", "b"):
            report = run_experiment(cfg)
            dirs.append(write_run_outputs(report, root / name))
        files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
        if files_a != files_b:
            return False, "output file sets differ"
        for rel in files_a:
            if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes():
                return False, f"bytes differ in {rel}"
        return True, f"{len(files_a)} files byte-identical across two runs"


# wall-clock budgets stated by the acceptance criteria, in seconds
_RUNTIME_CAPS = {1: 10.0, 2: 30.0, 4: 600.0}


def run_all(battery: _Battery | None = None) -> list[CriterionResult]:
    battery = battery or _Battery()
    specs = [
        (1, "shapley correctness", check_shapley_correctness),
        (2, "gradient integrity", check_gradient_integrity),
        (3, "normalization contract", check_normalization_contract),
        (4, "attack effect", lambda: check_attack_effect(battery)),
        (5, "utility preservation", lambda: check_utility_preservation(battery)),
        (6, "intensity monotonicity", lambda: check_intensity_monotonicity(battery)),
        (7, "target-rank asymmetry", lambda: check_target_rank_asymmetry(battery)),
        (8, "stealth vs trimming", lambda: check_stealth_vs_trimming(battery)),
        (9, "evaluator robustness (LOO)", lambda: check_loo_robustness(battery)),
        (10, "determinism", check_determinism),
    ]
    results = []
    for number, name, fn in specs:
        passed, detail, seconds = _timed(fn)
        cap = _RUNTIME_CAPS.get(number)
        if cap is not None and seconds > cap:
            passed = False
            detail += f"; exceeded {cap:.0f}s budget"
        results.append(CriterionResult(number, name, passed, detail, seconds))
    return results
