"""Adversarial client behaviors.

Baselines (label flip, random noise, free riding, direct reference
alignment) and the latent-optimization attack: a frozen affine decoder turns
a per-sample latent matrix into synthetic inputs for underrepresented
classes, the latents are refined by descent on a joint
direction/norm/cross-entropy loss against the observable global descent
direction, and the client then trains on its real shard mixed with the
decoded batch.  The reported update is norm-clipped to the configured
budget; plausibility against the benign reference set is a server-side
check, since this client never sees other clients' updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import ClientShard, coverage_stats
from .flcore import LocalHP, RoundContext, benign_local_update
from .models import (
    LabeledBatch,
    ModelSpec,
    _views,
    concat_batches,
    forward,
    loss_and_grad,
    sgd_train,
)

# --- baseline behaviors -----------------------------------------------------


def flip_labels(shard: ClientShard) -> LabeledBatch:
    """Copy of the shard's data with every label cyclically shifted by one."""
    c = len(shard.class_counts)
    return LabeledBatch(
        shard.data.inputs, (shard.data.labels + 1) % c, shard.data.num_classes
    )


def behavior_label_flip(
    spec: ModelSpec,
    w_t: np.ndarray,
    shard: ClientShard,
    hp: LocalHP,
    rng: np.random.Generator,
) -> np.ndarray:
    seed = int(rng.integers(0, 2**63))
    trained = sgd_train(
        spec, w_t, flip_labels(shard), hp.epochs, hp.batch_size, hp.eta_w, seed
    )
    return trained - w_t


def behavior_random_noise(
    spec: ModelSpec,
    w_t: np.ndarray,
    shard: ClientShard,
    hp: LocalHP,
    rng: np.random.Generator,
    sigma_rel: float,
) -> np.ndarray:
    """Benign update plus Gaussian noise with total std sigma_rel * ||update||."""
    if sigma_rel < 0:
        raise ValueError("sigma_rel must be non-negative")
    seed = int(rng.integers(0, 2**63))
    u = benign_local_update(spec, w_t, shard, hp, seed)
    if sigma_rel == 0.0:
        return u
    dim = u.size
    scale = sigma_rel * float(np.linalg.norm(u)) / math.sqrt(dim)
    return u + scale * rng.standard_normal(dim)


def behavior_free_rider(
    w_t: np.ndarray, history: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Replay of the previous global step; zero before any step exists."""
    if len(history) < 2:
        return np.zeros_like(w_t)
    return w_t - history[-2]


def behavior_direct_ref(
    spec: ModelSpec,
    w_t: np.ndarray,
    history: tuple[np.ndarray, ...],
    shard: ClientShard,
    hp: LocalHP,
    rng: np.random.Generator,
) -> np.ndarray:
    """Benign-norm update rotated onto the observable global descent direction."""
    seed = int(rng.integers(0, 2**63))
    u = benign_local_update(spec, w_t, shard, hp, seed)
    if len(history) < 2:
        return u
    ref = w_t - history[-2]
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        return u
    return float(np.linalg.norm(u)) * ref / ref_norm


class LabelFlipBehavior:
    def __init__(self, spec: ModelSpec):
        self.spec = spec

    def __call__(self, ctx: RoundContext) -> np.ndarray:
        return behavior_label_flip(self.spec, ctx.w_t, ctx.shard, ctx.hp, ctx.rng)


class RandomNoiseBehavior:
    def __init__(self, spec: ModelSpec, sigma_rel: float = 1.0):
        self.spec = spec
        self.sigma_rel = sigma_rel

    def __call__(self, ctx: RoundContext) -> np.ndarray:
        return behavior_random_noise(
            self.spec, ctx.w_t, ctx.shard, ctx.hp, ctx.rng, self.sigma_rel
        )


class FreeRiderBehavior:
    def __call__(self, ctx: RoundContext) -> np.ndarray:
        return behavior_free_rider(ctx.w_t, ctx.history)


class DirectRefBehavior:
    def __init__(self, spec: ModelSpec):
        self.spec = spec

    def __call__(self, ctx: RoundContext) -> np.ndarray:
        return behavior_direct_ref(
            self.spec, ctx.w_t, ctx.history, ctx.shard, ctx.hp, ctx.rng
        )


# --- decoder ----------------------------------------------------------------


@dataclass(frozen=True)
class Decoder:
    """Frozen affine generator: decode(z, y) = prototype[y] + W @ z."""

    latent_dim: int
    W: np.ndarray  # (input_dim, latent_dim)
    prototypes: np.ndarray  # (num_classes, input_dim)
    scale: float

    def __post_init__(self) -> None:
        for arr in (self.W, self.prototypes):
            arr.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]


def calibrate_decoder(
    pool: LabeledBatch, latent_dim: int, seed: int, num_classes: int | None = None
) -> Decoder:
    """Fit prototypes from a calibration pool and freeze a random linear map.

    The map is scaled so a standard-normal latent decodes about half the mean
    pairwise prototype distance away from its class prototype.
    """
    if latent_dim < 1:
        raise ValueError("latent_dim must be positive")
    c = num_classes if num_classes is not None else int(pool.labels.max()) + 1
    protos = np.empty((c, pool.inputs.shape[1]))
    for cls in range(c):
        rows = pool.inputs[pool.labels == cls]
        if len(rows) == 0:
            raise ValueError(f"calibration pool has no samples of class {cls}")
        protos[cls] = rows.mean(axis=0)

    dists = [
        float(np.linalg.norm(protos[a] - protos[b]))
        for a in range(c)
        for b in range(a + 1, c)
    ]
    target = 0.5 * float(np.mean(dists)) if dists else 1.0
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((pool.inputs.shape[1], latent_dim))
    w *= target / float(np.linalg.norm(w))
    return Decoder(latent_dim=latent_dim, W=w, prototypes=protos, scale=target)


def decode(dec: Decoder, z: np.ndarray, labels: np.ndarray) -> LabeledBatch:
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] != len(labels):
        raise ValueError("one latent row per label required")
    if len(labels) and (labels.min() < 0 or labels.max() >= dec.num_classes):
        raise ValueError("label out of range")
    inputs = dec.prototypes[labels] + z @ dec.W.T
    return LabeledBatch(inputs, labels, dec.num_classes)


def select_targets(
    shard: ClientShard, num_classes: int, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Labels drawn from the shard's missing/underrepresented classes."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    missing, under = coverage_stats(shard, num_classes)
    candidates = sorted(missing | under)
    if not candidates:
        candidates = list(range(num_classes))
    return rng.choice(np.array(candidates, dtype=np.int64), size=batch, replace=True)


# --- joint latent loss --------------------------------------------------------


@dataclass(frozen=True)
class JointLossBreakdown:
    l1: float  # direction: 1 - cosine(synthetic gradient, reference)
    l2: float  # norm gap
    l3: float  # cross-entropy on the decoded batch

    @property
    def total(self) -> float:
        return self.l1 + self.l2 + self.l3


def joint_loss(
    spec: ModelSpec,
    w_t: np.ndarray,
    dec: Decoder,
    z: np.ndarray,
    labels: np.ndarray,
    g_ref: np.ndarray,
) -> JointLossBreakdown:
    batch = decode(dec, z, labels)
    ce, grad = loss_and_grad(spec, w_t, batch)
    gnorm = float(np.linalg.norm(grad))
    rnorm = float(np.linalg.norm(g_ref))
    if gnorm == 0.0 or rnorm == 0.0:
        l1 = 1.0  # orthogonal convention for degenerate vectors
        l2 = gnorm
    else:
        cos = float(np.dot(grad, g_ref)) / (gnorm * rnorm)
        l1 = min(max(1.0 - cos, 0.0), 2.0)
        l2 = abs(gnorm - rnorm)
    return JointLossBreakdown(l1=l1, l2=l2, l3=ce)


def grad_z_fd(
    spec: ModelSpec,
    w_t: np.ndarray,
    dec: Decoder,
    z: np.ndarray,
    labels: np.ndarray,
    g_ref: np.ndarray,
    step_scale: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of the joint loss with respect to z.

    The reference that grad_z is checked against.  Per-coordinate step is
    step_scale * (1 + |z_ij|).
    """
    if step_scale <= 0:
        raise ValueError("step_scale must be positive")
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            h = step_scale * (1.0 + abs(float(z[i, j])))
            hi = z.copy()
            lo = z.copy()
            hi[i, j] += h
            lo[i, j] -= h
            up = joint_loss(spec, w_t, dec, hi, labels, g_ref).total
            down = joint_loss(spec, w_t, dec, lo, labels, g_ref).total
            grad[i, j] = (up - down) / (2.0 * h)
    return grad


def grad_z(
    spec: ModelSpec,
    w_t: np.ndarray,
    dec: Decoder,
    z: np.ndarray,
    labels: np.ndarray,
    g_ref: np.ndarray,
) -> np.ndarray:
    """Closed-form gradient of joint_loss(...).total with respect to z.

    With g = grad_w CE and v = dL/dg (direction and norm terms), the loss
    depends on each decoded row x_i through <v, g> and through CE, so the
    input gradient is one vector-Jacobian product per row, batched, and the
    latent gradient is that pulled back through the decoder map.  Matches
    grad_z_fd, including the degenerate-vector conventions of joint_loss and
    sign(0) = 0 at the norm-gap kink.
    """
    batch = decode(dec, z, labels)
    _, g = loss_and_grad(spec, w_t, batch)
    gnorm = float(np.linalg.norm(g))
    rnorm = float(np.linalg.norm(g_ref))
    if gnorm == 0.0:
        v = np.zeros_like(g)
    elif rnorm == 0.0:
        v = g / gnorm
    else:
        cos = float(np.dot(g, g_ref)) / (gnorm * rnorm)
        v = (
            -g_ref / (gnorm * rnorm)
            + (cos / gnorm**2) * g
            + (np.sign(gnorm - rnorm) / gnorm) * g
        )

    x, n = batch.inputs, len(batch)
    p = forward(spec, w_t, batch)
    delta = p.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    def softmax_vjp(a: np.ndarray) -> np.ndarray:
        # rows of J_i a_i / n with J_i = diag(p_i) - p_i p_i^T
        return p * (a - np.sum(p * a, axis=1, keepdims=True)) / n

    if spec.kind == "logistic":
        w, _ = _views(spec, w_t)
        vw, vb = _views(spec, v)
        grad_x = softmax_vjp(x @ vw.T + vb) @ w + delta @ (vw + w)
    else:
        w1, b1, w2, _ = _views(spec, w_t)
        v1, vb1, v2, vb2 = _views(spec, v)
        h = np.tanh(x @ w1.T + b1)
        s = 1.0 - h * h
        q = delta @ w2  # W2^T delta_i per row
        u = x @ v1.T + vb1
        # <v, g> = sum_i delta_i.(V2 h_i + vb2) + (q_i * s_i).u_i; gamma is its
        # gradient in the logits, dh its gradient in h (tanh' = s = 1 - h^2)
        gamma = softmax_vjp(h @ v2.T + vb2 + (s * u) @ w2.T)
        dh = gamma @ w2 + delta @ v2 - 2.0 * h * q * u
        grad_x = (dh * s) @ w1 + (q * s) @ (v1 + w1)
    return grad_x @ dec.W


# --- latent-optimization attack ----------------------------------------------


@dataclass(frozen=True)
class Budgets:
    delta: float = 0.02  # utility tolerance, checked at run end
    eps: float = 0.5  # plausibility deviation, checked server-side
    kappa: float = math.inf  # update-norm cap, enforced by the client
    c_max: int | None = None  # communication budget; None = parameter count


@dataclass(frozen=True)
class LatentHP:
    latent_dim: int = 8
    latent_steps: int = 4
    synth_batch: int = 16
    eta_z: float = 0.05


@dataclass(frozen=True)
class AttackState:
    """Cross-round adversary state: the latent matrix and the round it was cached."""

    z: np.ndarray  # (synth_batch, latent_dim)
    cached_round: int
    budgets: Budgets
    hyper: LatentHP
    refine_trace: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.z.shape != (self.hyper.synth_batch, self.hyper.latent_dim):
            raise ValueError("latent matrix shape does not match hyperparameters")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("latent matrix must be finite")


def effective_alpha(shard_size: int, synth_batch: int) -> float:
    """Realized synthetic fraction of the hybrid training set."""
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    return synth_batch / (shard_size + synth_batch)


def refine_latent(
    state: AttackState,
    spec: ModelSpec,
    w_t: np.ndarray,
    dec: Decoder,
    labels: np.ndarray,
    g_ref: np.ndarray,
    num_steps: int | None = None,
) -> AttackState:
    """Descend the joint loss in latent space; returns a new state.

    The trace of total-loss values (before each step, plus the final value)
    is recorded on the returned state.
    """
    steps = state.hyper.latent_steps if num_steps is None else num_steps
    if steps < 0:
        raise ValueError("step count must be non-negative")
    z = state.z
    trace = [joint_loss(spec, w_t, dec, z, labels, g_ref).total]
    for _ in range(steps):
        grad = grad_z(spec, w_t, dec, z, labels, g_ref)
        z = z - state.hyper.eta_z * grad
        trace.append(joint_loss(spec, w_t, dec, z, labels, g_ref).total)
    return replace(state, z=z, refine_trace=tuple(trace))


def behavior_latent_opt(
    state: AttackState | None,
    spec: ModelSpec,
    w_t: np.ndarray,
    history: tuple[np.ndarray, ...],
    shard: ClientShard,
    hp: LocalHP,
    rng: np.random.Generator,
    dec: Decoder,
    budgets: Budgets,
    hyper: LatentHP,
) -> tuple[np.ndarray, AttackState | None, dict]:
    """One round of the latent-optimization attack.

    Warm-starts the latent matrix (fresh Gaussian when nothing is cached),
    refines it against the observable global step w_t - w_{t-1} with labels
    re-selected each refinement step, trains on the real shard mixed with
    the decoded batch, clips the update norm to kappa, and caches the latent
    for the next round.  With synth_batch == 0 the behavior short-circuits
    to a plain benign update.
    """
    if hyper.synth_batch == 0:
        return (
            benign_local_update(spec, w_t, shard, hp, int(rng.integers(0, 2**63))),
            state,
            {"effective_alpha": 0.0, "clipped": False},
        )

    num_classes = len(shard.class_counts)
    if state is None:
        z = rng.standard_normal((hyper.synth_batch, hyper.latent_dim))
        state = AttackState(z=z, cached_round=0, budgets=budgets, hyper=hyper)
    t = len(history)
    if t < state.cached_round:
        raise ValueError("rounds must be visited in increasing order")

    g_ref = w_t - history[-2] if len(history) >= 2 else np.zeros_like(w_t)
    labels: np.ndarray | None = None
    if float(np.linalg.norm(g_ref)) > 0.0:
        for _ in range(hyper.latent_steps):
            labels = select_targets(shard, num_classes, hyper.synth_batch, rng)
            state = refine_latent(state, spec, w_t, dec, labels, g_ref, num_steps=1)
    if labels is None:
        labels = select_targets(shard, num_classes, hyper.synth_batch, rng)

    synthetic = decode(dec, state.z, labels)
    combined = concat_batches(shard.data, synthetic)
    seed = int(rng.integers(0, 2**63))
    trained = sgd_train(spec, w_t, combined, hp.epochs, hp.batch_size, hp.eta_w, seed)
    update = trained - w_t

    clipped = False
    norm = float(np.linalg.norm(update))
    if norm > budgets.kappa:
        update = update * (budgets.kappa / norm)
        clipped = True

    parts = joint_loss(spec, w_t, dec, state.z, labels, g_ref)
    diag = {
        "l1": parts.l1,
        "l2": parts.l2,
        "l3": parts.l3,
        "effective_alpha": effective_alpha(shard.n_i, hyper.synth_batch),
        "clipped": clipped,
        "update_norm": float(np.linalg.norm(update)),
    }
    return update, replace(state, cached_round=t), diag


class LatentOptBehavior:
    """Stateful wrapper owning one attacker lifeline (state, decoder, budgets).

    The intensity multiplier rescales the synthetic batch size; intensity 0
    reduces to a benign client exactly.
    """

    def __init__(
        self,
        spec: ModelSpec,
        dec: Decoder,
        budgets: Budgets = Budgets(),
        hyper: LatentHP = LatentHP(),
        intensity: float = 1.0,
    ):
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        self.spec = spec
        self.dec = dec
        self.budgets = budgets
        self.hyper = replace(
            hyper, synth_batch=int(round(intensity * hyper.synth_batch))
        )
        self.state: AttackState | None = None
        self.diagnostics: list[dict] = []

    def __call__(self, ctx: RoundContext) -> np.ndarray:
        update, self.state, diag = behavior_latent_opt(
            self.state,
            self.spec,
            ctx.w_t,
            ctx.history,
            ctx.shard,
            ctx.hp,
            ctx.rng,
            self.dec,
            self.budgets,
            self.hyper,
        )
        diag["t"] = ctx.t
        self.diagnostics.append(diag)
        return update
