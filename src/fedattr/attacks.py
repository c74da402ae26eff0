"""Adversarial client behaviors.

Baselines (label flip, random noise, free riding, direct reference
alignment) and the latent-optimization attack: a frozen affine decoder turns
a per-sample latent matrix into synthetic inputs for underrepresented
classes, the latents are refined by descent on a joint
direction/norm/cross-entropy loss against the observable global descent
direction, and the client then trains on its real shard mixed with the
decoded batch.  The reported update is norm-clipped to the configured
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import ClientShard, coverage_stats
from .flcore import RoundContext, benign
from .models import (
    LabeledBatch,
    ModelSpec,
    _layers,
    _softmax,
    _views,
    concat_batches,
    loss_and_grad,
)

# Attack name -> its behavior's name in this module, looked up when a run
# builds its attacker, so a rebinding of that name (a tracer) is what runs.
BEHAVIORS = {
    "attack_free": "benign",
    "label_flip": "behavior_label_flip",
    "random_noise": "behavior_random_noise",
    "free_rider": "behavior_free_rider",
    "direct_ref": "behavior_direct_ref",
    "latent_opt": "behavior_latent_opt",
}

# --- baseline behaviors -----------------------------------------------------


def flip_labels(shard: ClientShard) -> LabeledBatch:
    """Copy of the shard's data with every label cyclically shifted by one."""
    c = len(shard.class_counts)
    return LabeledBatch(shard.data.inputs, (shard.data.labels + 1) % c)


def behavior_label_flip(ctx: RoundContext, state: Any):
    """Trains on its shard with every label shifted by one."""
    update = yield flip_labels(ctx.shard)
    return update, state, None


def behavior_random_noise(ctx: RoundContext, state: Any, sigma_rel: float):
    """Benign update plus Gaussian noise with total std sigma_rel * ||update||."""
    if sigma_rel < 0:
        raise ValueError("sigma_rel must be non-negative")
    u, state, _ = yield from benign(ctx, state)
    if sigma_rel == 0.0:
        return u, state, None
    dim = u.size
    scale = sigma_rel * float(np.linalg.norm(u)) / math.sqrt(dim)
    return u + scale * ctx.rng.standard_normal(dim), state, None


def behavior_free_rider(ctx: RoundContext, state: Any) -> tuple[np.ndarray, Any, None]:
    """Replay of the previous global step; zero before any step exists."""
    if ctx.w_prev is None:
        return np.zeros_like(ctx.w_t), state, None
    return ctx.w_t - ctx.w_prev, state, None


def behavior_direct_ref(ctx: RoundContext, state: Any):
    """Benign-norm update rotated onto the observable global descent direction."""
    u, state, _ = yield from benign(ctx, state)
    if ctx.w_prev is None:
        return u, state, None
    ref = ctx.w_t - ctx.w_prev
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        return u, state, None
    return float(np.linalg.norm(u)) * ref / ref_norm, state, None


# --- decoder ----------------------------------------------------------------


@dataclass(frozen=True)
class Decoder:
    """Frozen affine generator: decode(z, y) = prototype[y] + W @ z."""

    W: np.ndarray  # (input_dim, latent_dim)
    prototypes: np.ndarray  # (num_classes, input_dim)

    def __post_init__(self) -> None:
        for arr in (self.W, self.prototypes):
            arr.setflags(write=False)

    @property
    def latent_dim(self) -> int:
        return self.W.shape[1]

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]


def calibrate_decoder(
    pool: LabeledBatch, latent_dim: int, seed: int, num_classes: int
) -> Decoder:
    """Fit prototypes from a calibration pool and freeze a random linear map.

    The map is scaled so a standard-normal latent decodes about half the mean
    pairwise prototype distance away from its class prototype.
    """
    if latent_dim < 1:
        raise ValueError("latent_dim must be positive")
    protos = np.empty((num_classes, pool.inputs.shape[1]))
    for cls in range(num_classes):
        rows = pool.inputs[pool.labels == cls]
        if len(rows) == 0:
            raise ValueError(f"calibration pool has no samples of class {cls}")
        protos[cls] = rows.mean(axis=0)

    dists = [
        float(np.linalg.norm(protos[a] - protos[b]))
        for a in range(num_classes)
        for b in range(a + 1, num_classes)
    ]
    target = 0.5 * float(np.mean(dists)) if dists else 1.0
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((pool.inputs.shape[1], latent_dim))
    w *= target / float(np.linalg.norm(w))
    return Decoder(W=w, prototypes=protos)


def decode(dec: Decoder, z: np.ndarray, labels: np.ndarray) -> LabeledBatch:
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] != len(labels):
        raise ValueError("one latent row per label required")
    if len(labels) and (labels.min() < 0 or labels.max() >= dec.num_classes):
        raise ValueError("label out of range")
    inputs = dec.prototypes[labels] + z @ dec.W.T
    return LabeledBatch(inputs, labels)


def select_targets(shard: ClientShard, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Labels drawn from the shard's missing/underrepresented classes."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    missing, under = coverage_stats(shard)
    candidates = sorted(missing | under)
    if not candidates:
        candidates = list(range(len(shard.class_counts)))
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
    hidden, w, logits = _layers(spec, w_t[None], x)
    p = _softmax(logits[0])
    delta = p.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    def softmax_vjp(a: np.ndarray) -> np.ndarray:
        # rows of J_i a_i / n with J_i = diag(p_i) - p_i p_i^T
        return p * (a - np.sum(p * a, axis=1, keepdims=True)) / n

    if spec.kind == "logistic":
        vw, vb = _views(spec, v)
        grad_x = softmax_vjp(x @ vw.T + vb) @ w[0] + delta @ (vw + w[0])
    else:
        w1, w2, h = _views(spec, w_t)[0], w[0], hidden[0]
        v1, vb1, v2, vb2 = _views(spec, v)
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


def effective_alpha(shard_size: int, synth_batch: int) -> float:
    """Realized synthetic fraction of the hybrid training set; 1.0 on an
    empty shard, which trains on the decoded rows alone."""
    if shard_size < 0 or shard_size + synth_batch < 1:
        raise ValueError(f"no hybrid set of {shard_size} shard and {synth_batch} synthetic rows")
    return synth_batch / (shard_size + synth_batch)


def refine_latent(
    z: np.ndarray,
    spec: ModelSpec,
    w_t: np.ndarray,
    dec: Decoder,
    labels: np.ndarray,
    g_ref: np.ndarray,
    eta_z: float,
) -> np.ndarray:
    """One descent step on the joint loss in latent space; returns the new z."""
    z = z - eta_z * grad_z(spec, w_t, dec, z, labels, g_ref)
    if not np.all(np.isfinite(z)):
        raise ValueError("latent matrix must be finite")
    return z


def behavior_latent_opt(
    ctx: RoundContext,
    z: np.ndarray | None,
    *,
    dec: Decoder,
    kappa: float,
    latent_steps: int,
    synth_batch: int,
    eta_z: float,
):
    """One round of the latent-optimization attack; its state is the
    (synth_batch, dec.latent_dim) latent matrix.

    Warm-starts the latent matrix (fresh Gaussian at the start of a run),
    refines it against the observable global step w_t - w_{t-1} with labels
    re-selected each refinement step, yields the real shard mixed with the
    decoded batch for training, clips the update norm to kappa, and keeps
    the latent for the next round.  With synth_batch == 0 the behavior short-circuits
    to a plain benign update, so intensity 0 is a benign client exactly.
    """
    if synth_batch == 0:
        update, z, _ = yield from benign(ctx, z)
        return update, z, {"effective_alpha": 0.0, "clipped": False}

    spec, w_t, shard, rng = ctx.spec, ctx.w_t, ctx.shard, ctx.rng
    if z is None:
        z = rng.standard_normal((synth_batch, dec.latent_dim))

    g_ref = np.zeros_like(w_t) if ctx.w_prev is None else w_t - ctx.w_prev
    labels: np.ndarray | None = None
    if float(np.linalg.norm(g_ref)) > 0.0:
        for _ in range(latent_steps):
            labels = select_targets(shard, synth_batch, rng)
            z = refine_latent(z, spec, w_t, dec, labels, g_ref, eta_z)
    if labels is None:
        labels = select_targets(shard, synth_batch, rng)

    update = yield concat_batches(shard.data, decode(dec, z, labels))

    clipped = False
    norm = float(np.linalg.norm(update))
    if norm > kappa:
        update = update * (kappa / norm)
        clipped = True

    parts = joint_loss(spec, w_t, dec, z, labels, g_ref)
    diag = {
        "l1": parts.l1,
        "l2": parts.l2,
        "l3": parts.l3,
        "effective_alpha": effective_alpha(shard.n_i, synth_batch),
        "clipped": clipped,
        "update_norm": float(np.linalg.norm(update)),
    }
    return update, z, diag
