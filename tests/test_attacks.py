import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from fedattr import attacks, flcore, models, oracles, streams
from fedattr.attacks import (
    behavior_direct_ref,
    behavior_free_rider,
    behavior_label_flip,
    behavior_latent_opt,
    behavior_random_noise,
    calibrate_decoder,
    decode,
    effective_alpha,
    flip_labels,
    grad_z,
    grad_z_fd,
    joint_loss,
    refine_latent,
    select_targets,
)
from fedattr.data import ClientShard, DatasetSpec, PartitionSpec, partition_noniid, synthesize
from fedattr.expcli.config import ExperimentConfig
from fedattr.expcli.experiment import run_experiment
from fedattr.flcore import LocalHP, RoundContext
from fedattr.models import LabeledBatch, ModelSpec


@pytest.fixture(scope="module")
def scenario():
    dataset = DatasetSpec("gaussian_blobs", 4, 2, 120, 5.0, 1.0, seed=0)
    train, test = synthesize(dataset)
    shards = partition_noniid(train, PartitionSpec(3, 2, 40, seed=1), 4)
    spec = ModelSpec("logistic", input_dim=2, num_classes=4)
    pool, _ = synthesize(
        DatasetSpec("gaussian_blobs", 4, 2, 30, 5.0, 1.0, seed=99)
    )
    dec = calibrate_decoder(pool, latent_dim=4, seed=5, num_classes=4)
    return spec, shards, test, dec


# the latent attack's hyperparameters in these tests
LATENT = dict(latent_steps=4, synth_batch=16, eta_z=0.05)


def rng_for(seed=0):
    return np.random.default_rng(seed)


def ctx_for(scenario, w, rng, w_prev=None, hp=LocalHP()):
    """Round context of client 0: round 1 without w_prev, else round 2."""
    spec, shards, _, _ = scenario
    t = 1 if w_prev is None else 2
    return RoundContext(spec, t, w, w_prev, shards[0], hp, rng)


def benign_update(scenario, w, rng, w_prev=None, hp=LocalHP()):
    """Client 0's `benign` update for the same context, trained alone."""
    return flcore._drive([(ctx_for(scenario, w, rng, w_prev, hp), flcore.benign, None)])[0][0]


# --- baselines ---------------------------------------------------------------


def test_flip_labels_is_cyclic_shift(scenario):
    spec, shards, _, _ = scenario
    shard = shards[0]
    flipped = flip_labels(shard)
    counts = np.bincount(flipped.labels, minlength=4)
    assert list(counts) == list(np.roll(shard.class_counts, 1))
    # binary case degenerates to full inversion
    two = ClientShard.build(
        0, LabeledBatch(np.zeros((4, 2)), np.array([0, 0, 1, 1])), 2
    )
    assert list(flip_labels(two).labels) == [1, 1, 0, 0]


def test_label_flip_update_differs_from_benign(scenario):
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    hp = LocalHP()
    ctx = ctx_for(scenario, w, rng_for(3), hp=hp)
    flip, state, diag = flcore._drive([(ctx, behavior_label_flip, None)])[0]
    assert state is None and diag is None
    assert not np.allclose(flip, benign_update(scenario, w, rng_for(3), hp=hp))


def test_random_noise_zero_sigma_is_benign(scenario):
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    hp = LocalHP()
    noise = partial(behavior_random_noise, sigma_rel=0.0)
    noisy, _, _ = flcore._drive([(ctx_for(scenario, w, rng_for(3), hp=hp), noise, None)])[0]
    assert np.array_equal(noisy, benign_update(scenario, w, rng_for(3), hp=hp))


def test_random_noise_norm_calibration(scenario):
    # over 1000 draws, E||noisy - benign||^2 approaches sigma_rel^2 ||benign||^2
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    hp = LocalHP()
    sigma_rel = 1.5
    ratios = []
    noise = partial(behavior_random_noise, sigma_rel=sigma_rel)
    for trial in range(1000):
        benign = benign_update(scenario, w, rng_for(trial), hp=hp)
        ctx = ctx_for(scenario, w, rng_for(trial), hp=hp)
        noisy, _, _ = flcore._drive([(ctx, noise, None)])[0]
        noise_sq = float(np.linalg.norm(noisy - benign) ** 2)
        ratios.append(noise_sq / float(np.linalg.norm(benign) ** 2))
    assert np.mean(ratios) == pytest.approx(sigma_rel**2, rel=0.1)


def test_random_noise_deterministic_per_seed(scenario):
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    noise = partial(behavior_random_noise, sigma_rel=0.5)
    a, _, _ = flcore._drive([(ctx_for(scenario, w, rng_for(5)), noise, None)])[0]
    b, _, _ = flcore._drive([(ctx_for(scenario, w, rng_for(5)), noise, None)])[0]
    assert np.array_equal(a, b)


def test_free_rider_edge_cases():
    def free_ride(w, w_prev):
        t = 1 if w_prev is None else 2
        ctx = RoundContext(None, t, w, w_prev, None, LocalHP(), None)
        return flcore._drive([(ctx, behavior_free_rider, None)])[0][0]

    w1 = np.array([1.0, 2.0])
    assert np.array_equal(free_ride(w1, None), np.zeros(2))
    # stationary model
    assert np.array_equal(free_ride(w1, w1), np.zeros(2))
    w2 = np.array([1.5, 1.0])
    assert np.array_equal(free_ride(w2, w1), w2 - w1)


def test_direct_ref_properties(scenario):
    spec, shards, _, _ = scenario
    w_prev = models.init_params(spec, 1)
    w = w_prev + 0.1 * rng_for(2).normal(size=spec.param_count)
    u = benign_update(scenario, w, rng_for(4))
    def direct_ref(w_prev):
        ctx = ctx_for(scenario, w, rng_for(4), w_prev)
        return flcore._drive([(ctx, behavior_direct_ref, None)])[0][0]

    out = direct_ref(w_prev)
    ref = w - w_prev
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(u), abs=1e-12)
    cos = out @ ref / (np.linalg.norm(out) * np.linalg.norm(ref))
    assert cos == pytest.approx(1.0, abs=1e-12)
    # first round or zero reference: fall back to the benign update
    assert np.array_equal(direct_ref(None), u)
    assert np.array_equal(direct_ref(w), u)


# --- training steps: oracle and lockstep ----------------------------------------

TRAINING_STEPS = ("label_flip", "random_noise", "direct_ref", "latent_opt")


def training_step(name, dec):
    return {
        "label_flip": behavior_label_flip,
        "random_noise": partial(behavior_random_noise, sigma_rel=1.5),
        "direct_ref": behavior_direct_ref,
        "latent_opt": partial(behavior_latent_opt, dec=dec, kappa=math.inf, **LATENT),
    }[name]


@pytest.mark.parametrize("name", TRAINING_STEPS)
@pytest.mark.parametrize("first_round", [True, False])
def test_training_step_update_matches_the_sgd_oracle(scenario, name, first_round):
    # the step's update, with its yielded training set trained by the
    # per-sample oracle instead of the runner, agrees to 1e-12 relative
    spec, shards, _, dec = scenario
    w_prev = models.init_params(spec, 1)
    w = w_prev + 0.1 * rng_for(2).normal(size=spec.param_count)
    w_prev = None if first_round else w_prev
    step = training_step(name, dec)
    ctx = ctx_for(scenario, w, rng_for(7), w_prev)
    running = step(ctx, None)
    batch = next(running)
    data = shards[0].data
    if name == "label_flip":
        assert np.array_equal(batch.labels, flip_labels(shards[0]).labels)
    elif name == "latent_opt":
        assert len(batch) == len(data) + LATENT["synth_batch"]
        assert np.array_equal(batch.inputs[: len(data)], data.inputs)
    else:
        assert batch is data
    hp, seed = ctx.hp, int(ctx.rng.integers(0, 2**63))  # the runner's draw
    trained = oracles.sgd_train(spec, w, batch, hp.epochs, hp.batch_size, hp.eta_w, seed)
    with pytest.raises(StopIteration) as done:
        running.send(trained - w)
    expected = done.value.value[0]
    update = flcore._drive([(ctx_for(scenario, w, rng_for(7), w_prev), step, None)])[0][0]
    assert np.linalg.norm(update - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", TRAINING_STEPS)
def test_training_step_is_bit_identical_alone_and_in_lockstep(scenario, name):
    # inside run_training_many the step's training set shares lockstep calls
    # with other clients and runs; driven alone through `flcore._drive` (one
    # `sgd_train` per round) it gives the same update, diag and state chain
    spec, shards, test, dec = scenario
    step = training_step(name, dec)
    cfg = flcore.FLConfig(
        spec=spec, shards=shards, behaviors=[step, flcore.benign, flcore.benign],
        hp=LocalHP(), rounds=3, test=test, master_seed=4,
    )
    other = dataclasses.replace(cfg, behaviors=[step] * 3, master_seed=5)
    log = flcore.run_training_many([other, cfg, cfg.without_client(1)])[1]
    state, w_prev = None, None
    for rec in log.rounds:
        rng = streams.stream(cfg.master_seed, "client", shards[0].client_id, rec.t)
        ctx = RoundContext(spec, rec.t, rec.w_t, w_prev, shards[0], cfg.hp, rng)
        update, state, diag = flcore._drive([(ctx, step, state)])[0]
        assert update.tobytes() == rec.updates[0].tobytes()
        assert diag == rec.diags[0]
        w_prev = rec.w_t


# --- decoder -----------------------------------------------------------------


def test_decoder_prototypes_from_single_sample_pool():
    pool = LabeledBatch(np.array([[1.0, 2.0], [-3.0, 0.0]]), np.array([0, 1]))
    dec = calibrate_decoder(pool, latent_dim=3, seed=0, num_classes=2)
    assert np.array_equal(dec.prototypes, pool.inputs)


def test_decode_zero_latent_hits_prototype(scenario):
    _, _, _, dec = scenario
    labels = np.array([0, 2, 3])
    out = decode(dec, np.zeros((3, dec.latent_dim)), labels)
    assert np.allclose(out.inputs, dec.prototypes[labels])
    assert np.array_equal(out.labels, labels)


def test_decode_is_affine(scenario):
    _, _, _, dec = scenario
    rng = rng_for(1)
    z = rng.normal(size=(4, dec.latent_dim))
    labels = np.array([0, 1, 2, 3])
    base = decode(dec, np.zeros_like(z), labels).inputs
    one = decode(dec, z, labels).inputs
    two = decode(dec, 2 * z, labels).inputs
    assert np.allclose(two - base, 2 * (one - base), atol=1e-12)


def test_decoder_deterministic_and_frozen(scenario):
    pool = LabeledBatch(np.array([[1.0, 2.0], [-3.0, 0.0]]), np.array([0, 1]))
    a = calibrate_decoder(pool, latent_dim=3, seed=4, num_classes=2)
    b = calibrate_decoder(pool, latent_dim=3, seed=4, num_classes=2)
    assert np.array_equal(a.W, b.W)
    with pytest.raises(ValueError):
        a.W[0, 0] = 1.0


def test_decoder_missing_class_rejected():
    pool = LabeledBatch(np.array([[1.0, 2.0]]), np.array([0]))
    with pytest.raises(ValueError):
        calibrate_decoder(pool, latent_dim=2, seed=0, num_classes=2)


def test_decode_label_out_of_range(scenario):
    _, _, _, dec = scenario
    with pytest.raises(ValueError):
        decode(dec, np.zeros((1, dec.latent_dim)), np.array([9]))


def test_decoder_scale_matches_expected_offset_norm(scenario):
    # a standard-normal latent lands about half the mean pairwise prototype
    # distance away from its prototype
    _, _, _, dec = scenario
    protos = dec.prototypes
    pairs = [(a, b) for a in range(len(protos)) for b in range(a + 1, len(protos))]
    half_mean = 0.5 * np.mean([np.linalg.norm(protos[a] - protos[b]) for a, b in pairs])
    rng = rng_for(11)
    z = rng.standard_normal((4000, dec.latent_dim))
    offsets = z @ dec.W.T
    rms = float(np.sqrt((np.linalg.norm(offsets, axis=1) ** 2).mean()))
    assert rms == pytest.approx(half_mean, rel=0.1)
    assert dec.latent_dim == dec.W.shape[1] == 4


# --- target selection ----------------------------------------------------------


def test_select_targets_singleton_candidate(scenario):
    batch = LabeledBatch(np.zeros((10, 2)), np.array([1] * 5 + [2] * 5))
    shard = ClientShard.build(0, batch, 3)
    labels = select_targets(shard, 8, rng_for(0))
    assert np.all(labels == 0)


def test_select_targets_fallback_uniform():
    batch = LabeledBatch(np.zeros((9, 2)), np.array([0, 1, 2] * 3))
    shard = ClientShard.build(0, batch, 3)
    labels = select_targets(shard, 600, rng_for(1))
    assert set(labels) == {0, 1, 2}


def test_select_targets_deterministic(scenario):
    _, shards, _, _ = scenario
    a = select_targets(shards[0], 16, rng_for(2))
    b = select_targets(shards[0], 16, rng_for(2))
    assert np.array_equal(a, b)


# --- joint loss ----------------------------------------------------------------


def test_joint_loss_best_case(scenario):
    spec, _, _, dec = scenario
    rng = rng_for(3)
    w = models.init_params(spec, 2)
    z = rng.normal(size=(6, dec.latent_dim))
    labels = rng.integers(0, 4, 6)
    batch = decode(dec, z, labels)
    _, g = models.loss_and_grad(spec, w, batch)
    parts = joint_loss(spec, w, dec, z, labels, g_ref=g)
    assert parts.l1 == pytest.approx(0.0, abs=1e-9)
    assert parts.l2 == pytest.approx(0.0, abs=1e-9)
    assert parts.l3 > 0
    anti = joint_loss(spec, w, dec, z, labels, g_ref=-g)
    assert anti.l1 == pytest.approx(2.0, abs=1e-9)


def test_joint_loss_range_and_total(scenario):
    spec, _, _, dec = scenario
    rng = rng_for(4)
    w = models.init_params(spec, 2)
    for _ in range(25):
        z = rng.normal(size=(5, dec.latent_dim))
        labels = rng.integers(0, 4, 5)
        ref = rng.normal(size=spec.param_count)
        parts = joint_loss(spec, w, dec, z, labels, ref)
        assert 0.0 <= parts.l1 <= 2.0
        assert parts.l2 >= 0.0
        assert parts.l3 >= 0.0
        assert parts.total == parts.l1 + parts.l2 + parts.l3


def test_joint_loss_zero_reference_convention(scenario):
    spec, _, _, dec = scenario
    rng = rng_for(5)
    w = models.init_params(spec, 2)
    z = rng.normal(size=(4, dec.latent_dim))
    labels = rng.integers(0, 4, 4)
    parts = joint_loss(spec, w, dec, z, labels, np.zeros(spec.param_count))
    _, g = models.loss_and_grad(spec, w, decode(dec, z, labels))
    assert parts.l1 == 1.0
    assert parts.l2 == pytest.approx(np.linalg.norm(g))


def test_grad_z_cross_checks_between_step_sizes(scenario):
    spec, _, _, dec = scenario
    rng = rng_for(6)
    w = models.init_params(spec, 2)
    for _ in range(5):
        z = rng.normal(size=(3, dec.latent_dim))
        labels = rng.integers(0, 4, 3)
        ref = rng.normal(size=spec.param_count)
        g1 = grad_z_fd(spec, w, dec, z, labels, ref, step_scale=1e-4)
        g2 = grad_z_fd(spec, w, dec, z, labels, ref, step_scale=3e-5)
        scale = max(np.max(np.abs(g1)), 1e-8)
        assert np.max(np.abs(g1 - g2)) / scale <= 1e-3


def test_grad_z_matches_generic_fd_oracle(scenario):
    spec, _, _, dec = scenario
    rng = rng_for(7)
    w = models.init_params(spec, 2)
    z = rng.normal(size=(2, dec.latent_dim))
    labels = rng.integers(0, 4, 2)
    ref = rng.normal(size=spec.param_count)
    g = grad_z_fd(spec, w, dec, z, labels, ref, step_scale=1e-5)
    flat = oracles.fd_gradient(
        lambda v: joint_loss(
            spec, w, dec, v.reshape(z.shape), labels, ref
        ).total,
        z.ravel(),
        5e-5,
    )
    scale = max(np.max(np.abs(flat)), 1e-8)
    assert np.max(np.abs(g.ravel() - flat)) / scale <= 1e-3


@pytest.mark.parametrize(
    "kind,hidden", [("logistic", 0), ("mlp1", 3), ("mlp1", 8)]
)
@pytest.mark.parametrize("zero_ref", [False, True])
def test_grad_z_closed_form_matches_fd_oracle(scenario, kind, hidden, zero_ref):
    _, _, _, dec = scenario
    spec = ModelSpec(kind, input_dim=2, num_classes=4, hidden_dim=hidden)
    rng = rng_for(11 + hidden)
    w = rng.normal(size=spec.param_count)
    z = rng.normal(size=(6, dec.latent_dim))
    labels = rng.integers(0, 4, 6)
    ref = np.zeros(spec.param_count) if zero_ref else rng.normal(size=spec.param_count)
    g = grad_z(spec, w, dec, z, labels, ref)
    flat = oracles.fd_gradient(
        lambda v: joint_loss(spec, w, dec, v.reshape(z.shape), labels, ref).total,
        z.ravel(),
        1e-5,
    )
    assert g.shape == z.shape
    scale = max(np.max(np.abs(flat)), 1e-8)
    assert np.max(np.abs(g.ravel() - flat)) / scale <= 1e-6


# --- latent refinement -----------------------------------------------------------


def fresh_latents(dec, synth_batch=8, seed=0):
    return rng_for(seed).standard_normal((synth_batch, dec.latent_dim))


def test_refine_zero_steps_keeps_state(scenario):
    # latent_steps = 0: the warm-started latents pass through a refining round
    spec, _, _, dec = scenario
    z = fresh_latents(dec, synth_batch=LATENT["synth_batch"])
    w1 = models.init_params(spec, 2)
    w2 = w1 + 0.05 * rng_for(1).normal(size=spec.param_count)
    _, out, _ = latent_call(scenario, z, 2, w2, w1, rng_for(0), latent_steps=0)
    assert out is z


def test_refine_zero_lr_keeps_latents(scenario):
    spec, _, _, dec = scenario
    z = fresh_latents(dec)
    w = models.init_params(spec, 2)
    labels = np.zeros(8, dtype=int)
    ref = rng_for(1).normal(size=spec.param_count)
    out = refine_latent(z, spec, w, dec, labels, ref, eta_z=0.0)
    assert np.array_equal(out, z)


def test_refine_first_step_decreases_loss(scenario):
    # fixed fixture: logistic model, latent_dim=4, batch of 8
    spec, _, _, dec = scenario
    z = fresh_latents(dec, seed=3)
    w = models.init_params(spec, 4)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    ref = 0.05 * rng_for(9).normal(size=spec.param_count)
    out = refine_latent(z, spec, w, dec, labels, ref, eta_z=1e-2)
    before = joint_loss(spec, w, dec, z, labels, ref).total
    after = joint_loss(spec, w, dec, out, labels, ref).total
    assert after < before


def test_refine_uses_closed_form_gradient(scenario, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("refine_latent must not use the finite-difference path")

    monkeypatch.setattr(attacks, "grad_z_fd", fail)
    spec, _, _, dec = scenario
    z = fresh_latents(dec, seed=3)
    w = models.init_params(spec, 4)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    ref = 0.05 * rng_for(9).normal(size=spec.param_count)
    out = refine_latent(z, spec, w, dec, labels, ref, eta_z=1e-2)
    out = refine_latent(out, spec, w, dec, labels, ref, eta_z=1e-2)
    assert not np.array_equal(out, z)


def test_attack_state_validation(scenario):
    # the attack's state is its latent matrix: one row per label, finite
    spec, _, _, dec = scenario
    w = models.init_params(spec, 0)
    labels = np.zeros(4, dtype=int)
    ref = rng_for(1).normal(size=spec.param_count)
    with pytest.raises(ValueError, match="one latent row per label"):
        refine_latent(fresh_latents(dec, 3), spec, w, dec, labels, ref, eta_z=0.01)
    nan = np.full((4, dec.latent_dim), np.nan)
    with pytest.raises(ValueError, match="must be finite"):
        refine_latent(nan, spec, w, dec, labels, ref, eta_z=0.01)
    with pytest.raises(ValueError, match="latent matrix must be finite"):
        refine_latent(fresh_latents(dec, 4), spec, w, dec, labels, ref, eta_z=np.inf)


# --- full behavior ----------------------------------------------------------------


def latent_call(scenario, z, t, w, w_prev, rng, kappa=math.inf, **hyper):
    spec, shards, _, dec = scenario
    ctx = RoundContext(spec, t, w, w_prev, shards[0], LocalHP(), rng)
    step = partial(behavior_latent_opt, dec=dec, kappa=kappa, **{**LATENT, **hyper})
    return flcore._drive([(ctx, step, z)])[0]


def test_latent_zero_intensity_equals_benign(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    update, state, diag = latent_call(scenario, None, 1, w, None, rng_for(42), synth_batch=0)
    assert np.array_equal(update, benign_update(scenario, w, rng_for(42)))
    assert state is None
    assert diag["effective_alpha"] == 0.0


def test_latent_kappa_clip_exact(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    update, _, diag = latent_call(scenario, None, 1, w, None, rng_for(1), kappa=1e-3)
    assert np.linalg.norm(update) == pytest.approx(1e-3, abs=1e-12)
    assert diag["clipped"]


def test_latent_cache_and_warm_start(scenario):
    spec, shards, _, dec = scenario
    w1 = models.init_params(spec, 0)
    update, z1, _ = latent_call(scenario, None, 1, w1, None, rng_for(2))
    assert z1.shape == (LATENT["synth_batch"], dec.latent_dim)
    z_before = z1.copy()
    w2 = w1 + update * 0.1
    _, z2, _ = latent_call(scenario, z1, 2, w2, w1, rng_for(3))
    assert np.array_equal(z1, z_before)  # the step does not mutate its state
    # round 2 has a nonzero reference, so refinement moved the cached latents
    assert not np.array_equal(z2, z_before)
    # the same state and context give the same step
    _, again, _ = latent_call(scenario, z1, 2, w2, w1, rng_for(3))
    assert np.array_equal(again, z2)


def test_latent_round_evaluates_the_joint_loss_once(scenario, monkeypatch):
    # refinement steps use the closed-form gradient; only the diag reads the loss
    calls = []
    real = attacks.joint_loss

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(attacks, "joint_loss", counted)
    spec, _, _, dec = scenario
    w1 = models.init_params(spec, 0)
    w2 = w1 + 0.05 * rng_for(1).normal(size=spec.param_count)
    _, z, diag = latent_call(scenario, None, 2, w2, w1, rng_for(6))
    assert LATENT["latent_steps"] > 1
    assert len(calls) == 1
    assert calls[0][3] is z  # the refined latents
    assert diag["l1"] == real(*calls[0]).l1


def test_latent_first_round_skips_refinement(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    _, z, diag = latent_call(scenario, None, 1, w, None, rng_for(5))
    # zero reference at t=1: latents keep their warm-start draw
    fresh = rng_for(5).standard_normal(z.shape)
    assert np.array_equal(z, fresh)
    assert diag["l1"] == 1.0  # degenerate-reference convention


def test_latent_decoded_batch_stays_in_domain(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    z, w_prev = None, None
    for t in range(1, 4):
        update, z, _ = latent_call(scenario, z, t, w, w_prev, rng_for(10 + t))
        assert np.all(np.isfinite(update))
        assert np.all(np.isfinite(z))
        w_prev, w = w, w + 0.2 * update
    synth = decode(dec, z, np.zeros(z.shape[0], dtype=int))
    assert np.all(np.isfinite(synth.inputs))
    assert synth.labels.max() < 4


def test_effective_alpha_examples():
    assert effective_alpha(10, 0) == 0.0
    assert effective_alpha(10, 10) == 0.5
    assert effective_alpha(300, 16) == pytest.approx(16 / 316)
    assert effective_alpha(0, 4) == 1.0  # an empty shard trains on decoded rows alone
    for shard_size, synth_batch in ((0, 0), (-1, 4)):
        with pytest.raises(ValueError):
            effective_alpha(shard_size, synth_batch)


def test_mlp1_latent_opt_scenario_smoke():
    cfg = ExperimentConfig(
        num_classes=4, num_clients=4, samples_per_class=100, samples_per_client=50,
        rounds=3, synth_batch=8, latent_steps=2, pool_samples_per_class=20,
        model_kind="mlp1", hidden_dim=6, attack="latent_opt",
    )
    report = run_experiment(cfg)
    assert [d["t"] for d in report.diagnostics] == [1, 2, 3]
    for d in report.diagnostics:
        assert all(np.isfinite(d[k]) for k in ("l1", "l2", "l3", "update_norm"))
    attacked = report.attacked_log.rounds[-1].updates[report.malicious_id]
    free = report.attack_free_log.rounds[-1].updates[report.malicious_id]
    assert not np.array_equal(attacked, free)
