import numpy as np
import pytest

from fedattr import attacks, models, oracles
from fedattr.attacks import (
    AttackState,
    Budgets,
    LatentHP,
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
from fedattr.flcore import LocalHP, benign_local_update
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


def rng_for(seed=0):
    return np.random.default_rng(seed)


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
    flip = behavior_label_flip(spec, w, shards[0], hp, rng_for(3))
    benign = benign_local_update(spec, w, shards[0], hp, seed=int(rng_for(3).integers(0, 2**63)))
    assert not np.allclose(flip, benign)


def test_random_noise_zero_sigma_is_benign(scenario):
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    hp = LocalHP()
    noisy = behavior_random_noise(spec, w, shards[0], hp, rng_for(3), sigma_rel=0.0)
    benign = benign_local_update(
        spec, w, shards[0], hp, seed=int(rng_for(3).integers(0, 2**63))
    )
    assert np.array_equal(noisy, benign)


def test_random_noise_norm_calibration(scenario):
    # over 1000 draws, E||noisy - benign||^2 approaches sigma_rel^2 ||benign||^2
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    hp = LocalHP()
    sigma_rel = 1.5
    ratios = []
    for trial in range(1000):
        replay = rng_for(trial)
        benign = benign_local_update(
            spec, w, shards[0], hp, seed=int(replay.integers(0, 2**63))
        )
        noisy = behavior_random_noise(
            spec, w, shards[0], hp, rng_for(trial), sigma_rel=sigma_rel
        )
        noise_sq = float(np.linalg.norm(noisy - benign) ** 2)
        ratios.append(noise_sq / float(np.linalg.norm(benign) ** 2))
    assert np.mean(ratios) == pytest.approx(sigma_rel**2, rel=0.1)


def test_random_noise_deterministic_per_seed(scenario):
    spec, shards, _, _ = scenario
    w = models.init_params(spec, 1)
    a = behavior_random_noise(spec, w, shards[0], LocalHP(), rng_for(5), 0.5)
    b = behavior_random_noise(spec, w, shards[0], LocalHP(), rng_for(5), 0.5)
    assert np.array_equal(a, b)


def test_free_rider_edge_cases():
    w1 = np.array([1.0, 2.0])
    assert np.array_equal(behavior_free_rider(w1, (w1,)), np.zeros(2))
    # stationary model
    assert np.array_equal(behavior_free_rider(w1, (w1, w1)), np.zeros(2))
    w2 = np.array([1.5, 1.0])
    assert np.array_equal(behavior_free_rider(w2, (w1, w2)), w2 - w1)


def test_direct_ref_properties(scenario):
    spec, shards, _, _ = scenario
    w_prev = models.init_params(spec, 1)
    w = w_prev + 0.1 * rng_for(2).normal(size=spec.param_count)
    hp = LocalHP()
    u = benign_local_update(
        spec, w, shards[0], hp, seed=int(rng_for(4).integers(0, 2**63))
    )
    out = behavior_direct_ref(spec, w, (w_prev, w), shards[0], hp, rng_for(4))
    ref = w - w_prev
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(u), abs=1e-12)
    cos = out @ ref / (np.linalg.norm(out) * np.linalg.norm(ref))
    assert cos == pytest.approx(1.0, abs=1e-12)
    # first round or zero reference: fall back to the benign update
    first = behavior_direct_ref(spec, w, (w,), shards[0], hp, rng_for(4))
    assert np.array_equal(first, u)
    stuck = behavior_direct_ref(spec, w, (w, w), shards[0], hp, rng_for(4))
    assert np.array_equal(stuck, u)


# --- decoder -----------------------------------------------------------------


def test_decoder_prototypes_from_single_sample_pool():
    pool = LabeledBatch(np.array([[1.0, 2.0], [-3.0, 0.0]]), np.array([0, 1]))
    dec = calibrate_decoder(pool, latent_dim=3, seed=0)
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
    a = calibrate_decoder(pool, latent_dim=3, seed=4)
    b = calibrate_decoder(pool, latent_dim=3, seed=4)
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
    _, _, _, dec = scenario
    rng = rng_for(11)
    z = rng.standard_normal((4000, dec.latent_dim))
    offsets = z @ dec.W.T
    rms = float(np.sqrt((np.linalg.norm(offsets, axis=1) ** 2).mean()))
    assert rms == pytest.approx(dec.scale, rel=0.1)


# --- target selection ----------------------------------------------------------


def test_select_targets_singleton_candidate(scenario):
    batch = LabeledBatch(np.zeros((10, 2)), np.array([1] * 5 + [2] * 5))
    shard = ClientShard.build(0, batch, 3)
    labels = select_targets(shard, 3, 8, rng_for(0))
    assert np.all(labels == 0)


def test_select_targets_fallback_uniform():
    batch = LabeledBatch(np.zeros((9, 2)), np.array([0, 1, 2] * 3))
    shard = ClientShard.build(0, batch, 3)
    labels = select_targets(shard, 3, 600, rng_for(1))
    assert set(labels) == {0, 1, 2}


def test_select_targets_deterministic(scenario):
    _, shards, _, _ = scenario
    a = select_targets(shards[0], 4, 16, rng_for(2))
    b = select_targets(shards[0], 4, 16, rng_for(2))
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


def fresh_state(dec, synth_batch=8, latent_steps=2, eta_z=0.01, seed=0):
    hyper = LatentHP(
        latent_dim=dec.latent_dim, latent_steps=latent_steps,
        synth_batch=synth_batch, eta_z=eta_z,
    )
    z = rng_for(seed).standard_normal((synth_batch, dec.latent_dim))
    return AttackState(z=z, cached_round=0, budgets=Budgets(), hyper=hyper)


def test_refine_zero_steps_keeps_state(scenario):
    spec, _, _, dec = scenario
    state = fresh_state(dec)
    w = models.init_params(spec, 2)
    labels = np.zeros(8, dtype=int)
    ref = rng_for(1).normal(size=spec.param_count)
    out = refine_latent(state, spec, w, dec, labels, ref, num_steps=0)
    assert np.array_equal(out.z, state.z)


def test_refine_zero_lr_keeps_latents(scenario):
    spec, _, _, dec = scenario
    state = fresh_state(dec, eta_z=0.0)
    w = models.init_params(spec, 2)
    labels = np.zeros(8, dtype=int)
    ref = rng_for(1).normal(size=spec.param_count)
    out = refine_latent(state, spec, w, dec, labels, ref)
    assert np.array_equal(out.z, state.z)
    assert len(out.refine_trace) == 3  # initial value plus two steps


def test_refine_first_step_decreases_loss(scenario):
    # fixed fixture: logistic model, latent_dim=4, batch of 8
    spec, _, _, dec = scenario
    state = fresh_state(dec, eta_z=1e-2, seed=3)
    w = models.init_params(spec, 4)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    ref = 0.05 * rng_for(9).normal(size=spec.param_count)
    out = refine_latent(state, spec, w, dec, labels, ref, num_steps=1)
    before, after = out.refine_trace
    assert after < before


def test_refine_uses_closed_form_gradient(scenario, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("refine_latent must not use the finite-difference path")

    monkeypatch.setattr(attacks, "grad_z_fd", fail)
    spec, _, _, dec = scenario
    state = fresh_state(dec, eta_z=1e-2, seed=3)
    w = models.init_params(spec, 4)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    ref = 0.05 * rng_for(9).normal(size=spec.param_count)
    out = refine_latent(state, spec, w, dec, labels, ref)
    assert len(out.refine_trace) == 3
    assert not np.array_equal(out.z, state.z)


def test_attack_state_validation(scenario):
    _, _, _, dec = scenario
    hyper = LatentHP(latent_dim=dec.latent_dim, synth_batch=4)
    with pytest.raises(ValueError):
        AttackState(z=np.zeros((3, dec.latent_dim)), cached_round=0,
                    budgets=Budgets(), hyper=hyper)
    with pytest.raises(ValueError):
        AttackState(z=np.full((4, dec.latent_dim), np.nan), cached_round=0,
                    budgets=Budgets(), hyper=hyper)


# --- full behavior ----------------------------------------------------------------


def latent_call(scenario, state, t, w, history, rng, hyper=None, budgets=None):
    spec, shards, _, dec = scenario
    return behavior_latent_opt(
        state, spec, w, history, shards[0], LocalHP(),
        rng, dec, budgets or Budgets(), hyper or LatentHP(latent_dim=dec.latent_dim),
    )


def test_latent_zero_intensity_equals_benign(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    hyper = LatentHP(latent_dim=dec.latent_dim, synth_batch=0)
    update, state, diag = latent_call(
        scenario, None, 1, w, (w,), rng_for(42), hyper=hyper
    )
    benign = benign_local_update(
        spec, w, shards[0], LocalHP(), seed=int(rng_for(42).integers(0, 2**63))
    )
    assert np.array_equal(update, benign)
    assert state is None
    assert diag["effective_alpha"] == 0.0


def test_latent_kappa_clip_exact(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    budgets = Budgets(kappa=1e-3)
    update, _, diag = latent_call(
        scenario, None, 1, w, (w,), rng_for(1), budgets=budgets
    )
    assert np.linalg.norm(update) == pytest.approx(1e-3, abs=1e-12)
    assert diag["clipped"]


def test_latent_cache_and_warm_start(scenario):
    spec, shards, _, dec = scenario
    w1 = models.init_params(spec, 0)
    update, state, _ = latent_call(scenario, None, 1, w1, (w1,), rng_for(2))
    assert state.cached_round == 1
    z_before = state.z.copy()
    w2 = w1 + update * 0.1
    _, state2, _ = latent_call(scenario, state, 2, w2, (w1, w2), rng_for(3))
    assert state2.cached_round == 2
    # round 2 has a nonzero reference, so refinement moved the cached latents
    assert not np.array_equal(state2.z, z_before)
    # rounds must advance monotonically
    with pytest.raises(ValueError):
        latent_call(scenario, state2, 1, w1, (w1,), rng_for(4))


def test_latent_first_round_skips_refinement(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    _, state, diag = latent_call(scenario, None, 1, w, (w,), rng_for(5))
    # zero reference at t=1: latents keep their warm-start draw
    fresh = rng_for(5).standard_normal(state.z.shape)
    assert np.array_equal(state.z, fresh)
    assert diag["l1"] == 1.0  # degenerate-reference convention


def test_latent_decoded_batch_stays_in_domain(scenario):
    spec, shards, _, dec = scenario
    w = models.init_params(spec, 0)
    state = None
    history = [w]
    for t in range(1, 4):
        update, state, _ = latent_call(
            scenario, state, t, history[-1], tuple(history), rng_for(10 + t)
        )
        assert np.all(np.isfinite(update))
        assert np.all(np.isfinite(state.z))
        history.append(history[-1] + 0.2 * update)
    synth = decode(dec, state.z, np.zeros(state.z.shape[0], dtype=int))
    assert np.all(np.isfinite(synth.inputs))
    assert synth.labels.max() < 4


def test_effective_alpha_examples():
    assert effective_alpha(10, 0) == 0.0
    assert effective_alpha(10, 10) == 0.5
    assert effective_alpha(300, 16) == pytest.approx(16 / 316)
    with pytest.raises(ValueError):
        effective_alpha(0, 4)


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
