import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedattr import attacks, attribution, flcore, models, oracles
from fedattr.attribution import (
    AttributionReport,
    CoalitionUtility,
    evaluate_log,
    fedsv,
    loo_retrain_report,
    loo_round,
    normalize_shares,
    rank_clients,
    shapley_exact,
    shapley_mc,
)
from fedattr.data import ClientShard, DatasetSpec, PartitionSpec, partition_noniid, synthesize
from fedattr.flcore import FLConfig, LocalHP, benign, run_training
from fedattr.models import LabeledBatch, ModelSpec


def in_mask_order(table, n):
    """A coalition-value table as the list shapley_exact reads: index = mask."""
    return [table[frozenset(i for i in range(n) if mask >> i & 1)] for mask in range(1 << n)]


def mc_values(table, n, num_permutations, seed):
    """The utilities of a table's permutation-prefix rows, and the permutations."""
    perms, rows = attribution._permutation_prefixes(n, num_permutations, seed)
    return np.array(in_mask_order(table, n))[rows @ (1 << np.arange(n))], perms


def exact_of(cu):
    """shapley_exact of a real round game."""
    return shapley_exact(cu.values(attribution._all_coalitions(cu.num_clients)))


def mc_of(cu, num_permutations, seed):
    """shapley_mc of a real round game."""
    perms, rows = attribution._permutation_prefixes(cu.num_clients, num_permutations, seed)
    return shapley_mc(cu.values(rows), perms)


def value_of(cu, subset):
    """v(S) of one coalition given by its client indices."""
    return cu.value_mask(sum(1 << int(i) for i in subset))


def game(rec, spec, test):
    """Round `rec`'s coalition game scored on `test`."""
    return CoalitionUtility(rec, spec, models.group_by_label(spec, test))


def full_table(n, fn):
    return {
        frozenset(s): fn(frozenset(s))
        for r in range(n + 1)
        for s in itertools.combinations(range(n), r)
    }


def random_table(rng, n):
    return full_table(n, lambda s: float(rng.normal()))


def test_shapley_exact_additive():
    weights = [2.0, -1.0, 0.25, 3.0]
    table = full_table(4, lambda s: sum(weights[i] for i in s))
    assert np.allclose(shapley_exact(in_mask_order(table, 4)), weights, atol=1e-12)


def test_shapley_exact_two_player_hand_case():
    table = {
        frozenset(): 0.0,
        frozenset([0]): 1.0,
        frozenset([1]): 2.0,
        frozenset([0, 1]): 4.0,
    }
    phi = shapley_exact(in_mask_order(table, 2))
    assert phi[0] == pytest.approx(1.5)
    assert phi[1] == pytest.approx(2.5)


def test_shapley_exact_matches_bruteforce_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        table = random_table(rng, n)
        exact = shapley_exact(in_mask_order(table, n))
        brute = oracles.shapley_bruteforce(table, n)
        assert np.max(np.abs(exact - brute)) <= 1e-12


def test_shapley_axioms():
    rng = np.random.default_rng(321)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        table = random_table(rng, n)
        phi = shapley_exact(in_mask_order(table, n))
        # efficiency
        assert abs(phi.sum() - (table[frozenset(range(n))] - table[frozenset()])) <= 1e-9
        # linearity
        other = random_table(rng, n)
        combined = {s: table[s] + other[s] for s in table}
        assert np.allclose(
            shapley_exact(in_mask_order(combined, n)),
            phi + shapley_exact(in_mask_order(other, n)),
            atol=1e-9,
        )
    # dummy player: adding player n-1 never changes the value
    base = random_table(rng, 3)
    table = {}
    for s, v in base.items():
        table[s] = v
        table[s | {3}] = v
    assert abs(shapley_exact(in_mask_order(table, 4))[3]) <= 1e-12
    # symmetry: size-only game values every player equally
    sym = full_table(5, lambda s: len(s) ** 2 / 7.0)
    phi = shapley_exact(in_mask_order(sym, 5))
    assert phi.max() - phi.min() <= 1e-12


def test_shapley_exact_sums_each_client_left_to_right_from_cached_tables():
    # the per-client loop that built its masks and weights every call
    for n in range(0, 7):
        values = np.random.default_rng(n).normal(size=1 << n)
        masks, fact = np.arange(1 << n), [math.factorial(j) for j in range(n + 1)]
        weights = np.array([fact[s] * fact[n - 1 - s] / fact[n] for s in range(n)])
        expected = []
        for i in range(n):
            without = masks[(masks >> i & 1) == 0]
            sizes = [bin(mask).count("1") for mask in without]
            terms = weights[sizes] * (values[without | 1 << i] - values[without])
            expected.append(np.cumsum(terms)[-1])
        assert shapley_exact(values).tobytes() == np.array(expected).tobytes(), n
        tables = attribution._marginal_terms(n)
        assert tables is attribution._marginal_terms(n)
        assert not any(table.flags.writeable for table in tables)


def test_shapley_exact_guard():
    with pytest.raises(ValueError, match="enumeration guard"):
        shapley_exact(np.zeros(1 << 17))


@pytest.mark.parametrize("length", [0, 3, 6, 31, 33])
def test_shapley_exact_rejects_a_length_that_is_not_a_power_of_two(length):
    with pytest.raises(ValueError, match="2\\^N values in mask order"):
        shapley_exact(np.zeros(length))
    with pytest.raises(ValueError, match="2\\^N values in mask order"):
        shapley_exact(np.zeros((length, 2)))


def test_shapley_mc_additive_exact_for_one_permutation():
    weights = [1.0, 2.0, 3.0]
    table = full_table(3, lambda s: sum(weights[i] for i in s))
    est = shapley_mc(*mc_values(table, 3, num_permutations=1, seed=0))
    assert np.allclose(est, weights, atol=1e-12)


def test_shapley_mc_converges_to_exact():
    rng = np.random.default_rng(5)
    table = random_table(rng, 5)
    exact = shapley_exact(in_mask_order(table, 5))
    est = shapley_mc(*mc_values(table, 5, num_permutations=20000, seed=0))
    spread = max(table.values()) - min(table.values())
    assert np.max(np.abs(est - exact)) <= 0.01 * spread


def test_shapley_mc_seed_determinism():
    table = random_table(np.random.default_rng(9), 4)
    a = shapley_mc(*mc_values(table, 4, 50, seed=3))
    b = shapley_mc(*mc_values(table, 4, 50, seed=3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="then one per prefix"):
        values, perms = mc_values(table, 4, 50, seed=3)
        shapley_mc(values[:-1], perms)


@pytest.mark.parametrize("num_clients", range(2, 17))
def test_permutation_prefixes_draw_what_a_per_permutation_loop_draws(num_clients):
    for seed in (0, 1, 7, 2**31 + 5):
        rng = np.random.default_rng(seed)
        loop = np.array([rng.permutation(num_clients) for _ in range(37)])
        perms, rows = attribution._permutation_prefixes(num_clients, 37, seed)
        assert perms.tolist() == loop.tolist()
        assert not rows[0].any()
        for p, perm in enumerate(loop):
            for j in range(num_clients):
                expected = np.isin(np.arange(num_clients), perm[: j + 1])
                assert rows[1 + p * num_clients + j].tolist() == expected.tolist()


# --- coalition utilities over real rounds -----------------------------------


def small_run(
    num_clients=3, rounds=2, master_seed=6, *, samples_per_class=120,
    model="logistic", defense_mode="off", behaviors=None,
):
    dataset = DatasetSpec("gaussian_blobs", 3, 2, samples_per_class, 5.0, 1.0, seed=0)
    train, test = synthesize(dataset)
    shards = partition_noniid(
        train, PartitionSpec(num_clients, 2, 30, seed=1), 3
    )
    if model == "logistic":
        spec = ModelSpec("logistic", input_dim=2, num_classes=3)
    else:
        spec = ModelSpec("mlp1", input_dim=2, num_classes=3, hidden_dim=5)
    cfg = FLConfig(
        spec=spec, shards=shards,
        behaviors=behaviors or [benign] * len(shards),
        hp=LocalHP(epochs=1, batch_size=16, eta_w=0.2),
        rounds=rounds, test=test, master_seed=master_seed,
        defense_mode=defense_mode, trim_tau=0.2,
    )
    return cfg, run_training(cfg), spec, test


def test_coalition_value_definitions():
    cfg, log, spec, test = small_run()
    rec = log.rounds[0]
    cu = game(rec, spec, test)
    assert cu.value_mask(0) == models.accuracy(spec, rec.w_t, test)
    assert cu.value_mask(0b111) == models.accuracy(spec, rec.w_next, test)
    single = cu.values([[False, True, False]])[0]
    assert single == models.accuracy(spec, rec.w_t + rec.updates[1], test)
    assert cu.value_mask(0b010) == single
    with pytest.raises(ValueError, match="coalitions x 3 matrix"):
        cu.values(np.ones((2, 4), dtype=bool))


@pytest.mark.parametrize("model", ["logistic", "mlp1"])
def test_values_reproduce_each_logged_round(model):
    # training and scoring share flcore.weighted_aggregate, so the coalition
    # the round aggregated scores exactly the round's logged utility
    for defense_mode in ("off", "enforce"):
        cfg, log, spec, test = small_run(num_clients=5, model=model, defense_mode=defense_mode)
        for rec in log.rounds:
            everyone, nobody = np.ones(5, dtype=bool), np.zeros(5, dtype=bool)
            kept = everyone if rec.trim is None else np.isin(np.arange(5), list(rec.trim.kept))
            assert (defense_mode == "off") == kept.all()
            got = game(rec, spec, test).values([kept, nobody])
            assert got[0] == rec.test_utility_after
            assert got[1] == models.accuracy(spec, rec.w_t, test)


def every_coalition(n):
    return np.array(list(itertools.product([False, True], repeat=n)))


def assert_values_match_oracle(log, spec, test):
    for rec in log.rounds:
        cu = game(rec, spec, test)
        members = every_coalition(cu.num_clients)
        got = cu.values(members)
        for row, value in zip(members, got):
            expected = oracles.coalition_utility(rec, spec, test, np.flatnonzero(row))
            assert value == expected, (rec.t, row)


@pytest.mark.parametrize(
    "chunk_logits",
    [
        pytest.param(attribution._CHUNK_LOGITS, id="default"),
        pytest.param(500, id="500"),
        pytest.param(1, id="one"),
    ],
)
@pytest.mark.parametrize("model", ["logistic", "mlp1"])
def test_values_match_oracle(model, chunk_logits, monkeypatch):
    # a small chunk limit splits every round's 32 coalitions over many
    # chunks, and blocks of them (see the next test); a limit of one logit
    # scores one coalition per block
    monkeypatch.setattr(attribution, "_CHUNK_LOGITS", chunk_logits)
    cfg, log, spec, test = small_run(num_clients=5, rounds=3, model=model)
    assert_values_match_oracle(log, spec, test)


@pytest.mark.parametrize(
    "model, blocks, chunks",
    [
        # P = 9, 216 logits a coalition: blocks of 54, chunks of 2
        ("logistic", [32], [2] * 16),
        # P = 33, 360 hidden activations a coalition: blocks of 15, chunks of 1
        ("mlp1", [15, 15, 2], [1] * 32),
    ],
)
def test_values_aggregate_each_block_once_and_score_it_in_chunks(
    model, blocks, chunks, monkeypatch
):
    monkeypatch.setattr(attribution, "_CHUNK_LOGITS", 500)
    cfg, log, spec, test = small_run(num_clients=5, rounds=3, model=model)
    aggregated = aggregate_spy(monkeypatch)
    scored, count = [], attribution.count_correct
    monkeypatch.setattr(
        attribution, "count_correct", lambda spec, params, groups: (
            scored.append(len(params)), count(spec, params, groups)
        )[1],
    )
    rec = log.rounds[0]
    got = game(rec, spec, test).values(every_coalition(5))
    assert aggregated == blocks
    assert scored == chunks  # the empty coalition is aggregated with the others
    monkeypatch.undo()
    assert got.tobytes() == full_kernel_values(rec, spec, test, every_coalition(5)).tobytes()


def test_values_match_oracle_with_zero_update_client():
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)

    def silent(ctx, state):
        return np.zeros(spec.param_count), state, None

    behaviors = [benign, silent, benign, benign]
    cfg, log, spec, test = small_run(num_clients=4, behaviors=behaviors)
    assert not np.any(log.rounds[0].updates[1])
    assert_values_match_oracle(log, spec, test)


def test_a_client_without_samples_scores_zero_from_its_stored_log(tmp_path):
    # a free rider on an empty shard is logged with n_i = 0: every coalition
    # aggregates what it does without that client, and one without samples
    # scores w_t, as the empty coalition does
    cfg, _, spec, test = small_run(rounds=3)
    empty = ClientShard.build(2, LabeledBatch(np.zeros((0, 2)), np.zeros(0, int)), 3)
    cfg = dataclasses.replace(
        cfg, shards=[*cfg.shards[:2], empty],
        behaviors=[benign, benign, attacks.behavior_free_rider],
    )
    flcore.save_log(run_training(cfg), tmp_path / "run.log.jsonl")
    log = flcore.load_log(tmp_path / "run.log.jsonl")
    assert log.rounds[0].n == (30, 30, 0) and np.any(log.rounds[-1].updates[2])
    assert_values_match_oracle(log, spec, test)
    reports = evaluate_log(log, spec, test, attribution.LOGGED_EVALUATORS, num_permutations=20)
    assert reports["fedsv_exact"].raw[2] == reports["fedsv_mc"].raw[2] == 0.0
    assert reports["loo_round"].raw[2] == 0.0


def test_certified_values_match_the_oracle_with_a_client_without_samples(monkeypatch):
    # w_t gets every row wrong and every one-client model gets it right;
    # w_t is a vertex of every coalition's hull, so certification settles no
    # row, and the coalitions without samples score w_t with the others
    rows = np.linspace(-3.0, 3.0, 40)[:, None]
    n = (5, 3, 0, 7, 2, 4, 6, 1)
    rec, spec, test = bias_round(
        (1.0, 0.0), [(0.0, 1.5 + 0.25 * i) for i in range(8)], n, rows, [1] * 40
    )
    calls, certify = [], attribution._certify
    monkeypatch.setattr(attribution, "_certify", lambda *a: (calls.append(a), certify(*a))[1])
    members = every_coalition(8)
    got = game(rec, spec, test).values(members)
    scored, always = attribution._certify(spec, rec, models.group_by_label(spec, test))
    assert calls and (len(scored.inputs), always) == (40, 0)
    for row, value in zip(members, got):
        assert value == oracles.coalition_utility(rec, spec, test, np.flatnonzero(row)), row
    assert sorted(set(got.tolist())) == [0.0, 1.0]
    assert got[~(members & (np.array(n) > 0)).any(axis=1)].tolist() == [0.0, 0.0]


def test_values_match_oracle_on_enforced_round():
    cfg, log, spec, test = small_run(num_clients=5, defense_mode="enforce")
    assert all(rec.trim is not None and rec.trim.trimmed for rec in log.rounds)
    assert_values_match_oracle(log, spec, test)


def test_values_count_labels_outside_the_model_as_wrong():
    cfg, log, spec, test = small_run()
    rec = log.rounds[0]
    extra = LabeledBatch(
        np.concatenate([test.inputs, test.inputs[:5]]),
        np.concatenate([test.labels, np.full(5, spec.num_classes)]),
    )
    got = game(rec, spec, extra).values(every_coalition(3))
    for row, value in zip(every_coalition(3), got):
        assert value == oracles.coalition_utility(rec, spec, extra, np.flatnonzero(row))


def test_values_break_logit_ties_toward_the_lowest_class():
    # w_t = 0 ties every class; the second update ties classes 1 and 2 above 0
    cfg, log, spec, test = small_run()
    bias_only = np.zeros(spec.param_count)
    bias_only[-3:] = [0.0, 1.0, 1.0]
    rec = log.rounds[0]
    rec = type(rec)(
        rec.t, np.zeros(spec.param_count), (np.zeros(spec.param_count), bias_only),
        (None, None), (10, 30), rec.w_next, rec.test_utility_after,
    )
    got = game(rec, spec, test).values(every_coalition(2))
    expected = [
        oracles.coalition_utility(rec, spec, test, np.flatnonzero(row))
        for row in every_coalition(2)
    ]
    assert list(got) == expected
    assert got[0] == np.mean(test.labels == 0)  # all tied: class 0 wins
    assert got[1] == np.mean(test.labels == 1)  # 1 and 2 tied: class 1 wins


# --- certified scoring ---------------------------------------------------------


def full_kernel_values(rec, spec, test, members):
    """Each coalition's accuracy from every test row and class: the kernel
    without certification."""
    params = rec.w_t + flcore.weighted_aggregate(rec.updates, rec.n, members)
    return models.count_correct(spec, params, models.group_by_label(spec, test)) / len(test)


@st.composite
def certified_rounds(draw):
    """A logistic round built to test certification, with its test set.

    In `exact` rounds every parameter and input is a small integer and at
    most two clients hold equal counts, so every logit is exact whichever
    way it is summed: test rows sit exactly on one-client boundaries and
    classes tie.  Other rounds draw normal parameters, scale the updates
    down until the one-client margins at the origin sit near tau, may zero
    some updates, and may make one class a copy of another in w_t and every
    update, a tie in every coalition.  Some clients may hold no samples, so
    coalitions without samples are certified too.  Labels run up to
    num_classes + 1."""
    exact = draw(st.booleans())
    spec = ModelSpec("logistic", draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num = draw(st.integers(1, 2 if exact else 4))
    rows = draw(st.integers(1, 40))
    if exact:
        w_t = rng.integers(-2, 3, spec.param_count).astype(float)
        updates = rng.integers(-2, 3, (num, spec.param_count)).astype(float)
        counts = (int(rng.integers(1, 50)),) * num
        inputs = rng.integers(-2, 3, (rows, spec.input_dim)).astype(float)
    else:
        w_t = rng.normal(size=spec.param_count)
        updates = rng.normal(size=(num, spec.param_count))
        updates *= 2.0 ** draw(st.sampled_from([0, -20, -28, -30, -31, -33, -40]))
        updates[draw(st.lists(st.booleans(), min_size=num, max_size=num))] = 0.0
        counts = tuple(int(c) for c in rng.integers(1, 50, num))
        inputs = rng.normal(size=(rows, spec.input_dim))
        inputs[rng.random(rows) < 0.3] = 0.0  # logits are the biases, exactly
        if draw(st.booleans()):
            src, dst = rng.choice(spec.num_classes, 2, replace=False)
            for vec in (w_t, *updates):
                w, b = models._views(spec, vec)
                w[dst], b[dst] = w[src], b[src]
    empty = draw(st.lists(st.booleans(), min_size=num, max_size=num))
    counts = tuple(0 if e else c for e, c in zip(empty, counts))
    test = LabeledBatch(inputs, rng.integers(0, spec.num_classes + 2, rows))
    rec = flcore.RoundRecord(1, w_t, tuple(updates), (None,) * num, counts, w_t, 0.0)
    return rec, spec, test


@pytest.fixture
def certify_every_round(monkeypatch):
    """Certify rounds however few coalitions they score."""
    monkeypatch.setattr(attribution, "_CERTIFY_MIN", 1)


@settings(max_examples=200, deadline=None)
@given(certified_rounds())
def test_certified_values_match_the_oracle(case):
    rec, spec, test = case
    members = every_coalition(len(rec.updates))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attribution, "_CERTIFY_MIN", 1)
        got = game(rec, spec, test).values(members)
    assert got.tobytes() == full_kernel_values(rec, spec, test, members).tobytes()
    for row, value in zip(members, got):
        assert value == oracles.coalition_utility(rec, spec, test, np.flatnonzero(row)), row


def bias_round(biases, updates, n, inputs, labels):
    """A two-class, one-input logistic round: w_t has zero weights and the
    given biases, each update moves only the biases."""
    spec = ModelSpec("logistic", input_dim=1, num_classes=2)
    w_t = np.array([0.0, 0.0, *biases])
    ups = tuple(np.array([0.0, 0.0, *u]) for u in updates)
    rec = flcore.RoundRecord(1, w_t, ups, (None,) * len(ups), n, w_t, 0.0)
    return rec, spec, LabeledBatch(np.array(inputs, dtype=float), np.array(labels))


def test_certification_leaves_a_margin_within_tau_to_the_kernel(certify_every_round):
    # each one-client model lifts class 1 one ulp above class 0 at the
    # origin, but the two-client aggregate rounds below half an ulp, so that
    # coalition ties the classes and class 0 wins: a rule deciding rows
    # from margins above 0 rather than above tau would count the row right
    half_ulp = 2.0**-53 + 2.0**-105
    rec, spec, test = bias_round((1.0, 1.0), [(0.0, half_ulp)] * 2, (8, 4), [[0.0]], [1])
    assert all((rec.w_t + u)[3] > (rec.w_t + u)[2] for u in rec.updates)
    groups = models.group_by_label(spec, test)
    scored, always = attribution._certify(spec, rec, groups)
    assert (len(scored.inputs), always) == (1, 0)
    got = game(rec, spec, test).values(every_coalition(2))
    assert got.tolist() == [0.0, 1.0, 1.0, 0.0]  # rows in mask order 0, 2, 1, 3


def test_certification_decides_nothing_at_a_non_finite_logit(certify_every_round):
    # at x = 2 the first client's class-1 logit overflows to +inf; every
    # one-client margin there is above tau, yet the row stays open; w_t ties
    # the two classes, so it keeps the row at x = 1 open too
    rec, spec, test = bias_round((0.0, 0.0), [(0.0, 0.0)] * 2, (1, 1), [[2.0], [1.0]], [1, 1])
    rec = dataclasses.replace(
        rec, updates=(np.array([0.0, 1.5e308, 0.0, 0.0]), np.array([0.0, 1e300, 0.0, 0.0]))
    )
    groups = models.group_by_label(spec, test)
    members = every_coalition(2)
    with np.errstate(over="ignore", invalid="ignore"):
        scored, always = attribution._certify(spec, rec, groups)
        got = game(rec, spec, test).values(members)
    assert scored.inputs[:, 0].tolist() == [2.0, 1.0] and always == 0
    for row, value in zip(members, got):
        assert value == oracles.coalition_utility(rec, spec, test, np.flatnonzero(row))


def test_certification_decides_rows_only_for_logistic_models():
    for model in ("logistic", "mlp1"):
        cfg, log, spec, test = small_run(num_clients=4, model=model)
        groups = models.group_by_label(spec, test)
        scored, always = attribution._certify(spec, log.rounds[-1], groups)
        if model == "mlp1":
            assert scored is groups and always == 0
        else:
            assert 0 < always and len(scored.inputs) < len(groups.inputs)


def test_certification_runs_only_for_rounds_with_many_coalitions(monkeypatch):
    cfg, log, spec, test = small_run(num_clients=8)
    rec, calls = log.rounds[0], []
    certify = attribution._certify

    def spy(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(attribution, "_certify", spy)
    members = every_coalition(8)  # the empty coalition counts as one of them
    least = attribution._CERTIFY_MIN
    for count, certified in ((least, True), (least - 1, False)):
        calls.clear()
        rows = members[:count]
        got = game(rec, spec, test).values(rows)
        assert bool(calls) == certified
        assert got.tobytes() == full_kernel_values(rec, spec, test, rows).tobytes()


@pytest.mark.parametrize("num_clients", [8, 10, 12])
def test_certified_values_equal_the_full_kernel_on_real_rounds(num_clients):
    from fedattr.expcli.config import ExperimentConfig
    from fedattr.expcli.experiment import build_scenario

    cfg = ExperimentConfig(num_clients=num_clients, samples_per_client=100, rounds=3)
    fl = build_scenario(cfg)
    log = run_training(fl)
    members = attribution._all_coalitions(num_clients)
    groups = models.group_by_label(fl.spec, fl.test)
    for rec in log.rounds:
        scored, always = attribution._certify(fl.spec, rec, groups)
        assert len(scored.inputs) < len(groups.inputs)  # some rows were decided
        got = CoalitionUtility(rec, fl.spec, groups).values(members)
        expected = full_kernel_values(rec, fl.spec, fl.test, members)
        assert got.tobytes() == expected.tobytes(), rec.t


def wide_round(num_clients, tie, scale=1.0):
    """A logistic round over 1024 inputs and 10 classes, its updates scaled
    by `scale`; with `tie`, class 4 copies class 3 in w_t and every update,
    so every row labelled 4 ties in every coalition and stays open."""
    spec = ModelSpec("logistic", input_dim=1024, num_classes=10)
    rng = np.random.default_rng(num_clients)
    w_t = rng.normal(size=spec.param_count) / 32.0
    updates = rng.normal(size=(num_clients, spec.param_count)) / 32.0 * scale
    if tie:
        for vec in (w_t, *updates):
            w, b = models._views(spec, vec)
            w[4], b[4] = w[3], b[3]
    counts = tuple(int(c) for c in rng.integers(1, 50, num_clients))
    rec = flcore.RoundRecord(1, w_t, tuple(updates), (None,) * num_clients, counts, w_t, 0.0)
    test = LabeledBatch(rng.normal(size=(60, 1024)), rng.integers(0, 10, 60))
    return rec, spec, test


def aggregate_spy(monkeypatch):
    """The coalition count of each `weighted_aggregate` call values makes."""
    sizes = []

    def spy(updates, n, members):
        sizes.append(len(members))
        return flcore.weighted_aggregate(updates, n, members)

    monkeypatch.setattr(attribution, "weighted_aggregate", spy)
    return sizes


def test_chunks_hold_few_wide_parameter_vectors(monkeypatch):
    # few rows stay open, so the logits of a chunk are small, but each
    # coalition's parameters are 10,250 floats: a chunk holds no more
    # coalitions than _CHUNK_LOGITS floats of parameters allow
    rec, spec, test = wide_round(8, tie=True, scale=2.0**-40)
    scored, always = attribution._certify(spec, rec, models.group_by_label(spec, test))
    assert 0 < len(scored.inputs) * spec.num_classes < spec.param_count
    sizes = aggregate_spy(monkeypatch)
    members = every_coalition(8)
    got = game(rec, spec, test).values(members)
    assert sum(sizes) == 256 and max(sizes) == attribution._CHUNK_LOGITS // spec.param_count
    monkeypatch.undo()
    assert got.tobytes() == full_kernel_values(rec, spec, test, members).tobytes()


def test_a_round_with_every_row_settled_aggregates_nothing(monkeypatch):
    rec, spec, test = wide_round(8, tie=False, scale=2.0**-40)
    scored, always = attribution._certify(spec, rec, models.group_by_label(spec, test))
    assert len(scored.inputs) == 0
    sizes = aggregate_spy(monkeypatch)
    members = every_coalition(8)
    got = game(rec, spec, test).values(members)
    assert sizes == []
    assert set(got.tolist()) == {always / len(test)}  # the empty coalition too
    monkeypatch.undo()
    assert got.tobytes() == full_kernel_values(rec, spec, test, members).tobytes()


def test_certified_values_equal_the_full_kernel_for_wide_models():
    # 1025 terms per logit; these rows have no near tie, so rounding that
    # moves with the rows scored together changes no count
    rec, spec, test = wide_round(8, tie=True, scale=0.5)
    scored, always = attribution._certify(spec, rec, models.group_by_label(spec, test))
    assert 0 < always and len(scored.inputs) < len(test)
    members = every_coalition(8)
    got = game(rec, spec, test).values(members)
    assert got.tobytes() == full_kernel_values(rec, spec, test, members).tobytes()


def shapley_mc_loop(cu, num_permutations, seed):
    """Per-permutation reference: one utility per prefix, in draw order."""
    rng = np.random.default_rng(seed)
    totals = np.zeros(cu.num_clients)
    for _ in range(num_permutations):
        perm = rng.permutation(cu.num_clients)
        before = cu.value_mask(0)
        for j, i in enumerate(perm):
            after = value_of(cu, perm[: j + 1])
            totals[i] += after - before
            before = after
    return totals / num_permutations


@pytest.mark.parametrize("num_clients, num_permutations", [(5, 40), (20, 12)])
def test_shapley_mc_matches_per_permutation_loop(num_clients, num_permutations):
    # N=20 is above the exact guard: only sampling can value this game
    cfg, log, spec, test = small_run(num_clients=num_clients, samples_per_class=400)
    for rec in log.rounds:
        cu = game(rec, spec, test)
        fast = mc_of(cu, num_permutations, seed=rec.t)
        loop = shapley_mc_loop(cu, num_permutations, seed=rec.t)
        assert fast.tobytes() == loop.tobytes()


def shapley_exact_loop(cu):
    """Subset-loop reference: each marginal added to phi_i in mask order."""
    num = cu.num_clients
    fact = [math.factorial(j) for j in range(num + 1)]
    weights = [fact[s] * fact[num - 1 - s] / fact[num] for s in range(num)]
    values = [cu.value_mask(mask) for mask in range(1 << num)]
    phi = np.zeros(num)
    for i in range(num):
        for mask in range(1 << num):
            if not mask >> i & 1:
                size = bin(mask).count("1")
                phi[i] += weights[size] * (values[mask | 1 << i] - values[mask])
    return phi


@pytest.mark.parametrize("model", ["logistic", "mlp1"])
def test_shapley_exact_matches_subset_loop(model):
    cfg, log, spec, test = small_run(num_clients=6, model=model)
    for rec in log.rounds:
        cu = game(rec, spec, test)
        assert exact_of(cu).tobytes() == shapley_exact_loop(cu).tobytes()


# --- one coalition table per round shared by the logged-round evaluators ----

LOGGED = ("fedsv_exact", "fedsv_mc", "loo_round")
SUBSETS = [
    combo for r in range(1, len(LOGGED) + 1) for combo in itertools.combinations(LOGGED, r)
]
MC_PERMUTATIONS, MC_SEED = 30, 11


def loo_round_loop(cu):
    everyone = range(cu.num_clients)
    return np.array(
        [value_of(cu, everyone) - value_of(cu, [j for j in everyone if j != i]) for i in everyone]
    )


def per_round_reference(name, cu, t):
    if name == "fedsv_exact":
        return shapley_exact_loop(cu)
    if name == "fedsv_mc":
        return shapley_mc_loop(cu, MC_PERMUTATIONS, MC_SEED + t)
    return loo_round_loop(cu)


@pytest.fixture(scope="module")
def six_client_runs():
    return {
        kind: small_run(num_clients=6, **kw)[1:]
        for kind, kw in (
            ("logistic", {}),
            ("mlp1", {"model": "mlp1"}),
            ("enforce", {"defense_mode": "enforce"}),
        )
    }


@pytest.mark.parametrize("evaluators", SUBSETS, ids="+".join)
@pytest.mark.parametrize("run", ["logistic", "mlp1", "enforce"])
def test_evaluate_log_matches_per_round_references(six_client_runs, run, evaluators):
    log, spec, test = six_client_runs[run]
    reports = evaluate_log(
        log, spec, test, evaluators, num_permutations=MC_PERMUTATIONS, seed=MC_SEED
    )
    assert list(reports) == list(evaluators)
    for name in evaluators:
        expected = np.zeros(6)
        for rec in log.rounds:
            cu = game(rec, spec, test)
            expected += per_round_reference(name, cu, rec.t)
        assert reports[name].raw.tobytes() == expected.tobytes(), name


def mc_prefix_rows(num, num_permutations, seed):
    """Every coalition a permutation-sampling run asks for, drawn afresh."""
    rng = np.random.default_rng(seed)
    rows = {(False,) * num}
    for _ in range(num_permutations):
        perm = rng.permutation(num)
        for j in range(num):
            rows.add(tuple(bool(np.isin(i, perm[: j + 1])) for i in range(num)))
    return rows


@pytest.mark.parametrize("evaluators", SUBSETS, ids="+".join)
def test_evaluate_log_scores_each_round_once_with_distinct_rows(
    six_client_runs, monkeypatch, evaluators
):
    log, spec, test = six_client_runs["logistic"]
    calls = []
    score = CoalitionUtility.values

    def spy(self, members):
        calls.append((self.record, np.array(members)))
        return score(self, members)

    monkeypatch.setattr(CoalitionUtility, "values", spy)
    evaluate_log(log, spec, test, evaluators, num_permutations=MC_PERMUTATIONS, seed=MC_SEED)
    assert len(calls) == len(log.rounds)
    for rec, (record, rows) in zip(log.rounds, calls):
        assert record is rec
        t = rec.t
        got = {tuple(row) for row in rows.tolist()}
        assert len(got) == len(rows)  # distinct
        if "fedsv_exact" in evaluators:
            expected = {tuple(row) for row in every_coalition(6).tolist()}
        else:
            expected = set()
            if "fedsv_mc" in evaluators:
                expected |= mc_prefix_rows(6, MC_PERMUTATIONS, MC_SEED + t)
            if "loo_round" in evaluators:
                # i = -1 leaves nobody out: the full coalition
                expected |= {tuple(j != i for j in range(6)) for i in range(-1, 6)}
        assert got == expected


def test_evaluate_log_mc_only_above_the_exact_guard(monkeypatch):
    cfg, log, spec, test = small_run(num_clients=20, samples_per_class=400)
    report = evaluate_log(log, spec, test, ["fedsv_mc"], num_permutations=12, seed=5)
    expected = np.zeros(20)
    for rec in log.rounds:
        expected += shapley_mc_loop(game(rec, spec, test), 12, 5 + rec.t)
    assert report["fedsv_mc"].raw.tobytes() == expected.tobytes()

    def no_scoring(self, members):
        raise AssertionError("coalitions scored above the exact guard")

    monkeypatch.setattr(CoalitionUtility, "values", no_scoring)
    with pytest.raises(ValueError, match="enumeration guard"):
        evaluate_log(log, spec, test, ["fedsv_mc", "fedsv_exact"])


def test_evaluate_log_rejects_other_evaluators():
    cfg, log, spec, test = small_run()
    with pytest.raises(ValueError, match="logged-round evaluators"):
        evaluate_log(log, spec, test, ["fedsv_exact", "loo_retrain"])
    assert evaluate_log(log, spec, test, []) == {}


def test_evaluate_log_sorts_rows_only_without_fedsv_exact_and_draws_permutations_once_per_round(
    six_client_runs, monkeypatch
):
    # with fedsv_exact, every round's rows index all 2^N coalitions by mask
    log, spec, test = six_client_runs["logistic"]
    counts = {"_unique_rows": 0, "_permutation_prefixes": 0}

    def counting(name):
        real = getattr(attribution, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(attribution, name, counting(name))
    rounds = len(log.rounds)
    for evaluators, sorts in ((LOGGED, 0), (("fedsv_mc", "loo_round"), rounds)):
        counts.update(dict.fromkeys(counts, 0))
        evaluate_log(log, spec, test, evaluators, num_permutations=MC_PERMUTATIONS, seed=MC_SEED)
        assert counts == {"_unique_rows": sorts, "_permutation_prefixes": rounds}


@pytest.mark.parametrize("run", ["logistic", "mlp1"])
def test_evaluate_log_mask_path_equals_sort_path(six_client_runs, run):
    # fedsv_exact makes the other evaluators' rows index coalitions by mask
    log, spec, test = six_client_runs[run]
    kw = dict(num_permutations=MC_PERMUTATIONS, seed=MC_SEED)
    by_mask = evaluate_log(log, spec, test, LOGGED, **kw)
    by_sort = evaluate_log(log, spec, test, ["fedsv_mc", "loo_round"], **kw)
    for name in ("fedsv_mc", "loo_round"):
        assert by_mask[name].raw.tobytes() == by_sort[name].raw.tobytes(), name


def test_fedsv_efficiency_over_log():
    cfg, log, spec, test = small_run()
    report = fedsv(log, spec, test, mode="exact")
    expected = sum(
        game(rec, spec, test).value_mask((1 << 3) - 1)
        - game(rec, spec, test).value_mask(0)
        for rec in log.rounds
    )
    assert report.raw.sum() == pytest.approx(expected, abs=1e-9)


def full_batch_step(ctx, state):
    """One full-batch gradient step on the shard.  It draws no randomness,
    so clients with equal shards send equal updates whatever their ids."""
    _, grad = models.loss_and_grad(ctx.spec, ctx.w_t, ctx.shard.data)
    return -ctx.hp.eta_w * grad, state, None


def test_fedsv_symmetry_for_duplicated_clients():
    # two clients share one data shard and send equal updates -> equal raw values
    cfg, log, spec, test = small_run()
    base = cfg.shards[0]
    twin = [ClientShard(i, base.data, base.class_counts) for i in range(2)]
    twin_cfg = FLConfig(
        spec=spec, shards=twin, behaviors=[full_batch_step] * 2,
        hp=cfg.hp, rounds=2, test=test, master_seed=3,
    )
    twin_log = run_training(twin_cfg)
    assert all(rec.updates[0].tobytes() == rec.updates[1].tobytes() for rec in twin_log.rounds)
    report = fedsv(twin_log, spec, test, mode="exact")
    assert report.raw[0] == pytest.approx(report.raw[1], abs=1e-12)
    assert list(report.ranks) == [1, 2]  # tie broken by ascending id
    loo = loo_round(twin_log, spec, test)
    assert loo.raw[0] == pytest.approx(loo.raw[1], abs=1e-12)


def test_loo_round_matches_direct_recomputation():
    cfg, log, spec, test = small_run()
    report = loo_round(log, spec, test)
    # independent recomputation straight from the definition
    n_clients = 3
    expected = np.zeros(n_clients)
    for rec in log.rounds:
        for i in range(n_clients):
            others = [j for j in range(n_clients) if j != i]
            total = sum(rec.n)
            rest = sum(rec.n[j] for j in others)
            agg_all = np.zeros_like(rec.w_t)
            for j in range(n_clients):
                agg_all += (rec.n[j] / total) * rec.updates[j]
            agg_wo = np.zeros_like(rec.w_t)
            for j in others:
                agg_wo += (rec.n[j] / rest) * rec.updates[j]
            expected[i] += models.accuracy(spec, rec.w_t + agg_all, test) - \
                models.accuracy(spec, rec.w_t + agg_wo, test)
    assert np.allclose(report.raw, expected, atol=1e-12)


def test_loo_round_all_zero_updates_gives_zero():
    cfg, log, spec, test = small_run()

    def silent(ctx, state):
        return np.zeros(spec.param_count), state, None

    zero_cfg = FLConfig(
        spec=spec, shards=cfg.shards, behaviors=[silent] * 3,
        hp=cfg.hp, rounds=2, test=test, master_seed=1,
    )
    report = loo_round(run_training(zero_cfg), spec, test)
    assert np.allclose(report.raw, 0.0)


def test_loo_retrain_duplicate_and_symmetry():
    cfg, log, spec, test = small_run()
    base = cfg.shards[0]
    shards = [
        ClientShard(0, base.data, base.class_counts),
        ClientShard(1, base.data, base.class_counts),
    ]
    pair_cfg = FLConfig(
        spec=spec, shards=shards, behaviors=[benign] * 2,
        hp=cfg.hp, rounds=2, test=test, master_seed=2,
    )
    v0, v1 = loo_retrain_report(pair_cfg)[1].raw
    # removing either of two duplicate-data clients costs about the same
    assert abs(v0 - v1) <= 0.02


def test_loo_retrain_only_holder_of_a_class_matters():
    dataset = DatasetSpec("gaussian_blobs", 3, 2, 150, 6.0, 1.0, seed=4)
    train, test = synthesize(dataset)
    shards = partition_noniid(train, PartitionSpec(3, 1, 40, seed=2), 3)
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)
    cfg = FLConfig(
        spec=spec, shards=shards,
        behaviors=[benign] * len(shards),
        hp=LocalHP(epochs=2, batch_size=16, eta_w=0.2),
        rounds=8, test=test, master_seed=3,
    )
    # k=1, so each client is the sole holder of one class.  A linear model
    # can still recover some absent classes "by elimination" (their zero
    # logit wins where every trained logit is negative), so only the class
    # this fixture shows to be unrecoverable carries a positive value:
    # dropping client 1 (sole holder of class 0) costs a third of accuracy.
    log, report, _ = loo_retrain_report(cfg)
    assert report.raw[1] == pytest.approx(1 / 3, abs=0.05)
    assert np.all(report.raw >= 0)
    # cfg's own run trains alongside the reruns, and its log is the one
    # run_training gives; each value is exactly the full-retrain difference
    alone = run_training(cfg)
    assert [rec.w_next.tobytes() for rec in log.rounds] == [
        rec.w_next.tobytes() for rec in alone.rounds
    ]
    retrained = [
        alone.final_utility - run_training(cfg.without_client(s.client_id)).final_utility
        for s in shards
    ]
    assert retrained == report.raw.tolist()


@pytest.mark.parametrize("num_clients", [6, 40])
def test_loo_retrain_reruns_train_in_groups(monkeypatch, num_clients):
    # about 32 client models per lockstep call, plus the own run in the first
    # group: all six N=6 reruns share one call per round with it, and at N=40
    # the own run trains with the first rerun and each other rerun alone
    dataset = DatasetSpec("gaussian_blobs", 4, 2, 150, 5.0, 1.0, seed=3)
    train, test = synthesize(dataset)
    shards = partition_noniid(train, PartitionSpec(num_clients, 2, 12, seed=4), 4)
    rounds = 2
    cfg = FLConfig(
        spec=ModelSpec("mlp1", input_dim=2, num_classes=4, hidden_dim=3),
        shards=shards, behaviors=[benign] * num_clients,
        hp=LocalHP(epochs=1, batch_size=8, eta_w=0.2),
        rounds=rounds, test=test, master_seed=5,
    )
    sizes = []

    def spy(spec, params, *args):
        sizes.append(len(params))
        return models.sgd_train_many(spec, params, *args)

    monkeypatch.setattr(flcore, "sgd_train_many", spy)
    log, report, _ = loo_retrain_report(cfg)
    monkeypatch.undo()
    assert log.final_utility == run_training(cfg).final_utility
    if num_clients == 6:
        assert sizes == [6 + 6 * 5] * rounds
    else:
        first = num_clients + num_clients - 1
        assert sizes == [first] * rounds + [num_clients - 1] * (num_clients - 1) * rounds
    expected = [
        log.final_utility - run_training(cfg.without_client(s.client_id)).final_utility
        for s in shards
    ]
    assert report.raw.tolist() == expected


@pytest.mark.parametrize("num_clients", [4, 5, 6])
def test_loo_retrain_round_one_trains_each_client_once(monkeypatch, num_clients):
    # every rerun starts round 1 from the own run's w_1, with the same shard
    # objects and id-keyed seeds: the N^2 rows of its lockstep call are N
    # distinct client steps
    cfg, _, _, _ = small_run(num_clients=num_clients, rounds=3, model="mlp1")
    calls, ce_grads, train_many = [], models._ce_grads, flcore.sgd_train_many

    def spy_train(spec, params, *args):
        calls.append((len(params), []))
        return train_many(spec, params, *args)

    def spy_grads(spec, params, x, y):
        calls[-1][1].append(len(params))
        return ce_grads(spec, params, x, y)

    monkeypatch.setattr(flcore, "sgd_train_many", spy_train)
    monkeypatch.setattr(models, "_ce_grads", spy_grads)
    log, _, utilities = loo_retrain_report(cfg)
    monkeypatch.undo()
    (rows, stacked), *later = calls
    assert rows == num_clients**2
    assert stacked and set(stacked) == {num_clients}
    assert all(set(steps) == {k} for k, steps in later)  # later rounds: all distinct
    assert log.final_utility == run_training(cfg).final_utility
    for s in cfg.shards:
        assert utilities[s.client_id] == run_training(cfg.without_client(s.client_id)).final_utility


def test_loo_retrain_skips_the_reruns_it_is_given(monkeypatch):
    cfg, _, _, _ = small_run(num_clients=4)
    log, full, utilities = loo_retrain_report(cfg)
    assert list(utilities) == [s.client_id for s in cfg.shards]
    assert [log.final_utility - u for u in utilities.values()] == full.raw.tolist()
    trained = []

    def spy(cfgs):
        trained.extend(len(c.shards) for c in cfgs)
        return flcore.run_training_many(cfgs)

    monkeypatch.setattr(attribution, "run_training_many", spy)
    _, reused, again = loo_retrain_report(cfg, {1: utilities[1], 3: utilities[3]})
    assert trained == [4, 3, 3]  # the own run and the reruns without clients 0 and 2
    assert again == utilities
    assert reused.raw.tobytes() == full.raw.tobytes()


# --- properties of real round games ------------------------------------------

run_params = dict(
    num_clients=st.integers(2, 6), master_seed=st.integers(0, 2**31 - 1)
)


@settings(max_examples=15, deadline=None)
@given(**run_params)
def test_property_exact_efficiency(num_clients, master_seed):
    cfg, log, spec, test = small_run(num_clients, master_seed=master_seed)
    for rec in log.rounds:
        cu = game(rec, spec, test)
        gain = cu.value_mask((1 << num_clients) - 1) - cu.value_mask(0)
        assert abs(exact_of(cu).sum() - gain) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(**run_params)
def test_property_duplicated_clients_get_equal_values(num_clients, master_seed):
    # client 1 is a copy of client 0: same shard, same deterministic step
    cfg, _, spec, test = small_run(num_clients)
    shards = list(cfg.shards)
    shards[1] = dataclasses.replace(shards[0], client_id=1)
    twin_cfg = FLConfig(
        spec=spec, shards=shards, behaviors=[full_batch_step] * num_clients, hp=cfg.hp,
        rounds=2, test=test, master_seed=master_seed,
    )
    log = run_training(twin_cfg)
    for report in (fedsv(log, spec, test, mode="exact"), loo_round(log, spec, test)):
        assert abs(report.raw[0] - report.raw[1]) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(**run_params, seed=st.integers(0, 2**31 - 1))
def test_property_one_permutation_mc_is_efficient(num_clients, master_seed, seed):
    cfg, log, spec, test = small_run(num_clients, master_seed=master_seed)
    for rec in log.rounds:
        cu = game(rec, spec, test)
        gain = cu.value_mask((1 << num_clients) - 1) - cu.value_mask(0)
        assert abs(mc_of(cu, 1, seed).sum() - gain) <= 1e-12


def test_normalize_shares_examples():
    assert np.allclose(normalize_shares(np.array([-1.0, 0.0, 3.0])), [0.0, 0.2, 0.8])
    assert np.allclose(normalize_shares(np.array([5.0, 5.0, 5.0])), [1 / 3] * 3)
    shares = normalize_shares(np.array([0.3, -0.2, 0.9, 0.1]))
    assert shares.min() == 0.0
    assert shares.sum() == pytest.approx(1.0, abs=1e-12)


def test_rank_clients_examples():
    assert list(rank_clients(np.array([0.5, 0.3, 0.2]))) == [1, 2, 3]
    assert list(rank_clients(np.array([0.4, 0.4, 0.2]))) == [1, 2, 3]
    assert list(rank_clients(np.array([0.25, 0.25, 0.25, 0.25]))) == [1, 2, 3, 4]


def test_normalization_contract_random():
    rng = np.random.default_rng(77)
    for _ in range(200):
        raw = rng.normal(size=int(rng.integers(1, 12)))
        shares = normalize_shares(raw)
        assert shares.min() >= 0.0
        assert abs(shares.sum() - 1.0) <= 1e-9
        assert np.array_equal(rank_clients(shares), rank_clients(raw))


def test_report_from_raw_structure():
    report = AttributionReport.from_raw(np.array([0.1, 0.5, 0.2]))
    assert [f.name for f in dataclasses.fields(report)] == ["raw", "shares", "ranks"]
    assert sorted(report.ranks) == [1, 2, 3]
    assert report.shares[report.ranks.argmin()] == report.shares.max()



def test_write_report_csv(tmp_path):
    # attribution writes no file: a report's table goes through the one
    # run-directory CSV writer, rows as write_run_outputs lays them out
    from fedattr.expcli.experiment import _write_csv

    report = AttributionReport.from_raw(np.array([0.1, 0.5]))
    path = tmp_path / "attribution.csv"
    _write_csv(
        path,
        "run_id,evaluator,client_id,raw,share,rank,phase",
        (
            ("abc123", "fedsv_exact", i, float(raw), float(share), int(rank), "attack_free")
            for i, (raw, share, rank) in enumerate(zip(report.raw, report.shares, report.ranks))
        ),
    )
    text = path.read_text()
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "run_id,evaluator,client_id,raw,share,rank,phase"
    assert len(lines) == 3
    assert lines[1].startswith("abc123,fedsv_exact,0,")
    assert [float(line.split(",")[4]) for line in lines[1:]] == list(report.shares)
