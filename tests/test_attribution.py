import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedattr import attribution, models, oracles
from fedattr.attribution import (
    AttributionReport,
    CoalitionUtility,
    fedsv,
    loo_retrain,
    loo_retrain_report,
    loo_round,
    normalize_shares,
    rank_clients,
    shapley_exact,
    shapley_mc,
)
from fedattr.data import ClientShard, DatasetSpec, PartitionSpec, partition_noniid, synthesize
from fedattr.flcore import BenignBehavior, FLConfig, LocalHP, run_training
from fedattr.models import LabeledBatch, ModelSpec


class TableGame:
    """Explicit coalition-value table behind the CoalitionUtility interface."""

    def __init__(self, table, n):
        self.table = table
        self.num_clients = n

    def values(self, members):
        return np.array(
            [self.table[frozenset(np.flatnonzero(row).tolist())] for row in members]
        )


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
    assert np.allclose(shapley_exact(TableGame(table, 4)), weights, atol=1e-12)


def test_shapley_exact_two_player_hand_case():
    table = {
        frozenset(): 0.0,
        frozenset([0]): 1.0,
        frozenset([1]): 2.0,
        frozenset([0, 1]): 4.0,
    }
    phi = shapley_exact(TableGame(table, 2))
    assert phi[0] == pytest.approx(1.5)
    assert phi[1] == pytest.approx(2.5)


def test_shapley_exact_matches_bruteforce_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        table = random_table(rng, n)
        exact = shapley_exact(TableGame(table, n))
        brute = oracles.shapley_bruteforce(table, n)
        assert np.max(np.abs(exact - brute)) <= 1e-12


def test_shapley_axioms():
    rng = np.random.default_rng(321)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        table = random_table(rng, n)
        phi = shapley_exact(TableGame(table, n))
        # efficiency
        assert abs(phi.sum() - (table[frozenset(range(n))] - table[frozenset()])) <= 1e-9
        # linearity
        other = random_table(rng, n)
        combined = {s: table[s] + other[s] for s in table}
        assert np.allclose(
            shapley_exact(TableGame(combined, n)),
            phi + shapley_exact(TableGame(other, n)),
            atol=1e-9,
        )
    # dummy player: adding player n-1 never changes the value
    base = random_table(rng, 3)
    table = {}
    for s, v in base.items():
        table[s] = v
        table[s | {3}] = v
    assert abs(shapley_exact(TableGame(table, 4))[3]) <= 1e-12
    # symmetry: size-only game values every player equally
    sym = full_table(5, lambda s: len(s) ** 2 / 7.0)
    phi = shapley_exact(TableGame(sym, 5))
    assert phi.max() - phi.min() <= 1e-12


def test_shapley_exact_guard():
    with pytest.raises(ValueError):
        shapley_exact(TableGame({}, 17))


def test_shapley_mc_additive_exact_for_one_permutation():
    weights = [1.0, 2.0, 3.0]
    table = full_table(3, lambda s: sum(weights[i] for i in s))
    est = shapley_mc(TableGame(table, 3), num_permutations=1, seed=0)
    assert np.allclose(est, weights, atol=1e-12)


def test_shapley_mc_converges_to_exact():
    rng = np.random.default_rng(5)
    table = random_table(rng, 5)
    game = TableGame(table, 5)
    exact = shapley_exact(game)
    est = shapley_mc(game, num_permutations=20000, seed=0)
    spread = max(table.values()) - min(table.values())
    assert np.max(np.abs(est - exact)) <= 0.01 * spread


def test_shapley_mc_seed_determinism():
    table = random_table(np.random.default_rng(9), 4)
    game = TableGame(table, 4)
    a = shapley_mc(game, 50, seed=3)
    b = shapley_mc(game, 50, seed=3)
    assert np.array_equal(a, b)


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
        behaviors=behaviors or [BenignBehavior(spec) for _ in shards],
        hp=LocalHP(epochs=1, batch_size=16, eta_w=0.2),
        rounds=rounds, test=test, master_seed=master_seed,
        defense_mode=defense_mode, trim_tau=0.2,
    )
    return cfg, run_training(cfg), spec, test


def test_coalition_value_definitions():
    cfg, log, spec, test = small_run()
    rec = log.rounds[0]
    cu = CoalitionUtility.from_round(rec, spec, test)
    assert cu.value([]) == models.accuracy(spec, rec.w_t, test)
    assert cu.value(range(3)) == models.accuracy(spec, rec.w_next, test)
    single = cu.value([1])
    assert single == models.accuracy(spec, rec.w_t + rec.updates[1], test)
    assert cu.value_mask(0b010) == single
    with pytest.raises(ValueError):
        cu.value([7])
    with pytest.raises(ValueError):
        cu.values(np.ones((2, 4), dtype=bool))


def every_coalition(n):
    return np.array(list(itertools.product([False, True], repeat=n)))


def assert_values_match_oracle(log, spec, test):
    for rec in log.rounds:
        cu = CoalitionUtility.from_round(rec, spec, test)
        members = every_coalition(cu.num_clients)
        got = cu.values(members)
        for row, value in zip(members, got):
            expected = oracles.coalition_utility(rec, spec, test, np.flatnonzero(row))
            assert value == expected, (rec.t, row)


@pytest.mark.parametrize("chunk_logits", [1 << 16, 500])
@pytest.mark.parametrize("model", ["logistic", "mlp1"])
def test_values_match_oracle(model, chunk_logits, monkeypatch):
    # a small chunk limit splits every round's 32 coalitions over many chunks
    monkeypatch.setattr(attribution, "_CHUNK_LOGITS", chunk_logits)
    cfg, log, spec, test = small_run(num_clients=5, rounds=3, model=model)
    assert_values_match_oracle(log, spec, test)


def test_values_match_oracle_with_zero_update_client():
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)

    def silent(ctx):
        return np.zeros(spec.param_count)

    behaviors = [BenignBehavior(spec), silent, BenignBehavior(spec), BenignBehavior(spec)]
    cfg, log, spec, test = small_run(num_clients=4, behaviors=behaviors)
    assert not np.any(log.rounds[0].updates[1])
    assert_values_match_oracle(log, spec, test)


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
    got = CoalitionUtility.from_round(rec, spec, extra).values(every_coalition(3))
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
        (10, 30), rec.w_next, rec.test_utility_after,
    )
    got = CoalitionUtility.from_round(rec, spec, test).values(every_coalition(2))
    expected = [
        oracles.coalition_utility(rec, spec, test, np.flatnonzero(row))
        for row in every_coalition(2)
    ]
    assert list(got) == expected
    assert got[0] == np.mean(test.labels == 0)  # all tied: class 0 wins
    assert got[1] == np.mean(test.labels == 1)  # 1 and 2 tied: class 1 wins


def shapley_mc_loop(cu, num_permutations, seed):
    """Per-permutation reference: one utility per prefix, in draw order."""
    rng = np.random.default_rng(seed)
    totals = np.zeros(cu.num_clients)
    for _ in range(num_permutations):
        perm = rng.permutation(cu.num_clients)
        before = cu.value([])
        for j, i in enumerate(perm):
            after = cu.value(perm[: j + 1].tolist())
            totals[i] += after - before
            before = after
    return totals / num_permutations


@pytest.mark.parametrize("num_clients, num_permutations", [(5, 40), (20, 12)])
def test_shapley_mc_matches_per_permutation_loop(num_clients, num_permutations):
    # N=20 is above the exact guard: only sampling can value this game
    cfg, log, spec, test = small_run(num_clients=num_clients, samples_per_class=400)
    for rec in log.rounds:
        cu = CoalitionUtility.from_round(rec, spec, test)
        fast = shapley_mc(cu, num_permutations, seed=rec.t)
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
        cu = CoalitionUtility.from_round(rec, spec, test)
        assert shapley_exact(cu).tobytes() == shapley_exact_loop(cu).tobytes()


def test_fedsv_efficiency_over_log():
    cfg, log, spec, test = small_run()
    report = fedsv(log, spec, test, mode="exact")
    expected = sum(
        CoalitionUtility.from_round(rec, spec, test).value_mask((1 << 3) - 1)
        - CoalitionUtility.from_round(rec, spec, test).value_mask(0)
        for rec in log.rounds
    )
    assert report.raw.sum() == pytest.approx(expected, abs=1e-9)
    assert report.evaluator == "fedsv_exact"


def test_fedsv_symmetry_for_duplicated_clients():
    # two clients share one data shard and one RNG stream -> equal raw values
    cfg, log, spec, test = small_run()
    base = cfg.shards[0]
    twin = [
        ClientShard(base.client_id, base.data, base.class_counts, base.n_i)
        for _ in range(2)
    ]
    twin_cfg = FLConfig(
        spec=spec, shards=twin, behaviors=[BenignBehavior(spec)] * 2,
        hp=cfg.hp, rounds=2, test=test, master_seed=3,
    )
    twin_log = run_training(twin_cfg)
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

    def silent(ctx):
        return np.zeros(spec.param_count)

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
        ClientShard(0, base.data, base.class_counts, base.n_i),
        ClientShard(1, base.data, base.class_counts, base.n_i),
    ]
    pair_cfg = FLConfig(
        spec=spec, shards=shards, behaviors=[BenignBehavior(spec)] * 2,
        hp=cfg.hp, rounds=2, test=test, master_seed=2,
    )
    v0 = loo_retrain(pair_cfg, 0)
    v1 = loo_retrain(pair_cfg, 1)
    # removing either of two duplicate-data clients costs about the same
    assert abs(v0 - v1) <= 0.02


def test_loo_retrain_only_holder_of_a_class_matters():
    dataset = DatasetSpec("gaussian_blobs", 3, 2, 150, 6.0, 1.0, seed=4)
    train, test = synthesize(dataset)
    shards = partition_noniid(train, PartitionSpec(3, 1, 40, seed=2), 3)
    spec = ModelSpec("logistic", input_dim=2, num_classes=3)
    cfg = FLConfig(
        spec=spec, shards=shards,
        behaviors=[BenignBehavior(spec) for _ in shards],
        hp=LocalHP(epochs=2, batch_size=16, eta_w=0.2),
        rounds=8, test=test, master_seed=3,
    )
    # k=1, so each client is the sole holder of one class.  A linear model
    # can still recover some absent classes "by elimination" (their zero
    # logit wins where every trained logit is negative), so only the class
    # this fixture shows to be unrecoverable carries a positive value:
    # dropping client 1 (sole holder of class 0) costs a third of accuracy.
    report = loo_retrain_report(cfg)
    assert report.raw[1] == pytest.approx(1 / 3, abs=0.05)
    assert np.all(report.raw >= 0)
    assert report.evaluator == "loo_retrain"
    assert loo_retrain(cfg, 1) == pytest.approx(report.raw[1], abs=1e-12)


# --- properties of real round games ------------------------------------------

run_params = dict(
    num_clients=st.integers(2, 6), master_seed=st.integers(0, 2**31 - 1)
)


@settings(max_examples=15, deadline=None)
@given(**run_params)
def test_property_exact_efficiency(num_clients, master_seed):
    cfg, log, spec, test = small_run(num_clients, master_seed=master_seed)
    for rec in log.rounds:
        cu = CoalitionUtility.from_round(rec, spec, test)
        gain = cu.value(range(num_clients)) - cu.value([])
        assert abs(shapley_exact(cu).sum() - gain) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(**run_params)
def test_property_duplicated_clients_get_equal_values(num_clients, master_seed):
    # client 1 is a copy of client 0: same shard, same id-keyed RNG stream
    cfg, _, spec, test = small_run(num_clients)
    shards = list(cfg.shards)
    shards[1] = shards[0]
    twin_cfg = FLConfig(
        spec=spec, shards=shards, behaviors=cfg.behaviors, hp=cfg.hp,
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
        cu = CoalitionUtility.from_round(rec, spec, test)
        gain = cu.value(range(num_clients)) - cu.value([])
        assert abs(shapley_mc(cu, 1, seed).sum() - gain) <= 1e-12


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
    report = AttributionReport.from_raw("fedsv_exact", np.array([0.1, 0.5, 0.2]))
    assert sorted(report.ranks) == [1, 2, 3]
    assert report.shares[report.ranks.argmin()] == report.shares.max()


def test_write_report_csv(tmp_path):
    report = AttributionReport.from_raw("fedsv_exact", np.array([0.1, 0.5]))
    path = tmp_path / "attribution.csv"
    attribution.write_report_csv([("abc123", "attack_free", report)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "run_id,evaluator,client_id,raw,share,rank,phase"
    assert len(lines) == 3
    assert lines[1].startswith("abc123,fedsv_exact,0,")
