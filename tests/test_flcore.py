import json
import math
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedattr import attacks, defense, flcore, models, streams
from fedattr.data import ClientShard, DatasetSpec, PartitionSpec, partition_noniid, synthesize
from fedattr.flcore import (
    FLConfig,
    FLRunError,
    LocalHP,
    RoundContext,
    benign,
    run_training,
    run_training_many,
    weighted_aggregate,
)
from fedattr.models import ModelSpec


def make_scenario(
    num_clients=3, num_classes=3, seed=0, samples_per_client=30, samples_per_class=120
):
    dataset = DatasetSpec(
        "gaussian_blobs", num_classes, 2, samples_per_class, class_separation=5.0,
        noise_scale=1.0, seed=seed,
    )
    train, test = synthesize(dataset)
    shards = partition_noniid(
        train,
        PartitionSpec(num_clients, min(2, num_classes), samples_per_client, seed + 1),
        num_classes,
    )
    spec = ModelSpec("logistic", input_dim=2, num_classes=num_classes)
    return spec, shards, test


def latent_attacker(spec, test, synth_batch=8):
    """The latent-optimization attack as one step, decoder fitted on `test`."""
    dec = attacks.calibrate_decoder(test, 2, seed=0, num_classes=spec.num_classes)
    return partial(
        attacks.behavior_latent_opt, dec=dec, kappa=math.inf,
        latent_steps=2, synth_batch=synth_batch, eta_z=0.05,
    )


def make_config(spec, shards, test, rounds=3, **kw):
    behaviors = kw.pop("behaviors", None) or [benign] * len(shards)
    return FLConfig(
        spec=spec, shards=shards, behaviors=behaviors,
        hp=kw.pop("hp", LocalHP()), rounds=rounds, test=test,
        master_seed=kw.pop("master_seed", 9), **kw,
    )


def aggregate_all(updates, n):
    """The aggregate of every client, as a round without trimming takes it."""
    return weighted_aggregate(updates, n, np.ones((1, len(updates)), dtype=bool))[0]


def test_weighted_aggregate_examples():
    u = np.array([1.0, -2.0, 3.0])
    assert np.allclose(aggregate_all([u, -u], [5, 5]), 0.0)
    assert np.array_equal(aggregate_all([u], [7]), u)
    e1 = np.array([1.0, 0.0])
    out = weighted_aggregate([4 * e1, np.zeros(2)], [1, 3], [[True, True], [True, False]])
    assert np.allclose(out, [e1, 4 * e1])


def test_weighted_aggregate_errors():
    with pytest.raises(ValueError, match="no updates"):
        weighted_aggregate([], [], np.zeros((1, 0), dtype=bool))
    with pytest.raises(ValueError, match="differ in length"):
        aggregate_all([np.ones(2)], [1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        aggregate_all([np.ones(2), np.ones(2)], [3, -1])
    for members in ([True, True], [[True]], [[[True, True]]]):
        with pytest.raises(ValueError, match="coalitions x 2 matrix"):
            weighted_aggregate([np.ones(2), np.ones(2)], [1, 2], members)
    # a coalition without samples aggregates to zero, as the empty one does
    members = [[False, False], [True, True], [True, False], [False, True]]
    zero = weighted_aggregate([np.ones(2), np.ones(2)], [0, 0], members)
    assert zero.tolist() == [[0.0, 0.0]] * 4
    mixed = weighted_aggregate([np.ones(2), np.full(2, 3.0)], [0, 5], members)
    assert mixed.tolist() == [[0.0, 0.0], [3.0, 3.0], [0.0, 0.0], [3.0, 3.0]]


def test_weighted_aggregate_linearity():
    rng = np.random.default_rng(2)
    updates = [rng.normal(size=5) for _ in range(4)]
    n = [1, 2, 3, 4]
    scaled = aggregate_all([3.0 * u for u in updates], n)
    assert np.allclose(scaled, 3.0 * aggregate_all(updates, n), atol=1e-12)


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
def test_weighted_aggregate_rows_equal_a_per_member_loop(kind):
    spec, shards, test = make_scenario(num_clients=4)
    if kind == "mlp1":
        spec = ModelSpec("mlp1", input_dim=2, num_classes=3, hidden_dim=5)
    cfg = make_config(spec, shards, test, rounds=2, defense_mode="enforce", trim_tau=0.3)
    for rec in run_training(cfg).rounds:
        trimmed = np.isin(np.arange(4), list(rec.trim.trimmed))
        assert 0 < trimmed.sum() < 4
        members = np.array([[True] * 4, [False] * 4, ~trimmed, trimmed])
        got = weighted_aggregate(rec.updates, rec.n, members)
        assert got.shape == (4, spec.param_count)
        for row, agg in zip(members, got):
            expected = np.zeros(spec.param_count)
            total = sum(n for n, member in zip(rec.n, row) if member)
            for u, n, member in zip(rec.updates, rec.n, row):
                if member:
                    expected += (n / total) * u
            assert agg.tobytes() == expected.tobytes()
        # the kept row is the aggregate the round applied
        assert (rec.w_t + got[2]).tobytes() == rec.w_next.tobytes()


def run_with_client_without_samples(rounds=3):
    """A 3-client run whose free rider holds an empty shard: it trains
    nothing and is logged with n_i = 0."""
    spec, shards, test = make_scenario()
    empty = ClientShard.build(2, models.LabeledBatch(np.zeros((0, 2)), np.zeros(0, int)), 3)
    behaviors = [benign, benign, attacks.behavior_free_rider]
    return run_training(
        make_config(spec, [*shards[:2], empty], test, rounds=rounds, behaviors=behaviors)
    )


@pytest.mark.parametrize("case", ["ten_clients", "client_without_samples"])
def test_one_aggregate_of_every_coalition_equals_one_per_coalition(case):
    if case == "ten_clients":
        spec, shards, test = make_scenario(num_clients=10, samples_per_client=20)
        rec = run_training(make_config(spec, shards, test, rounds=1)).rounds[0]
    else:
        rec = run_with_client_without_samples(rounds=1).rounds[0]
        assert rec.n == (30, 30, 0)
    num = len(rec.updates)
    every = (np.arange(1 << num)[:, None] >> np.arange(num) & 1).astype(bool)
    got = weighted_aggregate(rec.updates, rec.n, every)
    assert got.shape == (1 << num, len(rec.w_t)) and got.flags.c_contiguous
    one_by_one = [weighted_aggregate(rec.updates, rec.n, row[None])[0] for row in every]
    assert got.tobytes() == np.stack(one_by_one).tobytes()


def test_enforced_trimming_that_keeps_no_client_fails(monkeypatch):
    spec, shards, test = make_scenario(num_clients=2)
    trained = []
    monkeypatch.setattr(flcore, "sgd_train_many", lambda *a: trained.append(a))
    # ceil(0.9 * 2) = 2: every client is trimmed, so the config is refused
    with pytest.raises(ValueError, match="trim_tau 0.9 trims all 2 clients"):
        run_training(make_config(spec, shards, test, defense_mode="enforce", trim_tau=0.9))
    assert trained == []


def test_bad_trim_setup_fails_before_training(monkeypatch):
    spec, shards, test = make_scenario(num_clients=3)
    trained = []
    monkeypatch.setattr(flcore, "sgd_train_many", lambda *args: trained.append(args))
    cases = [
        (shards, dict(defense_mode="enforce", trim_tau=1.5), "trim_tau must be in"),
        (shards, dict(defense_mode="monitor", trim_tau=math.nan), "trim_tau must be in"),
        (shards, dict(trim_tau=0.0), "trim_tau must be in"),
        (shards[:1], dict(defense_mode="monitor"), "at least two clients"),
        (shards[:1], dict(defense_mode="enforce"), "at least two clients"),
        ([], {}, "at least one client"),
        # a relabelled shard would share client 1's RNG streams and rerun
        ([*shards[:2], replace(shards[2], client_id=1)], {}, r"client ids \[0, 1, 1\] repeat"),
    ]
    for clients, kw, message in cases:
        with pytest.raises(ValueError, match=message):
            run_training(make_config(spec, clients, test, **kw))
    # dropping a client of a defended two-client run fails the same way
    with pytest.raises(ValueError, match="at least two clients"):
        make_config(spec, shards[:2], test, defense_mode="monitor").without_client(0)
    assert trained == []


@settings(max_examples=60, deadline=None)
@given(
    num_clients=st.integers(1, 6), defense_mode=st.sampled_from(flcore.DEFENSE_MODES),
    tau=st.one_of(
        st.tuples(st.integers(-1, 7), st.integers(1, 6)).map(lambda kn: kn[0] / kn[1]),
        st.floats(allow_nan=True),
    ),
)
# ceil(0.9 * 4) = 4 and ceil(0.75 * 4) = 3: every client trimmed, and one kept
@example(num_clients=4, defense_mode="enforce", tau=0.9)
@example(num_clients=4, defense_mode="enforce", tau=0.75)
def test_property_a_run_is_rejected_before_training_or_trains(num_clients, defense_mode, tau):
    spec, shards, test = make_scenario(num_clients=6)
    calls = []

    def counting(*args):
        calls.append(None)
        return models.sgd_train_many(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flcore, "sgd_train_many", counting)
        try:
            cfg = make_config(
                spec, shards[:num_clients], test, rounds=2, defense_mode=defense_mode,
                trim_tau=tau,
            )
        except ValueError:
            assert calls == []
            return
        log = run_training(cfg)
    assert len(log.rounds) == 2 and calls
    for rec in log.rounds:
        assert (rec.trim is None) == (defense_mode == "off")
        if defense_mode == "enforce":
            assert rec.trim.kept


def benign_update(spec, w, shard, hp, seed):
    """`benign`'s round-1 update, driven alone with an RNG seeded by `seed`."""
    ctx = RoundContext(spec, 1, w, None, shard, hp, np.random.default_rng(seed))
    return flcore._drive([(ctx, benign, None)])[0][0]


def test_benign_update_zero_lr_is_zero():
    spec, shards, _ = make_scenario()
    w = models.init_params(spec, 0)
    hp = LocalHP(epochs=1, batch_size=8, eta_w=0.0)
    assert np.allclose(benign_update(spec, w, shards[0], hp, seed=3), 0.0)


def test_benign_update_deterministic_and_nonzero():
    spec, shards, _ = make_scenario()
    w = models.init_params(spec, 0)
    hp = LocalHP()
    a = benign_update(spec, w, shards[0], hp, seed=3)
    b = benign_update(spec, w, shards[0], hp, seed=3)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) > 0


def test_single_round_single_client_matches_local_training():
    spec, shards, test = make_scenario()
    shard = shards[0]
    cfg = FLConfig(
        spec=spec, shards=[shard], behaviors=[benign],
        hp=LocalHP(), rounds=1, test=test, master_seed=5,
    )
    log = run_training(cfg)
    w0 = models.init_params(spec, streams.child_seed(5, "init"))
    rng = streams.stream(5, "client", shard.client_id, 1)
    hp = LocalHP()
    trained = models.sgd_train(
        spec, w0, shard.data, hp.epochs, hp.batch_size, hp.eta_w,
        int(rng.integers(0, 2**63)),
    )
    assert np.array_equal(log.rounds[0].w_next, w0 + (trained - w0))


def test_run_training_deterministic():
    spec, shards, test = make_scenario()
    a = run_training(make_config(spec, shards, test))
    b = run_training(make_config(spec, shards, test))
    assert a.final_utility == b.final_utility
    for ra, rb in zip(a.rounds, b.rounds):
        assert np.array_equal(ra.w_next, rb.w_next)
        for ua, ub in zip(ra.updates, rb.updates):
            assert np.array_equal(ua, ub)


def test_identical_shards_produce_identical_updates():
    spec, shards, test = make_scenario()
    # one run may not hold a client id twice, so three one-client runs hold
    # copies of one shard under its id: same data, same RNG stream, trained
    # in one lockstep call
    base = shards[0]
    clones = [ClientShard(base.client_id, base.data, base.class_counts) for _ in range(3)]
    logs = run_training_many([
        FLConfig(
            spec=spec, shards=[clone], behaviors=[benign],
            hp=LocalHP(), rounds=1, test=test, master_seed=4,
        )
        for clone in clones
    ])
    recs = [log.rounds[0] for log in logs]
    for rec in recs:
        assert np.array_equal(rec.updates[0], recs[0].updates[0])
        assert np.allclose(rec.w_next - rec.w_t, rec.updates[0], atol=1e-12)


def test_round_record_invariant_no_defense():
    spec, shards, test = make_scenario()
    log = run_training(make_config(spec, shards, test))
    for rec in log.rounds:
        agg = aggregate_all(list(rec.updates), list(rec.n))
        assert np.allclose(rec.w_next, rec.w_t + agg, atol=1e-12)


def test_client_failure_reports_round_and_client():
    spec, shards, test = make_scenario()

    def exploding(ctx, state):
        yield ctx.shard.data
        raise RuntimeError("boom")

    behaviors = [benign, exploding, benign]
    cfg = make_config(spec, shards, test, behaviors=behaviors)
    with pytest.raises(FLRunError) as err:
        run_training(cfg)
    assert err.value.round_index == 1
    assert err.value.client_id == 1


def test_benign_training_reaches_fixture_utility():
    # 5 benign clients on well-separated blobs; threshold frozen from an
    # oracle run of this exact fixture (observed 0.95).
    spec, shards, test = make_scenario(num_clients=5, seed=2, samples_per_client=40)
    cfg = make_config(spec, shards, test, rounds=20, master_seed=1)
    log = run_training(cfg)
    assert log.final_utility >= 0.85
    assert len(log.rounds) == 20
    assert [rec.t for rec in log.rounds] == list(range(1, 21))


def test_history_is_read_only_and_limited_to_broadcasts():
    spec, shards, test = make_scenario()
    seen = {}

    def spy(ctx, state):
        seen[ctx.t] = (ctx.w_t, ctx.w_prev)
        for broadcast in (ctx.w_t, ctx.w_prev):
            if broadcast is not None:
                with pytest.raises(ValueError):
                    broadcast[0] = 99.0
        return (yield from benign(ctx, state))

    behaviors = [spy] + [benign] * (len(shards) - 1)
    log = run_training(make_config(spec, shards, test, behaviors=behaviors))
    assert list(seen) == [1, 2, 3]
    assert seen[1][1] is None  # no broadcast before w_1
    for rec in log.rounds:
        w_t, w_prev = seen[rec.t]
        assert w_t is rec.w_t
        if rec.t > 1:
            assert w_prev is log.rounds[rec.t - 2].w_t


def test_save_load_round_trip(tmp_path):
    spec, shards, test = make_scenario()
    log = run_training(make_config(spec, shards, test))
    path = tmp_path / "run.log.jsonl"
    flcore.save_log(log, path)
    loaded = flcore.load_log(path)
    assert loaded.final_utility == log.final_utility
    assert loaded.fingerprint == log.fingerprint
    for ra, rb in zip(log.rounds, loaded.rounds):
        assert ra.t == rb.t
        assert np.array_equal(ra.w_t, rb.w_t)
        assert np.array_equal(ra.w_next, rb.w_next)
        assert ra.n == rb.n
        for ua, ub in zip(ra.updates, rb.updates):
            assert np.array_equal(ua, ub)


def test_load_log_rejects_a_header_that_disagrees_with_its_records(tmp_path):
    spec, shards, test = make_scenario()
    log = run_training(make_config(spec, shards, test, rounds=5))
    path = tmp_path / "run.log.jsonl"
    flcore.save_log(log, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    edited = json.loads(header)
    edited["final_utility"] = 2.0
    for lines in ([header, *rows[:3]], [header], [json.dumps(edited) + "\n", *rows]):
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="disagrees with its"):
            flcore.load_log(path)


def test_load_log_rejects_a_malformed_file_with_value_error(tmp_path):
    spec, shards, test = make_scenario()
    log = run_training(make_config(spec, shards, test, rounds=2))
    path = tmp_path / "run.log.jsonl"
    flcore.save_log(log, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    no_fingerprint = json.loads(header)
    del no_fingerprint["fingerprint"]
    no_diags = json.loads(rows[1])
    del no_diags["diags"]
    cases = {
        "line 1: malformed training log: KeyError('fingerprint')": [
            json.dumps(no_fingerprint) + "\n", *rows
        ],
        "line 3: malformed training log: KeyError('diags')": [
            header, rows[0], json.dumps(no_diags) + "\n"
        ],
        "line 1: malformed training log: JSONDecodeError": [],
    }
    for message, lines in cases.items():
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            flcore.load_log(path)
        assert str(err.value).startswith(f"{path}, {message}")


def saved_log(tmp_path, defense_mode):
    """A trained 4-client log saved under `defense_mode`, with its header and
    rows parsed."""
    spec, shards, test = make_scenario(num_clients=4)
    behaviors = [benign] * 3 + [partial(attacks.behavior_random_noise, sigma_rel=3.0)]
    log = run_training(
        make_config(
            spec, shards, test, behaviors=behaviors, defense_mode=defense_mode,
            trim_tau=0.3,
        )
    )
    path = tmp_path / "run.log.jsonl"
    flcore.save_log(log, path)
    header, *rows = map(json.loads, path.read_text().splitlines())
    return log, path, header, rows


def test_saved_log_stores_the_broadcast_and_counts_once(tmp_path):
    log, _, header, rows = saved_log(tmp_path, "enforce")
    assert header["defense_mode"] == log.defense_mode == "enforce"
    assert header["trim_tau"] == log.trim_tau == 0.3
    assert header["n"] == list(log.rounds[0].n)
    assert flcore._dec(header["w_1"]).tobytes() == log.rounds[0].w_t.tobytes()
    # the trim decisions are not stored: `load_log` recomputes them from the updates
    for row in rows:
        assert set(row) == {"t", "updates", "w_next", "test_utility_after", "diags"}


def shifted(blob, by):
    return flcore._enc(flcore._dec(blob) + by)


def with_nan(blob):
    vec = flcore._dec(blob)
    vec[0] = np.nan
    return flcore._enc(vec)


def rederived(h, r):
    """Every row's w_next re-derived from the header's w_1 and the rows'
    updates, as an untrimmed round gives it, so only the result check can
    tell what an edit of w_1 or an update broke."""
    w = flcore._dec(h["w_1"])
    for row in r:
        w = w + aggregate_all([flcore._dec(u) for u in row["updates"]], h["n"])
        row["w_next"] = flcore._enc(w)


def one_round(h, r, **fields):
    """The log cut to its first round, the header updated to match it and
    then by `fields`."""
    del r[1:]
    h.update({"rounds": 1, "final_utility": r[0]["test_utility_after"], **fields})


# name -> (defense mode, line of the first contradiction, edit of header and rows)
TAMPERING = {
    "w_next": ("off", 3, lambda h, r: r[1].update(w_next=shifted(r[1]["w_next"], 1.0))),
    "update": ("monitor", 2, lambda h, r: r[0].update(
        updates=[shifted(r[0]["updates"][0], 0.5), *r[0]["updates"][1:]]
    )),
    "t_out_of_order": ("off", 2, lambda h, r: r.insert(0, r.pop(1))),
    "t_beyond_rounds": ("off", 3, lambda h, r: r[1].update(t=99)),
    "short_diags": ("off", 2, lambda h, r: r[0].update(diags=r[0]["diags"][:2])),
    "short_n": ("off", 2, lambda h, r: h.update(n=h["n"][:3])),
    # the runner writes non-negative int counts and a trim_tau in (0, 1)
    "n_bools": ("off", 1, lambda h, r: h.update(n=[True] * len(h["n"]))),
    "n_fractional": ("off", 1, lambda h, r: h.update(n=[0.5] * len(h["n"]))),
    "n_empty": ("off", 1, lambda h, r: h.update(n=[])),
    "trim_tau_out_of_range": ("monitor", 1, lambda h, r: h.update(trim_tau=1.5)),
    "trim_tau_string": ("off", 1, lambda h, r: h.update(trim_tau="0.3")),
    "unknown_defense_mode": ("off", 1, lambda h, r: h.update(defense_mode="strict")),
    # ceil(0.99 * 4) = 4: the header's trim_tau trims every client
    "trims_every_client": ("enforce", 1, lambda h, r: h.update(trim_tau=0.99)),
    # one entry per client, but not an object or null
    "diags_string": ("off", 2, lambda h, r: r[0].update(diags="x" * len(r[0]["diags"]))),
    "diags_numbers": ("off", 2, lambda h, r: r[0].update(diags=[5] * len(r[0]["diags"]))),
    # a diag the runner would have rejected: it holds a bare NaN, which is no JSON
    "diags_nan": ("off", 2, lambda h, r: r[0].update(diags=[{"x": np.nan}] * len(r[0]["diags"]))),
    # an update the runner would have rejected: non-finite, or not shaped like w_t
    "update_nan": ("off", 2, lambda h, r: (
        r[0].update(updates=[with_nan(r[0]["updates"][0]), *r[0]["updates"][1:]]),
        rederived(h, r),
    )),
    "w_1_short": ("off", 2, lambda h, r: (
        h.update(w_1=flcore._enc(flcore._dec(h["w_1"])[:1])), rederived(h, r)
    )),
    # the runner starts from a finite w_1 (`init_params`), so the header must hold one
    "w_1_nan": ("off", 1, lambda h, r: (h.update(w_1=with_nan(h["w_1"])), rederived(h, r))),
    "utility_string": ("off", 2, lambda h, r: r[0].update(test_utility_after="high")),
    "utility_list": ("off", 2, lambda h, r: r[0].update(test_utility_after=[1])),
    "utility_bool": ("off", 2, lambda h, r: r[0].update(test_utility_after=True)),
    "utility_above_one": ("off", 2, lambda h, r: r[0].update(test_utility_after=1.5)),
    # the header agrees with the last row, but its own type check rejects it
    "final_utility_string": ("off", 1, lambda h, r: (
        r[-1].update(test_utility_after="high"), h.update(final_utility="high")
    )),
    # each field of the JSON type save_log writes: a bool or float is no
    # round, a number no fingerprint, and the runner writes utilities as floats
    "t_bool": ("off", 2, lambda h, r: r[0].update(t=True)),
    "t_float": ("off", 3, lambda h, r: r[1].update(t=2.0)),
    "rounds_float": ("off", 1, lambda h, r: one_round(h, r, rounds=1.0)),
    "rounds_bool": ("off", 1, lambda h, r: one_round(h, r, rounds=True)),
    "fingerprint_number": ("off", 1, lambda h, r: h.update(fingerprint=5)),
    "fingerprint_list": ("off", 1, lambda h, r: h.update(fingerprint=[1])),
    # the header's 1.0 equals the last row's 1, so only the row check can tell
    "utility_int": ("off", 4, lambda h, r: (
        r[-1].update(test_utility_after=1), h.update(final_utility=1.0)
    )),
}
# what the error must name where its line alone does not show the check
NAMED = {
    "trims_every_client": "trims all 4 clients", "n_empty": "at least one client",
    "update_nan": "bad update shape or non-finite", "w_1_short": "bad update shape or non-finite",
    "w_1_nan": "bad w_1 shape or non-finite", "diags_nan": "cannot be written to the log",
}


def test_load_log_keeps_a_client_without_samples(tmp_path):
    log = run_with_client_without_samples()
    assert log.rounds[0].n == (30, 30, 0)
    flcore.save_log(log, tmp_path / "run.log.jsonl")
    assert_logs_identical(log, flcore.load_log(tmp_path / "run.log.jsonl"))


@pytest.mark.parametrize("kind", TAMPERING)
def test_load_log_rejects_a_log_that_contradicts_itself(tmp_path, kind):
    mode, line, edit = TAMPERING[kind]
    _, path, header, rows = saved_log(tmp_path, mode)
    edit(header, rows)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *rows)))
    with pytest.raises(ValueError) as err:
        flcore.load_log(path)
    assert str(err.value).startswith(f"{path}, line {line}: ")
    assert NAMED.get(kind, "") in str(err.value)


def test_defense_enforce_changes_aggregate_membership():
    spec, shards, test = make_scenario()

    def outlier(ctx, state):
        return np.full(spec.param_count, 50.0), state, None

    behaviors = [benign, benign, outlier]
    cfg = make_config(
        spec, shards, test, behaviors=behaviors, defense_mode="enforce",
        trim_tau=0.3,  # ceil(0.3 * 3) = 1 trimmed per round
    )
    log = run_training(cfg)
    for rec in log.rounds:
        assert rec.trim is not None
        assert rec.trim.trimmed == {2}
        agg = aggregate_all(
            [rec.updates[i] for i in sorted(rec.trim.kept)],
            [rec.n[i] for i in sorted(rec.trim.kept)],
        )
        assert np.allclose(rec.w_next, rec.w_t + agg, atol=1e-12)


def assert_logs_identical(a, b):
    assert (a.fingerprint, a.defense_mode, a.trim_tau, a.final_utility, len(a.rounds)) == (
        b.fingerprint, b.defense_mode, b.trim_tau, b.final_utility, len(b.rounds)
    )
    for ra, rb in zip(a.rounds, b.rounds):
        assert (ra.t, ra.n, ra.test_utility_after) == (rb.t, rb.n, rb.test_utility_after)
        assert len(ra.updates) == len(rb.updates)
        for va, vb in zip((ra.w_t, ra.w_next, *ra.updates), (rb.w_t, rb.w_next, *rb.updates)):
            assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes()
        assert (ra.trim is None) == (rb.trim is None)
        if ra.trim is not None:
            assert (ra.trim.t, ra.trim.trimmed, ra.trim.kept) == (
                rb.trim.t, rb.trim.trimmed, rb.trim.kept
            )
            assert ra.trim.distances.tobytes() == rb.trim.distances.tobytes()
        assert ra.diags == rb.diags


@pytest.mark.parametrize("kind", ["logistic", "mlp1"])
def test_lockstep_benign_training_matches_per_client_path(kind):
    spec, shards, test = make_scenario(num_clients=5)
    if kind == "mlp1":
        spec = ModelSpec("mlp1", input_dim=2, num_classes=3, hidden_dim=5)
    attacker = partial(attacks.behavior_random_noise, sigma_rel=2.0)

    def per_client(ctx, state):
        # trains alone through its own `_drive` call, outside the lockstep calls
        return flcore._drive([(ctx, benign, state)])[0]

    logs = [
        run_training(
            make_config(
                spec, shards, test, rounds=4,
                behaviors=[behavior] * (len(shards) - 1) + [attacker],
                defense_mode="enforce", trim_tau=0.2,
            )
        )
        for behavior in (benign, per_client)
    ]
    assert_logs_identical(*logs)


def test_latent_attacker_config_runs_twice_identically():
    # the attack's latent cache lives in the run, so a second run of the same
    # config starts from a fresh state and repeats the first bit for bit
    spec, shards, test = make_scenario()
    behaviors = [benign, latent_attacker(spec, test), benign]
    cfg = make_config(spec, shards, test, rounds=4, behaviors=behaviors)
    first = run_training(cfg)
    assert_logs_identical(first, run_training(cfg))
    for rec in first.rounds:
        assert rec.diags[0] is None and rec.diags[2] is None
        assert set(rec.diags[1]) >= {"l1", "l2", "l3", "clipped", "update_norm"}


def test_a_latent_attacker_trains_in_its_round_s_one_lockstep_call(monkeypatch):
    # the attacker's hybrid set (200 shard rows and 32 decoded ones) is larger
    # than a benign shard, and still joins the benign clients' call
    spec, shards, test = make_scenario(samples_per_client=200, samples_per_class=400)
    behaviors = [benign, latent_attacker(spec, test, synth_batch=32), benign]
    sizes = []

    def spy(spec, params, datas, *args):
        sizes.append(sorted(len(data) for data in datas))
        return models.sgd_train_many(spec, params, datas, *args)

    monkeypatch.setattr(flcore, "sgd_train_many", spy)
    run_training(make_config(spec, shards, test, rounds=3, behaviors=behaviors))
    assert sizes == [[200, 200, 232]] * 3


def test_lockstep_failure_names_the_failing_client():
    spec, shards, test = make_scenario()
    data = shards[2].data
    bad = models.LabeledBatch(data.inputs, np.full(len(data), spec.num_classes))
    shards = shards[:2] + [ClientShard.build(2, bad, spec.num_classes + 1)]
    with pytest.raises(FLRunError, match="label out of range") as err:
        run_training(make_config(spec, shards, test))
    assert (err.value.round_index, err.value.client_id) == (1, 2)


def test_run_training_many_matches_each_run_alone(monkeypatch):
    # training sets of different runs, of any size, share lockstep calls
    # when model and hyperparameters agree; a round's close trims runs together
    # when client count, parameter count and trim_tau agree, and scores them
    # together when model and test set agree
    spec, shards, test = make_scenario(num_clients=5)
    mlp = ModelSpec("mlp1", input_dim=2, num_classes=3, hidden_dim=4)
    cut = shards[4].data
    short = models.LabeledBatch(cut.inputs[:25], cut.labels[:25])
    uneven = [*shards[:4], ClientShard.build(4, short, 3)]
    latent = latent_attacker(spec, test)
    noise = partial(attacks.behavior_random_noise, sigma_rel=2.0)
    slow = LocalHP(epochs=1, batch_size=8, eta_w=0.05)
    enforce = dict(defense_mode="enforce", trim_tau=0.2)
    half_test = models.LabeledBatch(test.inputs[::2], test.labels[::2])
    cfgs = [
        make_config(
            spec, shards, test, rounds=4,
            behaviors=[benign] * 2 + [noise, attacks.behavior_direct_ref, benign],
        ),
        make_config(
            spec, uneven, test, rounds=3, defense_mode="monitor", trim_tau=0.2,
            behaviors=[benign, attacks.behavior_label_flip, benign, latent, benign],
        ),
        make_config(
            spec, shards, test, rounds=2, hp=slow,
            behaviors=[attacks.behavior_free_rider] + [benign] * 4, **enforce,
        ),
        make_config(
            spec, uneven, test, rounds=4, master_seed=3,
            behaviors=[benign] * 4 + [latent], **enforce,
        ),
        make_config(mlp, shards[:4], test, rounds=3, hp=slow),
        make_config(spec, shards[1:], test, rounds=1),
        # the round close batches runs too; these must stay apart from the
        # runs above: another test set, another trim_tau, another model
        make_config(spec, shards, half_test, rounds=2),
        make_config(spec, shards, test, rounds=2, defense_mode="enforce", trim_tau=0.4),
        make_config(mlp, shards, test, rounds=3, defense_mode="monitor", trim_tau=0.2),
    ]
    sizes, trimmed, scored = [], [], []

    def spy(spec, params, *args):
        sizes.append(len(params))
        return models.sgd_train_many(spec, params, *args)

    def trim_spy(rounds, *args, **kw):
        trimmed.append(len(rounds))
        return defense.trim_rounds(rounds, *args, **kw)

    def score_spy(spec, params, groups):
        scored.append(len(params))
        return models.count_correct(spec, params, groups)

    monkeypatch.setattr(flcore, "sgd_train_many", spy)
    monkeypatch.setattr(flcore, "trim_rounds", trim_spy)
    monkeypatch.setattr(flcore, "count_correct", score_spy)
    logs = run_training_many(cfgs)
    assert max(sizes) > len(shards)  # some call trained clients of several runs
    assert max(trimmed) > 1 and max(scored) > 1  # and some closed several runs
    monkeypatch.undo()
    assert len(logs) == len(cfgs)
    for cfg, log in zip(cfgs, logs):
        assert_logs_identical(log, run_training(cfg))
    assert run_training_many([]) == []


def test_run_training_many_groups_each_test_set_once(monkeypatch):
    # seven runs on one test set, as retrain leave-one-out gives at N = 6,
    # and one run on another
    spec, shards, test = make_scenario(num_clients=6)
    half_test = models.LabeledBatch(test.inputs[::2], test.labels[::2])
    base = make_config(spec, shards, test, rounds=2)
    cfgs = [
        base,
        *(base.without_client(s.client_id) for s in shards),
        make_config(spec, shards, half_test, rounds=2),
    ]
    grouped = []

    def spy(spec, batch):
        grouped.append(batch)
        return models.group_by_label(spec, batch)

    monkeypatch.setattr(flcore, "group_by_label", spy)
    logs = run_training_many(cfgs)
    assert [id(batch) for batch in grouped] == [id(test), id(half_test)]
    monkeypatch.undo()
    for cfg, log in zip(cfgs[-2:], logs[-2:]):
        assert_logs_identical(log, run_training(cfg))


def test_run_training_many_failure_names_the_run_round_and_client():
    spec, shards, test = make_scenario()

    def exploding_in_round_2(ctx, state):
        update = yield ctx.shard.data
        if ctx.t == 2:  # fails when resumed after its lockstep training
            raise RuntimeError("boom")
        return update, state, None

    cfgs = [
        make_config(spec, shards, test, rounds=4),
        make_config(spec, shards[1:], test, behaviors=[benign, exploding_in_round_2]),
        make_config(spec, shards, test, rounds=1),
    ]
    with pytest.raises(FLRunError, match="boom") as err:
        run_training_many(cfgs)
    assert (err.value.round_index, err.value.client_id) == (2, 2)
    # a shard that fails lockstep validation is named even when its group
    # holds valid clients of other runs
    data = shards[2].data
    bad = models.LabeledBatch(data.inputs, np.full(len(data), spec.num_classes))
    broken = shards[:2] + [ClientShard.build(2, bad, spec.num_classes + 1)]
    with pytest.raises(FLRunError, match="label out of range") as err:
        run_training_many([cfgs[0], make_config(spec, broken, test)])
    assert (err.value.round_index, err.value.client_id) == (1, 2)


def test_a_set_shared_by_runs_is_checked_once_per_pass(monkeypatch):
    spec, shards, test = make_scenario()
    checked, check = [], flcore._check_batch

    def spy(spec, batch):
        checked.append(batch)
        return check(spec, batch)

    monkeypatch.setattr(flcore, "_check_batch", spy)
    run_training_many([make_config(spec, shards, test, rounds=2)] * 3)
    assert [id(batch) for batch in checked] == [id(s.data) for s in shards] * 2
    # a bad set that several runs share blames the first step that yields it
    data = shards[2].data
    bad = models.LabeledBatch(data.inputs, np.full(len(data), spec.num_classes))
    cfgs = [
        make_config(spec, shards[:2] + [ClientShard.build(i, bad, spec.num_classes + 1)], test)
        for i in (5, 2)
    ]
    with pytest.raises(FLRunError, match="label out of range") as err:
        run_training_many(cfgs)
    assert (err.value.round_index, err.value.client_id) == (1, 5)


@pytest.mark.parametrize(
    "bad_set, message",
    [
        (lambda data: models.LabeledBatch(data.inputs[:, :1], data.labels), "columns"),
        (lambda data: models.LabeledBatch(np.zeros((0, 2)), np.zeros(0)), "batch is empty"),
        (lambda data: data.inputs, "no attribute"),
    ],
)
def test_a_bad_yielded_training_set_names_its_round_and_client(bad_set, message):
    # each yielded set is checked before it joins a lockstep group
    spec, shards, test = make_scenario()

    def yields_bad_set_in_round_2(ctx, state):
        update = yield (bad_set(ctx.shard.data) if ctx.t == 2 else ctx.shard.data)
        return update, state, None

    cfgs = [
        make_config(spec, shards, test),
        make_config(spec, shards, test, behaviors=[benign, yields_bad_set_in_round_2, benign]),
    ]
    with pytest.raises(FLRunError, match=message) as err:
        run_training_many(cfgs)
    assert (err.value.round_index, err.value.client_id) == (2, 1)
    # driven alone, the set is checked the same way, before its seed is drawn
    rng = np.random.default_rng(3)
    ctx = RoundContext(spec, 2, models.init_params(spec, 0), None, shards[1], LocalHP(), rng)
    with pytest.raises(FLRunError, match=message) as err:
        flcore._drive([(ctx, yields_bad_set_in_round_2, None)])[0]
    assert (err.value.round_index, err.value.client_id) == (2, 1)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def trains_then_returns_nan(ctx, state):
    update = yield ctx.shard.data
    return update * np.nan, state, None


@pytest.mark.parametrize(
    "behavior",
    [
        trains_then_returns_nan,
        lambda ctx, state: (np.full_like(ctx.w_t, np.inf), state, None),
        lambda ctx, state: (ctx.w_t[1:], state, None),
    ],
    ids=["trained-nan", "returned-inf", "short"],
)
def test_a_bad_update_names_its_round_and_client(behavior):
    spec, shards, test = make_scenario()
    cfg = make_config(spec, shards, test, behaviors=[benign, benign, behavior])
    with pytest.raises(FLRunError, match="bad update shape or non-finite") as err:
        run_training(cfg)
    assert (err.value.round_index, err.value.client_id) == (1, 2)
    ctx = RoundContext(spec, 4, models.init_params(spec, 0), None, shards[0], cfg.hp,
                       np.random.default_rng(0))
    with pytest.raises(FLRunError, match="bad update shape or non-finite") as err:
        flcore._drive([(ctx, behavior, None)])[0]
    assert (err.value.round_index, err.value.client_id) == (4, 0)


def test_a_diag_that_is_not_a_dict_names_its_round_and_client(monkeypatch):
    # `load_log` would reject the log, and `save_log` could not write the
    # others as strict JSON, so the round fails before it closes
    spec, shards, test = make_scenario()
    closed, close = [], flcore._close_round
    monkeypatch.setattr(
        flcore, "_close_round", lambda runs, t, steps: (closed.append(t), close(runs, t, steps))
    )
    cases = [
        (["norm", 1.0], "is not a dict or None"),
        ({"count": np.int64(3)}, "cannot be written to the log"),
        ({"seen": {1, 2}}, "cannot be written to the log"),
        ({1: 0.5, "norm": 1.0}, "cannot be written to the log"),
        ({"x": float("nan")}, "cannot be written to the log"),
        ({"norm": float("inf")}, "cannot be written to the log"),
        ({"steps": [1.0, float("-inf")]}, "cannot be written to the log"),
    ]
    for diag, message in cases:

        def gives_the_diag_in_round_2(ctx, state):
            update = yield ctx.shard.data
            return update, state, diag if ctx.t == 2 else None

        closed.clear()
        behaviors = [benign, gives_the_diag_in_round_2, benign]
        with pytest.raises(FLRunError, match=message) as err:
            run_training(make_config(spec, shards, test, behaviors=behaviors))
        assert (err.value.round_index, err.value.client_id) == (2, 1)
        assert closed == [1]


def test_a_base_exception_in_a_step_passes_through_unwrapped(monkeypatch):
    # only an Exception is blamed on its round and client: an interrupt or an
    # exit, raised where a step starts, resumes or trains, reaches the caller
    spec, shards, test = make_scenario()

    class Halt(BaseException):
        pass

    def halts_at_once(ctx, state):
        raise Halt

    def halts_after_training(ctx, state):
        yield ctx.shard.data
        raise Halt

    for behavior in (halts_at_once, halts_after_training):
        cfg = make_config(spec, shards, test, behaviors=[benign, behavior, benign])
        with pytest.raises(Halt):
            run_training(cfg)

    def halting_training(*args):
        raise Halt

    monkeypatch.setattr(flcore, "sgd_train_many", halting_training)
    with pytest.raises(Halt):
        run_training(make_config(spec, shards, test))


def test_a_stop_iteration_from_a_plain_step_names_its_round_and_client():
    # a StopIteration is an Exception like any other: it is blamed on its
    # round and client, not passed through as a generator's end would be
    spec, shards, test = make_scenario()

    def stops(ctx, state):
        return next(iter([]))

    cfg = make_config(spec, shards, test, behaviors=[benign, stops, benign])
    with pytest.raises(FLRunError) as err:
        run_training(cfg)
    assert (err.value.round_index, err.value.client_id) == (1, 1)
    assert isinstance(err.value.__cause__, StopIteration)


def test_a_step_driven_alone_trains_each_yield_like_the_runner():
    # a step may yield several training sets; each is trained from w_t with
    # the next seed of its stream, in a run and driven alone alike
    spec, shards, test = make_scenario()

    def twice(ctx, state):
        first = yield ctx.shard.data
        second = yield ctx.shard.data
        return first + second, state, {"equal": bool(np.array_equal(first, second))}

    cfg = make_config(spec, shards, test, rounds=2, behaviors=[benign, twice, benign])
    log = run_training(cfg)
    for rec in log.rounds:
        rng = streams.stream(cfg.master_seed, "client", 1, rec.t)
        ctx = RoundContext(spec, rec.t, rec.w_t, None, shards[1], cfg.hp, rng)
        update, state, diag = flcore._drive([(ctx, twice, "kept")])[0]
        assert rec.updates[1].tobytes() == update.tobytes()
        assert state == "kept" and rec.diags[1] == diag == {"equal": False}
    # a step that returns without yielding is passed through
    free = flcore._drive([(ctx, attacks.behavior_free_rider, None)])[0]
    assert free[0].tobytes() == np.zeros(spec.param_count).tobytes()


run_params = dict(num_clients=st.integers(2, 6), master_seed=st.integers(0, 2**31 - 1))


@settings(max_examples=15, deadline=None)
@given(
    **run_params, defense_mode=st.sampled_from(flcore.DEFENSE_MODES),
    trim_tau=st.floats(0.05, 0.49),
)
def test_property_log_round_trip(num_clients, master_seed, defense_mode, trim_tau):
    spec, shards, test = make_scenario(num_clients=num_clients, seed=master_seed % 7)
    # one attacker that emits diagnostics, one that does not
    noise = partial(attacks.behavior_random_noise, sigma_rel=3.0)
    behaviors = [latent_attacker(spec, test), noise] + [benign] * (num_clients - 2)
    log = run_training(
        make_config(
            spec, shards, test, behaviors=behaviors, master_seed=master_seed,
            defense_mode=defense_mode, trim_tau=trim_tau, fingerprint="f00d",
        )
    )
    assert all(rec.diags[0] is not None for rec in log.rounds)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.log.jsonl"
        flcore.save_log(log, path)
        loaded = flcore.load_log(path)
    # the loaded trim decisions are recomputed, each equal to the runner's
    assert loaded.trim_tau == trim_tau
    assert_logs_identical(log, loaded)


@settings(max_examples=15, deadline=None)
@given(**run_params, drop=st.integers(0, 5))
def test_property_without_client_keeps_other_first_updates(num_clients, master_seed, drop):
    spec, shards, test = make_scenario(num_clients=num_clients)
    cfg = make_config(spec, shards, test, rounds=1, master_seed=master_seed)
    drop %= num_clients
    full = run_training(cfg).rounds[0].updates
    reduced = run_training(cfg.without_client(drop)).rounds[0].updates
    kept = [u for i, u in enumerate(full) if i != drop]
    assert [u.tobytes() for u in kept] == [u.tobytes() for u in reduced]
