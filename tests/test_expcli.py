import csv
import itertools
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fedattr import attacks, data, flcore, models
from fedattr.attribution import EVALUATORS, AttributionReport
from fedattr.expcli import cli
from fedattr.expcli.config import (
    _BOUNDS,
    _FIELD_TYPES,
    _MAX,
    ATTACKS,
    TARGET_RULES,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
)
from fedattr.expcli.experiment import (
    _make_attack_behavior,
    build_scenario,
    report_payload,
    run_experiment,
    select_malicious,
    sweep,
    write_run_outputs,
)

TINY = dict(
    num_classes=4,
    num_clients=4,
    samples_per_class=100,
    samples_per_client=50,
    rounds=3,
    synth_batch=8,
    latent_steps=2,
    pool_samples_per_class=20,
)


def tiny_config(**kw):
    merged = {**TINY, **kw}
    return ExperimentConfig(**merged)


# --- config ------------------------------------------------------------------


def test_parse_config_round_trip():
    cfg = tiny_config(attack="label_flip", master_seed=5)
    parsed = parse_config(cfg.canonical())
    assert parsed == cfg
    assert parsed.fingerprint == cfg.fingerprint


def test_parse_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config("rounds = 3\nrounds = 4\n")
    with pytest.raises(ConfigError):
        parse_config("rounds\n")
    with pytest.raises(ConfigError):
        parse_config("rounds = many\n")
    with pytest.raises(ConfigError):
        parse_config("attack = shadow\n")


def test_config_comments_and_blanks_ok(tmp_path):
    text = "# comment line\n\nrounds = 4  # trailing comment\nattack = free_rider\n"
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.rounds == 4
    assert cfg.attack == "free_rider"


def test_fingerprint_changes_with_values():
    assert tiny_config().fingerprint != tiny_config(master_seed=2).fingerprint


def test_evaluator_list_has_one_spelling():
    spellings = [
        tiny_config(evaluators=e) for e in ("fedsv_exact", "fedsv_exact,", " fedsv_exact ")
    ]
    assert spellings[0] == spellings[1] == spellings[2]
    assert {cfg.fingerprint for cfg in spellings} == {spellings[0].fingerprint}
    assert spellings[2].evaluators == "fedsv_exact"
    assert tiny_config(evaluators=" loo_round, fedsv_mc,").evaluators == "loo_round,fedsv_mc"


def test_evaluator_list_validation():
    assert tiny_config(evaluators="fedsv_exact, loo_round").evaluator_list == (
        "fedsv_exact",
        "loo_round",
    )
    with pytest.raises(ConfigError):
        tiny_config(evaluators="fedsv_exact,banzhaf")


# --- malicious selection --------------------------------------------------------


def test_select_malicious_rules():
    report = AttributionReport.from_raw(np.array([0.5, 0.3, 0.2]))
    assert select_malicious(report, "lowest_rank") == 2
    assert select_malicious(report, "rank_k", 1) == 0
    assert select_malicious(report, "rank_k", 2) == 1
    with pytest.raises(ConfigError):
        select_malicious(report, "rank_k", 4)
    tied = AttributionReport.from_raw(np.array([0.4, 0.4, 0.2]))
    assert select_malicious(tied, "rank_k", 1) == 0  # tie inherited from ranking


# --- experiments -----------------------------------------------------------------


@pytest.fixture(scope="module")
def free_report():
    return run_experiment(tiny_config(attack="attack_free"))


def test_attack_free_phases_identical(free_report):
    r = free_report
    assert r.u0 == r.u1
    assert r.utility_within_delta
    for phases in r.evaluations.values():
        assert np.array_equal(phases["attack_free"].raw, phases["attacked"].raw)


def test_zero_intensity_latent_equals_attack_free():
    r = run_experiment(tiny_config(attack="latent_opt", intensity=0.0))
    for a, b in zip(r.attack_free_log.rounds, r.attacked_log.rounds):
        assert np.array_equal(a.w_next, b.w_next)
        for ua, ub in zip(a.updates, b.updates):
            assert np.array_equal(ua, ub)


def test_lowest_rank_target_has_zero_share(free_report):
    primary = free_report.evaluations["fedsv_exact"]["attack_free"]
    assert primary.shares[free_report.malicious_id] == 0.0
    assert primary.ranks[free_report.malicious_id] == 4


def test_run_report_payload_and_outputs(tmp_path):
    cfg = tiny_config(
        attack="latent_opt", defense_mode="monitor", evaluators="loo_round,fedsv_exact"
    )
    report = run_experiment(cfg)
    payload = report_payload(report)
    assert payload["fingerprint"] == cfg.fingerprint
    # each fact once: the config's delta is not repeated at the top level
    assert set(payload) == {
        "config", "detection", "evaluators", "fingerprint", "kappa", "malicious_id",
        "u0", "u1", "utility_within_delta",
    }
    assert payload["config"]["rounds"] == 3
    assert payload["detection"] is not None  # monitor mode scores detection

    run_dir = write_run_outputs(report, tmp_path)
    expected = {
        "config.txt",
        "attack_free.log.jsonl",
        "attacked.log.jsonl",
        "attribution.csv",
        "report.json",
        "diagnostics.jsonl",
        "detection.csv",  # defense is active in monitor mode
    }
    names = {p.name for p in run_dir.iterdir() if p.is_file()}
    assert expected <= names
    detection_lines = (run_dir / "detection.csv").read_text().splitlines()
    assert detection_lines[0] == "run_id,defense_mode,precision,recall,f1"
    assert (run_dir / "plots" / "share_composition.svg").exists()

    # every table ends its lines with a bare newline, like the other files
    for table in ("attribution.csv", "detection.csv"):
        text = (run_dir / table).read_bytes()
        assert b"\r" not in text and text.endswith(b"\n"), table
    with open(run_dir / "attribution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "evaluator", "client_id", "raw", "share", "rank", "phase"]
    data_rows = rows[1:]
    # one row per client, phase within evaluator, evaluators in config order
    assert [(row[0], row[1], row[6], row[2]) for row in data_rows] == [
        (cfg.fingerprint, name, phase, str(i))
        for name in cfg.evaluator_list
        for phase in ("attack_free", "attacked")
        for i in range(cfg.num_clients)
    ]
    # round-trip: stored raw/share values parse back exactly
    stored = json.loads((run_dir / "report.json").read_text())
    for row in data_rows:
        phase = row[6]
        i = int(row[2])
        assert float(row[3]) == stored["evaluators"][row[1]][phase]["raw"][i]
        assert float(row[4]) == stored["evaluators"][row[1]][phase]["shares"][i]
        assert int(row[5]) == stored["evaluators"][row[1]][phase]["ranks"][i]

    diag_lines = (run_dir / "diagnostics.jsonl").read_text().strip().splitlines()
    assert len(diag_lines) == cfg.rounds
    first = json.loads(diag_lines[0])
    assert {"l1", "l2", "l3", "effective_alpha", "clipped", "t"} <= set(first)


def test_run_outputs_byte_identical(tmp_path):
    cfg = tiny_config(attack="latent_opt")
    dirs = []
    for sub in ("a", "b"):
        report = run_experiment(cfg)
        dirs.append(write_run_outputs(report, tmp_path / sub))
    files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()


def test_sweep_intensity(tmp_path):
    cfg = tiny_config(attack="latent_opt")
    values = [0, 1]
    reports = sweep(cfg, "intensity", values, tmp_path)
    assert len(reports) == 2
    for report in reports:
        for phases in report.evaluations.values():
            assert phases["attacked"].shares.sum() == pytest.approx(1.0, abs=1e-9)
    text = (tmp_path / "sweep_intensity.csv").read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    summary = text.decode().splitlines()
    header = "axis,value,run_id,evaluator,malicious_id,share_before,share_after,u0,u1"
    assert summary[0] == header
    assert len(summary) == 3
    assert (tmp_path / "plots" / "intensity_curve.svg").exists()


def test_sweep_num_clients_and_target_rank(tmp_path):
    cfg = tiny_config(attack="free_rider", samples_per_client=30)
    reports = sweep(cfg, "num_clients", [4, 6, 8], tmp_path)
    assert [len(r.evaluations["fedsv_exact"]["attacked"].shares) for r in reports] == [4, 6, 8]
    for r in reports:
        for phases in r.evaluations.values():
            for rep in phases.values():
                assert rep.shares.sum() == pytest.approx(1.0, abs=1e-9)
    cfg = tiny_config(attack="free_rider")
    rank_reports = sweep(cfg, "target_rank", [1, 4], tmp_path)
    assert rank_reports[0].target_rank("fedsv_exact", "attack_free") == 1
    assert rank_reports[1].target_rank("fedsv_exact", "attack_free") == 4
    with pytest.raises(ConfigError):
        sweep(cfg, "noise", [1], tmp_path)
    with pytest.raises(ConfigError):
        sweep(cfg, "intensity", [], tmp_path)


def test_latent_diagnostics_alpha(tmp_path):
    cfg = tiny_config(attack="latent_opt")
    report = run_experiment(cfg)
    alphas = {d["effective_alpha"] for d in report.diagnostics}
    assert alphas == {8 / 58}  # synth_batch 8 against shard size 50


# --- plots -------------------------------------------------------------------------


def test_intensity_plot_has_one_tick_per_value(tmp_path):
    cfg = tiny_config(attack="latent_opt")
    values = [0, 0.5, 1, 2, 3, 4]
    payloads = [report_payload(run_experiment(replace(cfg, intensity=v))) for v in values]
    from fedattr.expcli.plots import intensity_curve_chart

    path = tmp_path / "curve.svg"
    intensity_curve_chart(payloads, values, path)
    text = path.read_text()
    assert text.count("x</text>") == 6
    assert text.startswith("<svg")


def test_sweep_charts_plot_the_primary_evaluator(tmp_path):
    # the first configured evaluator picks the attacker, and the charts show
    # its shares, not those of the alphabetically first evaluator
    cfg = tiny_config(attack="free_rider", evaluators="loo_round,fedsv_exact")
    values = [1, 4]
    reports = sweep(cfg, "target_rank", values, tmp_path)
    svg = (tmp_path / "plots" / "grouped_target_rank.svg").read_text()
    titles = set(re.findall(r"<title>(share_\w+)@(\w+): ([0-9.]+)</title>", svg))
    expected = {
        (series, str(value), f"{report.target_share('loo_round', phase):.4f}")
        for value, report in zip(values, reports)
        for series, phase in (("share_before", "attack_free"), ("share_after", "attacked"))
    }
    assert titles == expected
    other = {
        f"{report.target_share('fedsv_exact', 'attacked'):.4f}" for report in reports
    }
    assert other - {share for _, _, share in titles}  # the charts would differ


def test_share_chart_segments_cover_full_bar(tmp_path):
    report = run_experiment(tiny_config(attack="label_flip"))
    payload = report_payload(report)
    from fedattr.expcli.plots import share_composition_chart

    path = tmp_path / "comp.svg"
    share_composition_chart(payload, path)
    text = path.read_text()
    assert text.count("<rect") >= 2 + 2 * 4  # two phase bars of 4 segments each
    # deterministic bytes
    share_composition_chart(payload, tmp_path / "comp2.svg")
    assert (tmp_path / "comp2.svg").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("n", [9, 12, 20])
def test_share_chart_legend_stays_on_the_canvas(tmp_path, n):
    from fedattr.expcli.plots import share_composition_chart

    view = {"shares": [1 / n] * n}
    payload = {
        "fingerprint": "f" * 12,
        "malicious_id": n - 1,
        "evaluators": {"fedsv_exact": {"attack_free": view, "attacked": view}},
    }
    path = tmp_path / "comp.svg"
    share_composition_chart(payload, path)
    svg = path.read_text()
    width, height = map(int, re.search(r'width="(\d+)" height="(\d+)"', svg).groups())
    swatches = re.findall(
        r'<rect x="([0-9.]+)" y="([0-9.]+)" width="10.000" height="10.000"', svg
    )
    labels = re.findall(r'<text x="([0-9.]+)" y="([0-9.]+)"[^>]*>c\d+\*?</text>', svg)
    assert len(swatches) == len(labels) == n
    for x, y in swatches:
        assert float(x) + 10 <= width and float(y) + 10 <= height
    for x, y in labels:
        assert float(x) < width and float(y) <= height


# --- CLI ---------------------------------------------------------------------------


def write_tiny_config(tmp_path, **kw):
    cfg = tiny_config(**kw)
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.canonical())
    return cfg, path


def test_cli_run_and_plot(tmp_path, capsys):
    cfg, path = write_tiny_config(tmp_path, attack="free_rider")
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert cfg.fingerprint in printed
    run_dirs = list(out_dir.glob("run_*"))
    assert len(run_dirs) == 1

    code = cli.main(["plot", "--run", str(run_dirs[0])])
    assert code == 0
    assert (run_dirs[0] / "plots" / "share_composition.svg").exists()


def test_cli_plot_rejects_a_malformed_report(tmp_path, capsys):
    for text in ("{}", "not json", '{"evaluators": {"loo_round": 1}}'):
        (tmp_path / "report.json").write_text(text)
        assert cli.main(["plot", "--run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: malformed")
    assert not (tmp_path / "plots").exists()


def test_cli_sweep(tmp_path, capsys):
    _, path = write_tiny_config(tmp_path, attack="latent_opt")
    code = cli.main(
        [
            "sweep", "--config", str(path), "--out", str(tmp_path / "out"),
            "--axis", "intensity", "--values", "0,1",
        ]
    )
    assert code == 0
    assert (tmp_path / "out" / "sweep_intensity.csv").exists()


def test_cli_sweep_values_parse_as_int_or_float(tmp_path, capsys):
    _, path = write_tiny_config(tmp_path, attack="latent_opt")
    out = tmp_path / "out"
    args = ["sweep", "--config", str(path), "--out", str(out), "--axis", "intensity"]
    assert cli.main([*args, "--values", "1e-1,1"]) == 0
    assert "intensity=0.1:" in capsys.readouterr().out
    assert cli.main([*args, "--values", "1,lots"]) == 2
    assert "'lots' is not a number" in capsys.readouterr().err


def test_cli_check_rejects_run_flags(monkeypatch, capsys):
    from fedattr.expcli import acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda: [])
    for flag, value in (
        ("--config", "x.cfg"), ("--out", "o"), ("--seed", "3"),
        ("--evaluator", "loo_round"), ("--defense", "monitor"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"num_clients": 20, "samples_per_client": 10}, "enumeration guard (16)"),
        ({"evaluators": "fedsv_mc", "mc_permutations": 0}, "mc_permutations"),
        ({"rounds": 0}, "rounds must be at least 1"),
        ({"defense_mode": "enforce", "trim_tau": 1.5}, "trim_tau must be in (0, 1)"),
        ({"defense_mode": "enforce", "trim_tau": 0.9}, "trims all 4 clients"),
        ({"num_clients": 1}, "num_clients must be at least 2"),
        ({"samples_per_client": 10_000}, "needs 10000 training samples of one class"),
        ({"generator": "foo"}, "unknown generator 'foo'"),
        ({"input_dim": 1}, "generators require input_dim >= 2"),
        ({"noise_scale": 0}, "class_separation and noise_scale must be positive"),
        ({"class_separation": 0}, "class_separation and noise_scale must be positive"),
        ({"model_kind": "foo"}, "unknown model kind 'foo'"),
        ({"model_kind": "mlp1", "hidden_dim": 0}, "mlp1 requires hidden_dim >= 1"),
        ({"batch_size": 0}, "batch_size must be at least 1"),
        ({"local_epochs": 0}, "local_epochs must be at least 1"),
        ({"latent_dim": 0}, "latent_dim must be at least 1"),
        ({"intensity": "nan"}, "intensity must be at least 0 and finite, got nan"),
        ({"intensity": "inf"}, "intensity must be at least 0 and finite, got inf"),
        ({"latent_lr": "nan"}, "latent_lr must be at least -1000 and at most 1000, got nan"),
        ({"latent_lr": "-inf"}, "latent_lr must be at least -1000 and at most 1000, got -inf"),
        ({"synth_batch": -1}, "synth_batch must be at least 0 and finite"),
        ({"latent_steps": -2}, "latent_steps must be at least 0 and at most 1000, got -2"),
        (
            {"attack": "random_noise", "sigma_rel": -1},
            "sigma_rel must be at least 0 and at most 1000",
        ),
        ({"local_lr": "nan"}, "local_lr must be at least 0 and at most 1000, got nan"),
        ({"local_lr": -1}, "local_lr must be at least 0 and at most 1000, got -1.0"),
        ({"local_lr": 1e4}, "local_lr must be at least 0 and at most 1000, got 10000.0"),
        ({"target_rule": "rank_k", "target_rank": 9}, "target rank 9 out of range 1..4"),
        ({"target_rule": "rank_k", "target_rank": 0}, "target rank 0 out of range 1..4"),
        (
            {"class_separation": "nan"},
            "class_separation must be at least 0 and at most 1e+06, got nan",
        ),
        ({"noise_scale": "nan"}, "noise_scale must be at least 0 and at most 1e+06, got nan"),
        ({"noise_scale": 1e7}, "noise_scale must be at least 0 and at most 1e+06"),
        ({"delta": "nan"}, "delta must be at least 0 and finite, got nan"),
        ({"delta": -1}, "delta must be at least 0 and finite, got -1.0"),
        ({"eps": 0.5}, "unknown key 'eps'"),
        ({"kappa_mult": "nan"}, "kappa_mult must be at least 0 and finite, got nan"),
        ({"trim_tau": "nan"}, "trim_tau must be in (0, 1)"),
        ({"intensity": 1e308}, "asks for inf synthetic rows"),
        ({"intensity": 201}, "cap is 32 x samples_per_client = 1600"),
        ({"latent_lr": 1e4}, "latent_lr must be at least -1000 and at most 1000"),
        (
            {"pool_samples_per_class": 0},
            "pool_samples_per_class must be at least 2 and at most 100000, got 0",
        ),
        ({"mc_seed": -2}, "mc_seed must be at least 0 and finite, got -2"),
        ({"evaluators": ","}, "evaluators must name at least one evaluator"),
        ({"pool_samples_per_class": 1}, "pool_samples_per_class must be at least 2"),
        (
            {"pool_samples_per_class": 100_001},
            "pool_samples_per_class must be at least 2 and at most 100000, got 100001",
        ),
        (
            {"samples_per_class": 100_001},
            "samples_per_class must be at least 2 and at most 100000, got 100001",
        ),
        (
            {"evaluators": "loo_round", "num_clients": 101},
            "num_clients must be at least 2 and at most 100, got 101",
        ),
        ({"latent_dim": 1025}, "latent_dim must be at least 1 and at most 1024, got 1025"),
        (
            {"mc_permutations": 10_001},
            "mc_permutations must be at least 1 and at most 10000, got 10001",
        ),
        ({"evaluators": "loo_round", "mc_permutations": 0}, "mc_permutations must be at least 1"),
        ({"evaluators": "loo_round,loo_round"}, "evaluator 'loo_round' is listed twice"),
        ({"rounds": 1001}, "rounds must be at least 1 and at most 1000, got 1001"),
        ({"local_epochs": 101}, "local_epochs must be at least 1 and at most 100, got 101"),
        ({"latent_steps": 1001}, "latent_steps must be at least 0 and at most 1000, got 1001"),
        ({"input_dim": 1025}, "input_dim must be at least 1 and at most 1024, got 1025"),
        ({"num_classes": 101}, "num_classes must be at least 2 and at most 100, got 101"),
        (
            {"model_kind": "mlp1", "hidden_dim": 1025},
            "hidden_dim must be at least 0 and at most 1024, got 1025",
        ),
        (
            {"samples_per_class": 100_000, "num_classes": 100, "input_dim": 1024},
            "10000000 synthesized rows x input_dim 1024 exceed the cap of 16777216",
        ),
        (
            {"attack": "latent_opt", "pool_samples_per_class": 100_000, "input_dim": 42},
            "400000 synthesized rows x input_dim 42 exceed the cap of 16777216",
        ),
        (
            {
                "model_kind": "mlp1", "hidden_dim": 1024, "input_dim": 1024,
                "num_classes": 100, "num_clients": 100, "rounds": 1000,
                "evaluators": "loo_round", "samples_per_client": 10,
            },
            "1000 rounds x 100 clients x 1152100 parameters exceed the cap of 67108864",
        ),
        (
            {"evaluators": "loo_retrain", "num_clients": 2, "defense_mode": "monitor"},
            "a loo_retrain rerun without one client: trimming needs at least two clients",
        ),
        (
            {
                "evaluators": "loo_retrain", "num_clients": 3, "defense_mode": "enforce",
                "trim_tau": 0.6,
            },
            "a loo_retrain rerun without one client: trim_tau 0.6 trims all 2 clients",
        ),
    ],
    ids=[
        "exact_guard", "mc_permutations", "rounds", "trim_tau", "trim_all",
        "one_client", "infeasible_partition", "generator", "input_dim", "noise_scale",
        "class_separation", "model_kind", "mlp1_hidden_dim", "batch_size",
        "local_epochs", "latent_dim", "intensity_nan", "intensity_inf",
        "latent_lr_nan", "latent_lr_inf", "synth_batch", "latent_steps", "sigma_rel",
        "local_lr_nan", "local_lr_negative", "local_lr_high", "target_rank_high",
        "target_rank_zero", "class_separation_nan", "noise_scale_nan", "noise_scale_high",
        "delta_nan", "delta_negative", "eps_unknown", "kappa_mult_nan", "trim_tau_nan_defense_off",
        "intensity_overflow", "synthetic_rows_cap", "latent_lr_high", "pool_samples",
        "mc_seed", "no_evaluators", "pool_samples_one", "pool_samples_cap",
        "samples_per_class_cap", "num_clients_cap", "latent_dim_cap", "mc_permutations_cap",
        "mc_permutations_without_fedsv_mc", "duplicate_evaluator", "rounds_cap",
        "local_epochs_cap", "latent_steps_cap", "input_dim_cap", "num_classes_cap",
        "hidden_dim_cap", "input_values_cap", "pool_input_values_cap", "logged_values_cap",
        "loo_retrain_one_client_rerun", "loo_retrain_trims_all_of_a_rerun",
    ],
)
def test_cli_rejects_bad_config_before_training(tmp_path, capsys, monkeypatch, bad, message):
    from fedattr import attribution, flcore

    def no_training(cfg):
        raise AssertionError("training started")

    monkeypatch.setattr(flcore, "run_training", no_training)
    monkeypatch.setattr(attribution, "run_training_many", no_training)
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**TINY, **bad}.items()))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "o").exists()


def test_every_attack_builds_the_behavior_its_module_binds_now(monkeypatch):
    # the config's attack names are the table's, and each is looked up when
    # the attacker is built, so a rebound behavior (a tracer's) is what runs
    assert ATTACKS == tuple(attacks.BEHAVIORS)
    for attack, name in attacks.BEHAVIORS.items():
        def rebound(*args, **kwargs):  # built, never run
            ...

        monkeypatch.setattr(attacks, name, rebound)
        behavior = _make_attack_behavior(tiny_config(attack=attack, latent_steps=1), 1.0)
        assert getattr(behavior, "func", behavior) is rebound, attack


COMBINATIONS = tuple(
    itertools.product(ATTACKS, EVALUATORS, models.KINDS, flcore.DEFENSE_MODES, data.GENERATORS)
)


def log_contents(log):
    """Every logged value of a training log, vectors as raw bytes."""
    return [
        (
            rec.t, rec.n, rec.test_utility_after, rec.diags, rec.w_t.tobytes(),
            rec.w_next.tobytes(), [u.tobytes() for u in rec.updates],
            rec.trim and (rec.trim.trimmed, rec.trim.distances.tobytes()),
        )
        for rec in log.rounds
    ]


def test_every_combination_is_rejected_up_front_or_runs():
    # attack x evaluator x model x defense x generator at rounds = 2: all 288
    # combinations take about 3 s, so the whole matrix runs, not a sample
    phases = []
    for attack, evaluator, kind, defense, generator in COMBINATIONS:
        try:
            cfg = tiny_config(
                rounds=2, attack=attack, evaluators=evaluator, model_kind=kind,
                hidden_dim=4 if kind == "mlp1" else 0, defense_mode=defense,
                generator=generator,
            )
        except ConfigError:
            continue
        report = run_experiment(cfg)
        free_cfg = build_scenario(cfg)
        attacker = _make_attack_behavior(cfg, report.kappa)
        attacked_cfg = replace(
            free_cfg,
            behaviors=[
                attacker if i == report.malicious_id else flcore.benign
                for i in range(cfg.num_clients)
            ],
        )
        phases += [(free_cfg, report.attack_free_log), (attacked_cfg, report.attacked_log)]
    assert len(phases) == 2 * len(COMBINATIONS)  # the tiny scenario rejects none
    # every phase of every combination trained in one lockstep call, and each
    # alone, gives the log its paired run recorded
    together = flcore.run_training_many([flcfg for flcfg, _ in phases])
    for (flcfg, log), many in zip(phases, together):
        expected = log_contents(log)
        assert log_contents(many) == expected
        assert log_contents(flcore.run_training(flcfg)) == expected


def test_loo_retrain_scores_latent_opt(monkeypatch):
    # each retrain run starts the attack from a fresh state, so no run sees
    # another's latents and no rerun adds diagnostics to the report
    from fedattr import attribution, flcore

    real_report, real_many = attribution.loo_retrain_report, attribution.run_training_many
    trained, runs = [], []

    def recording(flcfg, known=None):
        trained.append(flcfg)
        return real_report(flcfg, known)

    def counting(flcfgs):
        runs.append(len(flcfgs))
        return real_many(flcfgs)

    monkeypatch.setattr(attribution, "loo_retrain_report", recording)
    monkeypatch.setattr(attribution, "run_training_many", counting)
    cfg = tiny_config(attack="latent_opt", evaluators="fedsv_exact,loo_retrain")
    report = run_experiment(cfg)
    monkeypatch.undo()
    # the attacked phase's rerun without the attacker has only benign
    # clients, so it is the attack-free phase's: the attacked phase trains
    # only its own run and the other N - 1 reruns, and the values below
    # still equal a full retrain
    assert runs == [1 + cfg.num_clients, cfg.num_clients]
    assert [d["t"] for d in report.diagnostics] == list(range(1, cfg.rounds + 1))
    logs = {"attack_free": report.attack_free_log, "attacked": report.attacked_log}
    assert len(trained) == len(logs)
    for flcfg, (phase, log) in zip(trained, logs.items()):
        assert log.final_utility == flcore.run_training(flcfg).final_utility
        expected = [
            log.final_utility - flcore.run_training(flcfg.without_client(i)).final_utility
            for i in range(cfg.num_clients)
        ]
        assert report.evaluations["loo_retrain"][phase].raw.tolist() == expected


def test_cli_runs_latent_opt_with_loo_retrain(tmp_path):
    _, path = write_tiny_config(tmp_path, rounds=2, evaluators="loo_round,loo_retrain")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(list((tmp_path / "o").glob("run_*/report.json"))) == 1


@settings(max_examples=40, deadline=None)
@given(
    num_clients=st.integers(2, 8), num_classes=st.integers(2, 6),
    classes_per_client=st.integers(1, 6), samples_per_client=st.integers(1, 120),
    seed=st.integers(0, 2**31 - 1),
)
# two classes of 40 training rows each: 40 samples per client just fit
@example(num_clients=2, num_classes=2, classes_per_client=1, samples_per_client=40, seed=0)
@example(num_clients=2, num_classes=2, classes_per_client=1, samples_per_client=41, seed=0)
def test_property_config_accepts_exactly_the_feasible_partitions(
    num_clients, num_classes, classes_per_client, samples_per_client, seed
):
    sizes = dict(
        num_clients=num_clients, num_classes=num_classes,
        classes_per_client=classes_per_client, samples_per_client=samples_per_client,
    )
    try:
        ExperimentConfig(**sizes, samples_per_class=50, master_seed=seed)
        accepted = True
    except ConfigError:
        accepted = False
    train, _ = data.synthesize(
        data.DatasetSpec("gaussian_blobs", num_classes, 2, 50, 3.0, 1.0, seed)
    )
    spec = data.PartitionSpec(num_clients, classes_per_client, samples_per_client, seed)
    try:
        data.partition_noniid(train, spec, num_classes)
        partitioned = True
    except ValueError:
        partitioned = False
    assert accepted == partitioned


@settings(max_examples=40, deadline=None)
@given(
    num_clients=st.integers(2, 6), defense_mode=st.sampled_from(flcore.DEFENSE_MODES),
    # multiples of 1/N and of 1/(N - 1) sit on the edge of trimming every client
    trim_tau=st.one_of(
        st.tuples(st.integers(1, 5), st.integers(1, 6)).map(lambda kn: kn[0] / kn[1]),
        st.floats(0.01, 0.99),
    ),
)
def test_property_accepted_loo_retrain_config_builds_every_rerun(
    num_clients, defense_mode, trim_tau
):
    try:
        cfg = tiny_config(
            num_clients=num_clients, samples_per_client=10, defense_mode=defense_mode,
            trim_tau=trim_tau, evaluators="loo_round,loo_retrain",
        )
    except ConfigError:
        return
    flcfg = build_scenario(cfg)
    for i in range(num_clients):
        assert len(flcfg.without_client(i).shards) == num_clients - 1


def finite_floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    kind, hidden = draw(
        st.one_of(
            st.just(("logistic", 0)), st.tuples(st.just("mlp1"), st.integers(1, 32))
        )
    )
    evaluators = draw(
        st.lists(st.sampled_from(EVALUATORS), min_size=1, max_size=4, unique=True)
    )
    values = dict(
        generator=draw(st.sampled_from(data.GENERATORS)),
        num_classes=draw(st.integers(2, 6)),
        input_dim=draw(st.integers(2, 5)),
        samples_per_class=draw(st.integers(200, 400)),
        class_separation=draw(finite_floats(1e-6, 1e6).filter(lambda v: v > 0)),
        noise_scale=draw(finite_floats(1e-6, 1e6).filter(lambda v: v > 0)),
        num_clients=draw(st.integers(2, 8)),
        classes_per_client=draw(st.integers(1, 2)),
        samples_per_client=draw(st.integers(1, 40)),
        model_kind=kind,
        hidden_dim=hidden,
        rounds=draw(st.integers(1, 50)),
        local_epochs=draw(st.integers(1, 5)),
        batch_size=draw(st.integers(1, 64)),
        local_lr=draw(finite_floats(0, 1e3)),
        evaluators=",".join(evaluators),
        mc_permutations=draw(st.integers(1, 500)),
        mc_seed=draw(st.integers(0, 2**32)),
        attack=draw(st.sampled_from(ATTACKS)),
        target_rule=draw(st.sampled_from(TARGET_RULES)),
        target_rank=draw(st.integers(1, 8)),
        intensity=draw(finite_floats(0, 4)),
        sigma_rel=draw(finite_floats(0, 1e3)),
        latent_dim=draw(st.integers(1, 16)),
        latent_steps=draw(st.integers(0, 8)),
        synth_batch=draw(st.integers(1, 64)),
        latent_lr=draw(finite_floats(-1e3, 1e3)),
        delta=draw(finite_floats(0, 1)),
        kappa_mult=draw(finite_floats(0, 1e3)),
        defense_mode=draw(st.sampled_from(("off", "monitor", "enforce"))),
        trim_tau=draw(finite_floats(0, 1).filter(lambda v: 0 < v < 1)),
        pool_samples_per_class=draw(st.integers(2, 100)),
        master_seed=draw(st.integers(0, 2**32)),
    )
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        reject()


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_property_canonical_config_round_trip(cfg):
    parsed = parse_config(cfg.canonical())
    assert parsed == cfg
    assert parsed.canonical() == cfg.canonical()
    assert parsed.fingerprint == cfg.fingerprint


NUMERIC_FIELDS = tuple(
    f.name for f in fields(ExperimentConfig) if f.type in ("int", "float") and f.name != "rounds"
)


# integer fields with a finite cap; every other integer is drawn from -3..12
INT_CAPS = {
    name: hi for name, (_, hi) in _BOUNDS.items() if _FIELD_TYPES[name] == "int" and hi < _MAX
}


def numeric_values(name):
    if _FIELD_TYPES[name] == "float":
        return st.floats()
    small = st.integers(-3, 12)
    if name not in INT_CAPS:
        return small
    # above its cap a field is rejected up front, so these draws never train
    return small | st.integers(INT_CAPS[name] + 1, 2**64)


@st.composite
def numeric_overrides(draw):
    """One to three numeric fields set to any value: floats include NaN, +-inf,
    subnormals and the extremes of float64; capped integers go past their cap."""
    names = draw(st.lists(st.sampled_from(NUMERIC_FIELDS), min_size=1, max_size=3, unique=True))
    return {name: draw(numeric_values(name)) for name in names}


@settings(max_examples=60, deadline=None)
@given(overrides=numeric_overrides(), attack=st.sampled_from(ATTACKS))
def test_property_numeric_fields_are_rejected_or_run(overrides, attack):
    base = dict(
        TINY, rounds=1, attack=attack, defense_mode="monitor",
        evaluators="fedsv_exact,fedsv_mc,loo_round", mc_permutations=5,
    )
    try:
        cfg = ExperimentConfig(**{**base, **overrides})
    except ConfigError:
        return
    report = run_experiment(cfg)
    for phases in report.evaluations.values():
        for rep in phases.values():
            assert np.all(np.isfinite(rep.raw))


def test_sweep_validates_every_point_before_training(tmp_path, monkeypatch):
    from fedattr import flcore

    def no_training(cfg):
        raise AssertionError("training started")

    monkeypatch.setattr(flcore, "run_training", no_training)
    with pytest.raises(ConfigError, match="num_clients"):
        sweep(tiny_config(), "num_clients", [4, 1], tmp_path)


@pytest.mark.parametrize(
    "axis, values",
    [
        ("num_clients", "2.5,3"),
        ("num_clients", "inf"),
        ("num_clients", "nan"),
        ("target_rank", "1.7"),
        ("target_rank", "-inf"),
        ("target_rank", "nan"),
    ],
)
def test_cli_sweep_rejects_fractional_and_non_finite_integer_values(
    tmp_path, capsys, monkeypatch, axis, values
):
    from fedattr import attribution

    def no_training(cfgs):
        raise AssertionError("training started")

    monkeypatch.setattr(flcore, "run_training_many", no_training)
    monkeypatch.setattr(attribution, "run_training_many", no_training)
    _, path = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    args = ["sweep", "--config", str(path), "--out", str(out), "--axis", axis]
    assert cli.main([*args, f"--values={values}"]) == 2
    assert f"config error: {axis} takes whole numbers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_csv_holds_the_value_each_point_ran_with(tmp_path):
    cfg = tiny_config(attack="free_rider", rounds=1)
    reports = sweep(cfg, "target_rank", [2.0, 3], tmp_path)
    assert [r.config.target_rank for r in reports] == [2, 3]
    with open(tmp_path / "sweep_target_rank.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["value"] for row in rows} == {"2", "3"}
    # every point's run directory is written too
    assert {p.name for p in tmp_path.glob("run_*")} == {
        f"run_{r.config.fingerprint}_free_rider" for r in reports
    }


def test_unbounded_kappa_is_written_as_json_null(tmp_path):
    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    report = run_experiment(tiny_config(attack="latent_opt", kappa_mult=0.0, rounds=1))
    assert report.kappa == np.inf
    run_dir = write_run_outputs(report, tmp_path)
    payload = json.loads((run_dir / "report.json").read_text(), parse_constant=no_constants)
    assert payload["kappa"] is None
    finite = run_experiment(tiny_config(attack="latent_opt", rounds=1))
    assert report_payload(finite)["kappa"] == finite.kappa > 0


@pytest.mark.parametrize(
    "verb", [["run"], ["sweep", "--axis", "intensity", "--values", "0"]], ids=["run", "sweep"]
)
def test_cli_rejects_an_out_path_that_is_not_a_directory(tmp_path, capsys, monkeypatch, verb):
    from fedattr import attribution

    def no_training(cfgs):
        raise AssertionError("training started")

    monkeypatch.setattr(flcore, "run_training_many", no_training)
    monkeypatch.setattr(attribution, "run_training_many", no_training)
    _, path = write_tiny_config(tmp_path)
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    for out in (existing, existing / "sub"):
        assert cli.main([*verb, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output directory {out}: {existing} is not a directory\n"
    assert existing.read_text() == "kept\n"


def test_cli_run_failure_exit_code(tmp_path, capsys, monkeypatch):
    from fedattr import flcore

    def failing_training(cfg):
        raise flcore.FLRunError(2, 1, RuntimeError("boom"))

    monkeypatch.setattr(flcore, "run_training", failing_training)
    cfg, path = write_tiny_config(tmp_path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "round 2, client 1: boom" in capsys.readouterr().err


def test_concentric_rings_scenario_smoke():
    report = run_experiment(
        tiny_config(generator="concentric_rings", evaluators="fedsv_exact,loo_round")
    )
    assert 0.0 <= report.u1 <= 1.0 and 0.0 <= report.u0 <= 1.0
    for phases in report.evaluations.values():
        for rep in phases.values():
            assert np.all(np.isfinite(rep.raw))
            assert abs(rep.shares.sum() - 1.0) <= 1e-12
    assert [d["t"] for d in report.diagnostics] == [1, 2, 3]


def test_paired_seeds_keep_benign_clients_identical():
    # both phases share client RNG streams: with the same broadcast w_1, every
    # benign client's round-1 update is bit-identical across phases
    report = run_experiment(tiny_config(attack="latent_opt"))
    free_first = report.attack_free_log.rounds[0]
    attacked_first = report.attacked_log.rounds[0]
    assert np.array_equal(free_first.w_t, attacked_first.w_t)
    for i in range(4):
        if i == report.malicious_id:
            continue
        assert np.array_equal(free_first.updates[i], attacked_first.updates[i])


def test_cli_check_exit_codes(monkeypatch, capsys):
    from fedattr.expcli import acceptance

    ok = acceptance.CriterionResult(1, "stub", True, "fine", 0.0)
    bad = acceptance.CriterionResult(2, "stub", False, "broken", 0.0)
    monkeypatch.setattr(acceptance, "run_all", lambda: [ok])
    assert cli.main(["check"]) == 0
    assert "1/1 criteria passed" in capsys.readouterr().out
    monkeypatch.setattr(acceptance, "run_all", lambda: [ok, bad])
    assert cli.main(["check"]) == 4
    assert "1/2 criteria passed" in capsys.readouterr().out


def test_cli_out_env_var(tmp_path, monkeypatch, capsys):
    _, path = write_tiny_config(tmp_path, attack="free_rider")
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
    assert cli.main(["run", "--config", str(path)]) == 0
    assert list((tmp_path / "envout").glob("run_*"))


def test_cli_overrides(tmp_path, capsys):
    cfg, path = write_tiny_config(tmp_path, attack="free_rider")
    code = cli.main(
        [
            "run", "--config", str(path), "--out", str(tmp_path / "out"),
            "--seed", "77", "--evaluator", "loo_round", "--defense", "monitor",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "loo_round" in printed
    assert "detection" in printed


CLI_VERBS = [["run"], ["sweep", "--axis", "intensity", "--values", "1"]]


@pytest.mark.parametrize("verb", CLI_VERBS, ids=["run", "sweep"])
@pytest.mark.parametrize(
    "values, flags",
    [
        (dict(num_clients=20, samples_per_client=20), ["--evaluator", "fedsv_mc"]),
        (dict(num_clients=3, trim_tau=0.7, defense_mode="enforce"), ["--defense", "off"]),
    ],
    ids=["exact_guard", "trims_all"],
)
def test_cli_overrides_apply_before_the_file_is_validated(tmp_path, verb, values, flags):
    # each file is invalid alone and valid with its override
    path = tmp_path / "cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {"rounds": 1, **values}.items()))
    with pytest.raises(ConfigError):
        load_config(path)
    out = tmp_path / "out"
    assert cli.main([*verb, "--config", str(path), "--out", str(out), *flags]) == 0
    assert len(list(out.glob("run_*/report.json"))) == 1


@pytest.mark.parametrize("verb", CLI_VERBS, ids=["run", "sweep"])
def test_cli_override_that_invalidates_a_file_fails_before_training(
    tmp_path, capsys, monkeypatch, verb
):
    from fedattr import attribution

    def no_training(cfgs):
        raise AssertionError("training started")

    monkeypatch.setattr(flcore, "run_training_many", no_training)
    monkeypatch.setattr(attribution, "run_training_many", no_training)
    _, path = write_tiny_config(tmp_path, num_clients=3, trim_tau=0.7)
    out = tmp_path / "out"
    assert cli.main([*verb, "--config", str(path), "--out", str(out), "--defense", "enforce"]) == 2
    assert "config error: trim_tau 0.7 trims all 3 clients" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", CLI_VERBS, ids=["run", "sweep"])
@pytest.mark.parametrize("unreadable", ["missing", "directory", "not_utf8"])
def test_cli_unreadable_config_file_exits_2_before_training(
    tmp_path, capsys, monkeypatch, verb, unreadable
):
    from fedattr import attribution

    def no_training(cfgs):
        raise AssertionError("training started")

    monkeypatch.setattr(flcore, "run_training_many", no_training)
    monkeypatch.setattr(attribution, "run_training_many", no_training)
    path = tmp_path / "exp.cfg"
    if unreadable == "directory":
        path.mkdir()
    elif unreadable == "not_utf8":
        path.write_bytes(b"rounds = 2\xff\n")
    out = tmp_path / "out"
    assert cli.main([*verb, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: cannot read config file {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("unreadable", ["missing", "directory", "not_utf8"])
def test_load_config_rejects_an_unreadable_file(tmp_path, unreadable):
    path = tmp_path / "exp.cfg"
    if unreadable == "directory":
        path.mkdir()
    elif unreadable == "not_utf8":
        path.write_bytes(b"rounds = 2\xff\n")
    with pytest.raises(ConfigError, match=f"cannot read config file {re.escape(str(path))}: "):
        load_config(path)


def test_load_config_reads_utf8_and_applies_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes("# défaut\nrounds = 2\n".encode("utf-8"))
    assert load_config(path).rounds == 2
    assert load_config(path, rounds=3, master_seed=9) == parse_config(
        "rounds = 3\nmaster_seed = 9\n"
    )


def test_decoder_is_calibrated_only_for_the_latent_attack(monkeypatch):
    from fedattr import attacks

    real = attacks.calibrate_decoder
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(attacks, "calibrate_decoder", counted)
    run_experiment(tiny_config(attack="label_flip", rounds=1))
    assert calls == []
    run_experiment(tiny_config(attack="latent_opt", rounds=1))
    assert len(calls) == 1
