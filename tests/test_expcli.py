import csv
import json

import numpy as np
import pytest

from fedattr.attribution import AttributionReport
from fedattr.expcli import cli
from fedattr.expcli.config import ConfigError, ExperimentConfig, load_config, parse_config
from fedattr.expcli.experiment import (
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


def test_evaluator_list_validation():
    assert tiny_config(evaluators="fedsv_exact, loo_round").evaluator_list == (
        "fedsv_exact",
        "loo_round",
    )
    with pytest.raises(ConfigError):
        tiny_config(evaluators="fedsv_exact,banzhaf")


# --- malicious selection --------------------------------------------------------


def test_select_malicious_rules():
    report = AttributionReport.from_raw("fedsv_exact", np.array([0.5, 0.3, 0.2]))
    assert select_malicious(report, "lowest_rank") == 2
    assert select_malicious(report, "rank_k", 1) == 0
    assert select_malicious(report, "rank_k", 2) == 1
    with pytest.raises(ConfigError):
        select_malicious(report, "rank_k", 4)
    tied = AttributionReport.from_raw("fedsv_exact", np.array([0.4, 0.4, 0.2]))
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
    cfg = tiny_config(attack="latent_opt", defense_mode="monitor")
    report = run_experiment(cfg)
    payload = report_payload(report)
    assert payload["fingerprint"] == cfg.fingerprint
    assert "u0" in payload and "u1" in payload
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

    with open(run_dir / "attribution.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "evaluator", "client_id", "raw", "share", "rank", "phase"]
    data_rows = rows[1:]
    assert len(data_rows) == 2 * cfg.num_clients  # one evaluator, two phases
    # round-trip: stored raw/share values parse back exactly
    stored = json.loads((run_dir / "report.json").read_text())
    for row in data_rows:
        phase = row[6]
        i = int(row[2])
        assert float(row[3]) == stored["evaluators"][row[1]][phase]["raw"][i]
        assert float(row[4]) == stored["evaluators"][row[1]][phase]["shares"][i]

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
    summary = (tmp_path / "sweep_intensity.csv").read_text().splitlines()
    assert summary[0].startswith("axis,value,run_id")
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
    payloads = [report_payload(run_experiment(cfg.override(intensity=v))) for v in values]
    from fedattr.expcli.plots import intensity_curve_chart

    path = tmp_path / "curve.svg"
    intensity_curve_chart(payloads, values, path)
    text = path.read_text()
    assert text.count("x</text>") == 6
    assert text.startswith("<svg")


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


def test_cli_run_failure_exit_code(tmp_path):
    # infeasible partition: more samples per client than exist
    cfg, path = write_tiny_config(tmp_path, samples_per_client=10_000)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


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
