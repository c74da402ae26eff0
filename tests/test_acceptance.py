"""Acceptance suite: one test per criterion, each printing its PASS/FAIL line.

Scenario criteria (4-9) share a memoized battery of paired runs over five
seeds, so the whole module stays inside the stated runtime budgets.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines, or via
the CLI: `fedattr check`.
"""

import pytest

from fedattr.expcli import acceptance


@pytest.fixture(scope="module")
def battery():
    return acceptance._Battery()


def _report(result):
    print(result.line())
    assert result.passed, result.detail


def _run(number, name, fn, cap=None):
    passed, detail, seconds = acceptance._timed(fn)
    if cap is not None and seconds > cap:
        passed = False
        detail += f"; exceeded {cap:.0f}s budget"
    _report(acceptance.CriterionResult(number, name, passed, detail, seconds))


def test_criterion_01_shapley_correctness():
    _run(1, "shapley correctness", acceptance.check_shapley_correctness, cap=10.0)


def test_criterion_02_gradient_integrity():
    _run(2, "gradient integrity", acceptance.check_gradient_integrity, cap=30.0)


def test_criterion_03_normalization_contract():
    _run(3, "normalization contract", acceptance.check_normalization_contract)


def test_criterion_04_attack_effect(battery):
    _run(
        4,
        "attack effect",
        lambda: acceptance.check_attack_effect(battery),
        cap=600.0,
    )


def test_criterion_05_utility_preservation(battery):
    _run(5, "utility preservation", lambda: acceptance.check_utility_preservation(battery))


def test_criterion_06_intensity_monotonicity(battery):
    _run(6, "intensity monotonicity", lambda: acceptance.check_intensity_monotonicity(battery))


def test_criterion_07_target_rank_asymmetry(battery):
    _run(7, "target-rank asymmetry", lambda: acceptance.check_target_rank_asymmetry(battery))


def test_criterion_08_stealth_vs_trimming(battery):
    _run(8, "stealth vs trimming", lambda: acceptance.check_stealth_vs_trimming(battery))


def test_criterion_09_evaluator_robustness_loo(battery):
    _run(9, "evaluator robustness (LOO)", lambda: acceptance.check_loo_robustness(battery))


def test_criterion_10_determinism():
    _run(10, "determinism", acceptance.check_determinism)


def test_battery_shares_one_run_between_equal_configs(monkeypatch):
    calls = []
    monkeypatch.setattr(
        acceptance, "run_experiment", lambda cfg: calls.append(cfg) or len(calls)
    )
    battery = acceptance._Battery()
    base = acceptance.DEFAULT
    assert battery.run() == battery.run(master_seed=base.master_seed) == 1
    assert battery.run(master_seed=base.master_seed + 1) == 2
    assert calls == [base, base.override(master_seed=base.master_seed + 1)]
