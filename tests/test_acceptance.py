"""Acceptance suite: one test per criterion of `acceptance.CRITERIA`, each
running it through `acceptance.run_criterion` and printing its PASS/FAIL line.

Scenario criteria (4-9) share a memoized battery of paired runs over five
seeds, so the whole module stays inside the stated runtime budgets.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines, or via
the CLI: `fedattr check`.
"""

import re
from dataclasses import replace

import pytest

from fedattr.expcli import acceptance


@pytest.fixture(scope="module")
def battery():
    return acceptance._Battery()


def _criterion_test(number):
    def test(battery):
        result = acceptance.run_criterion(number, battery)
        print(result.line())
        assert result.passed, result.detail

    return test


# one test per row of acceptance.CRITERIA, e.g. test_criterion_09_evaluator_robustness_loo
for _number, (_name, _, _) in acceptance.CRITERIA.items():
    _slug = re.sub(r"\W+", "_", _name.lower()).strip("_")
    globals()[f"test_criterion_{_number:02d}_{_slug}"] = _criterion_test(_number)


def test_battery_shares_one_run_between_equal_configs(monkeypatch):
    calls = []
    monkeypatch.setattr(
        acceptance, "run_experiment", lambda cfg: calls.append(cfg) or len(calls)
    )
    battery = acceptance._Battery()
    base = acceptance.DEFAULT
    assert battery.run() == battery.run(master_seed=base.master_seed) == 1
    assert battery.run(master_seed=base.master_seed + 1) == 2
    assert calls == [base, replace(base, master_seed=base.master_seed + 1)]


def test_run_all_runs_every_criterion_and_fails_one_over_its_budget(monkeypatch):
    table = {
        1: ("quick", lambda _: (True, "ok"), None),
        2: ("slow", lambda _: (True, "ok"), -1.0),  # any run overruns a negative budget
    }
    monkeypatch.setattr(acceptance, "CRITERIA", table)
    quick, slow = acceptance.run_all(acceptance._Battery())
    assert (quick.number, quick.name, quick.passed, quick.detail) == (1, "quick", True, "ok")
    assert (slow.number, slow.passed, slow.detail) == (2, False, "ok; exceeded -1s budget")
