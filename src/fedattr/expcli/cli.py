"""Command-line entry point.

Verbs: run (single paired experiment), sweep (one experiment axis), check
(acceptance suite), plot (re-emit charts from a stored report).  Exit codes:
0 success, 2 configuration error, 3 run failure, 4 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ..flcore import FLRunError
from . import acceptance, plots
from .config import ConfigError, ExperimentConfig, load_config
from .experiment import run_experiment, sweep

OUT_ENV = "FEDATTR_OUT"


def _default_out() -> Path:
    return Path(os.environ.get(OUT_ENV, "out"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--evaluator", type=str, default=None, help="evaluator list override")
    p.add_argument(
        "--defense",
        choices=("off", "monitor", "enforce"),
        default=None,
        help="defense mode override",
    )


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = cfg.override(master_seed=args.seed)
    if args.evaluator is not None:
        cfg = cfg.override(evaluators=args.evaluator)
    if args.defense is not None:
        cfg = cfg.override(defense_mode=args.defense)
    return cfg


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = args.out or _default_out()
    report = run_experiment(cfg, out)
    primary = cfg.evaluator_list[0]
    print(f"run {report.fingerprint}: attack={cfg.attack} malicious={report.malicious_id}")
    print(
        f"  {primary} share {report.target_share(primary, 'attack_free'):.4f}"
        f" -> {report.target_share(primary, 'attacked'):.4f}"
        f" (rank {report.target_rank(primary, 'attack_free')}"
        f" -> {report.target_rank(primary, 'attacked')})"
    )
    print(
        f"  utility {report.u0:.4f} -> {report.u1:.4f}"
        f" (within delta: {report.utility_within_delta})"
    )
    if report.detection is not None:
        d = report.detection
        print(f"  detection P={d.precision:.3f} R={d.recall:.3f} F1={d.f1:.3f}")
    return 0


def _parse_sweep_value(text: str) -> int | float:
    """An axis value as int when it reads as one, else as float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"sweep value {text!r} is not a number") from None


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    out = args.out or _default_out()
    values = [_parse_sweep_value(v) for v in args.values.split(",")]
    reports = sweep(cfg, args.axis, values, out)
    primary = cfg.evaluator_list[0]
    for value, report in zip(values, reports):
        print(
            f"{args.axis}={value}: share"
            f" {report.target_share(primary, 'attack_free'):.4f}"
            f" -> {report.target_share(primary, 'attacked'):.4f},"
            f" utility {report.u0:.4f} -> {report.u1:.4f}"
        )
    return 0


def _cmd_check(args) -> int:
    results = acceptance.run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 4 if failed else 0


def _cmd_plot(args) -> int:
    report_path = args.run / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json under {args.run}")
    payload = json.loads(report_path.read_text())
    plots.emit_run_plots(payload, args.run / "plots")
    print(f"plots written under {args.run / 'plots'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedattr",
        description="Deterministic federated-learning attribution-manipulation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one paired experiment")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one experiment axis")
    _add_common(sweep_p)
    sweep_p.add_argument(
        "--axis", required=True, choices=("num_clients", "target_rank", "intensity")
    )
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated axis values"
    )

    sub.add_parser("check", help="run the acceptance suite")

    plot_p = sub.add_parser("plot", help="re-emit plots from a stored run")
    plot_p.add_argument("--run", type=Path, required=True, help="run directory")

    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FLRunError, OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
