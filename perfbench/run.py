"""fedattr benchmark: paired experiments in a closed loop, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; fedattr is imported from `src/`.  One process
runs one operation at a time with no worker threads, and BLAS is pinned to
one thread before numpy is imported.

--trace 0: set-up (import fedattr and build every scenario of one workload
cycle, repeated, median), then whole cycles of operations for about
--seconds, then the first operation again as a determinism check.  Prints the
end-to-end metrics.

--trace 1: each operation of one cycle runs untraced, then again with every
layer wrapped (perfbench/tracer.py).  Both passes must give identical report
digests.  Prints the per-layer metrics; the cycle is fixed, so every call
count repeats exactly.

The last stdout line is the result object; the line before it holds the
environment, per-operation times and digests, failures, and the research
outcomes (attacker shares, utilities), which are information, not metrics.
Design notes: perfbench/DESIGN.md.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS, ZERO_CALLS, check, digest, op_config, run_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11

TRACED = [
    "fedattr.models:loss_and_grad",
    "fedattr.models:sgd_train",
    "fedattr.models:accuracy",
    "fedattr.models:params_to_bytes",
    "fedattr.models:params_from_bytes",
    "fedattr.data:synthesize",
    "fedattr.data:partition_noniid",
    "fedattr.streams:stream",
    "fedattr.flcore:run_training",
    "fedattr.flcore:weighted_aggregate",
    "fedattr.flcore:save_log",
    "fedattr.flcore:load_log",
    "fedattr.attribution:fedsv",
    "fedattr.attribution:shapley_exact",
    "fedattr.attribution:shapley_mc",
    "fedattr.attribution:loo_round",
    "fedattr.attribution:loo_retrain_report",
    "fedattr.attribution:CoalitionUtility.value_mask",
    "fedattr.attacks:behavior_latent_opt",
    "fedattr.attacks:refine_latent",
    "fedattr.attacks:grad_z_fd",
    "fedattr.attacks:joint_loss",
    "fedattr.attacks:decode",
    "fedattr.attacks:behavior_label_flip",
    "fedattr.attacks:behavior_random_noise",
    "fedattr.defense:trim_round",
    "fedattr.defense:plausibility_check",
    "fedattr.expcli.experiment:build_scenario",
    "fedattr.expcli.experiment:run_experiment",
    "fedattr.expcli.experiment:write_run_outputs",
    "fedattr.expcli.plots:emit_run_plots",
]
# Wrapped only for the coalition counter: its calls bound in `attribution`
# are the coalition utilities actually computed (cache misses).
UTILITY = "fedattr.flcore:utility"
# Called up to hundreds of thousands of times per operation: aggregated per
# parent span instead of one span per call.
AGGREGATED = {
    "models.loss_and_grad",
    "models.accuracy",
    "models.params_to_bytes",
    "models.params_from_bytes",
    "flcore.weighted_aggregate",
    "flcore.utility",
    "attribution.CoalitionUtility.value_mask",
    "attacks.joint_loss",
    "attacks.decode",
    "streams.stream",
}
CODEC_HOOKS = {
    "models.params_to_bytes": ("models.codec.bytes", lambda args, out: len(out)),
    "models.params_from_bytes": ("models.codec.bytes", lambda args, out: len(args[0])),
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_fedattr() -> None:
    """(Re-)import fedattr from src/, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "fedattr" or m.startswith("fedattr.")]:
        del sys.modules[name]
    importlib.import_module("fedattr.expcli.experiment")
    importlib.import_module("fedattr.expcli.plots")


def setup(workload: str, seed: int) -> float:
    """Median seconds to import fedattr and build one cycle's scenarios."""
    if not (SRC / "fedattr" / "__init__.py").is_file():
        fail(f"fedattr sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    cycle_len = len(WORKLOADS[workload].cycle)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_fedattr()
        experiment = sys.modules["fedattr.expcli.experiment"]
        for i in range(cycle_len):
            experiment.build_scenario(op_config(workload, seed, i))
        times.append(time.perf_counter() - start)
    if not Path(sys.modules["fedattr"].__file__).resolve().is_relative_to(SRC):
        fail("fedattr was imported from outside src/")
    return statistics.median(times)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def finish(result) -> dict:
    """Check one operation and keep only what the output needs.

    Reports are dropped here, so peak memory does not grow with the number of
    operations that fit in a run.
    """
    cfg, report = result.config, result.report
    row = {
        "index": result.index,
        "master_seed": cfg.master_seed,
        "attack": cfg.attack,
        "model": cfg.model_kind,
        "num_clients": cfg.num_clients,
        "intensity": cfg.intensity,
        "seconds": result.seconds,
        "problems": check(result),
        "digest": None,
    }
    if report is not None:
        primary = cfg.evaluator_list[0]
        row.update(
            digest=digest(report),
            evaluator=primary,
            share_before=report.target_share(primary, "attack_free"),
            share_after=report.target_share(primary, "attacked"),
            u0=report.u0,
            u1=report.u1,
            within_delta=report.utility_within_delta,
        )
    return row


def op_seconds(rows) -> float:
    return sum(row["seconds"] for row in rows)


def timed_loop(workload: str, seed: int, seconds: float, out: Path) -> list[dict]:
    """Whole cycles, stopping at the cycle boundary nearest to `seconds` of
    operation time (checks between operations are not counted)."""
    cycle_len = len(WORKLOADS[workload].cycle)
    rows = []
    while True:
        for _ in range(cycle_len):
            i = len(rows)
            rows.append(finish(run_op(workload, i, op_config(workload, seed, i), out)))
        elapsed = op_seconds(rows)
        per_cycle = elapsed * cycle_len / len(rows)
        if elapsed + per_cycle / 2 > seconds:
            return rows


def outcomes(rows) -> dict:
    """Research findings of the operations: information, not metrics."""
    done = [row for row in rows if row["digest"] is not None]
    if not done:
        return {}
    return {
        "evaluator": done[0]["evaluator"],
        "attacker_share_before_p50": statistics.median(r["share_before"] for r in done),
        "attacker_share_after_p50": statistics.median(r["share_after"] for r in done),
        "u0_p50": statistics.median(r["u0"] for r in done),
        "u1_p50": statistics.median(r["u1"] for r in done),
        "utility_within_delta": sum(r["within_delta"] for r in done),
        "operations": len(done),
    }


def end_to_end(workload, seed, seconds, out, setup_s):
    rows = timed_loop(workload, seed, seconds, out)
    again = finish(run_op(workload, 0, op_config(workload, seed, 0), out))
    if again["digest"] != rows[0]["digest"]:
        again["problems"].append("rerun of operation 0 gave another digest")
    wall = op_seconds(rows)
    completed = sum(1 for row in rows if row["digest"] is not None)
    metrics = {
        "setup_s": (setup_s, "s"),
        "paired_run_s_p50": (statistics.median(row["seconds"] for row in rows), "s"),
        "paired_runs_per_s": (completed / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"samples": len(rows), "timed_wall_s": wall, "outcomes": outcomes(rows)}
    return rows + [again], metrics, info


def per_layer(workload, seed, out):
    tracer = Tracer(TRACED + [UTILITY], AGGREGATED, CODEC_HOOKS)
    plain, traced = [], []
    # Each operation runs untraced and then traced, back to back, so a change
    # in machine speed during the run shifts both passes alike.
    for i in range(len(WORKLOADS[workload].cycle)):
        cfg = op_config(workload, seed, i)
        plain.append(finish(run_op(workload, i, cfg, out)))
        tracer.op = i  # spans of one operation share this id
        tracer.install()
        try:
            result = run_op(workload, i, cfg, out)
        finally:
            tracer.uninstall()
        traced.append(finish(result))
        if traced[-1]["digest"] != plain[-1]["digest"]:
            traced[-1]["problems"].append("traced digest differs from untraced digest")

    functions = tracer.by_function()
    bindings = tracer.by_binding()
    metrics = {}
    for target in TRACED:
        name = layer_of(target)
        row = functions[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.s"] = (row["s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    requested = functions["attribution.CoalitionUtility.value_mask"]["calls"]
    computed = bindings.get("attribution.utility", 0)
    metrics.update(
        {
            "flcore.rounds": (bindings.get("flcore.weighted_aggregate", 0), "count"),
            "attribution.coalition.computed": (computed, "count"),
            "attribution.coalition.hit_ratio": (
                1.0 - computed / requested if requested else 0.0,
                "ratio",
            ),
            "models.codec.bytes": (tracer.counters["models.codec.bytes"], "B"),
            "trace.overhead_s": (op_seconds(traced) - op_seconds(plain), "s"),
        }
    )
    info = {
        "untraced_s": op_seconds(plain),
        "traced_s": op_seconds(traced),
        "spans": len(tracer.spans),
        "bindings": bindings,
        "zero_call_predictions": {
            name: functions[name]["calls"] == 0 for name in ZERO_CALLS[workload]
        },
        "outcomes": outcomes(plain),
    }
    return plain + traced, metrics, info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    setup_s = setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.trace:
            rows, metrics, info = per_layer(args.workload, args.seed, out)
        else:
            rows, metrics, info = end_to_end(
                args.workload, args.seed, args.seconds, out, setup_s
            )
    finally:
        shutil.rmtree(out)
        if not any(OUT.iterdir()):
            OUT.rmdir()

    attempted = len(rows)
    failed = sum(1 for row in rows if row["problems"])
    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(),
            "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
            "operations": rows,
        }
    )
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
