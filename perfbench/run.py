"""Benchmark of the ``tall`` package: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
package's layer functions and reports per-layer metrics instead.  Every
metric is printed as ``name value unit`` and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One thread: pin the BLAS pools before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Slot metrics (every workload) and the per-workload name each slot stands for.
PHASE_METRIC_NAMES = {
    "adapt": {"phase1_examples_per_s": "tall_train_examples_per_s",
              "phase2_examples_per_s": "soft_prompt_train_examples_per_s",
              "phase1_loss": "tall_final_loss",
              "phase2_loss": "soft_prompt_final_loss"},
    "pretrain": {"phase1_examples_per_s": "translator_train_examples_per_s",
                 "phase2_examples_per_s": "llm_train_examples_per_s",
                 "phase1_loss": "translator_final_loss",
                 "phase2_loss": "llm_final_loss"},
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git repository.

    The ceiling stops git from looking for a repository above ``root``.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy has no dict mode; the stamp says so
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "git_commit": git_commit(ROOT),
    }


class Run:
    """Counts attempts and failures; isolates each set-up and phase call."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def _fail(self, phase: str, kind: str, message: str, tb: str = "") -> None:
        self.failures.append({"phase": phase, "type": kind, "message": message,
                              "traceback": tb})

    def attempt(self, phase: str, fn, *args):
        """(fn(*args), seconds); the result is None when fn raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self._fail(phase, type(exc).__name__, str(exc), traceback.format_exc())
            result = None
        return result, time.perf_counter() - start

    def call(self, phase: str, fn, *args):
        """(Outcome, seconds); the Outcome is None when fn raised or failed
        a check."""
        outcome, elapsed = self.attempt(phase, fn, *args)
        if outcome is not None and outcome.problems:
            self._fail(phase, "CheckFailed", "; ".join(outcome.problems))
            outcome = None
        return outcome, elapsed

    def check(self, phase: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self._fail(phase, "CheckFailed", "; ".join(problems))


def timed_setup(run: Run, workload, seed: int, sizes, times: list):
    """Set up ``sizes.setup_repeats`` times; append each time, return the
    last state (None if set-up raised)."""
    state = None
    for _ in range(sizes.setup_repeats):
        state, elapsed = run.attempt("setup", workload.setup, seed, sizes)
        if state is None:
            return None
        times.append(elapsed)
    return state


def play_rounds(run: Run, workload, state, deadline: float, samples: dict,
                round_times: list, warm_up: bool = False,
                between=None) -> None:
    """Run both phases in turn until another round would pass ``deadline``.

    A warm-up round is run first, checked and counted, but not timed.
    ``between()`` runs after each timed round, outside its time.
    """
    while True:
        start = time.perf_counter()
        for phase in workload.phases:
            outcome, elapsed = run.call(phase.name, phase.run, state)
            if outcome is not None and not warm_up:
                samples[phase.name].append((outcome, elapsed))
        end = time.perf_counter()
        if warm_up:
            warm_up = False
            deadline += end - start
            continue
        round_times.append(end - start)
        if between is not None:
            between()
        if time.perf_counter() + round_times[-1] > deadline:
            return


def end_to_end(run: Run, workload, seed: int, seconds: float, sizes) -> dict:
    """Set-up time, throughput, loss and memory, with tracing off.

    One more set-up follows each timed round, so the set-up times sample
    the whole run as the phase calls do.
    """
    originals = spans.original_functions()
    setup_times = []
    state = timed_setup(run, workload, seed, sizes, setup_times)
    samples = {p.name: [] for p in workload.phases}
    if state is not None:
        once = dataclasses.replace(sizes, setup_repeats=1)
        play_rounds(run, workload, state, time.perf_counter() + seconds,
                    samples, [], warm_up=True,
                    between=lambda: timed_setup(run, workload, seed, once,
                                                setup_times))
    metrics = {"setup_s": statistics.median(setup_times) if state else None}
    for slot, phase in zip(("phase1", "phase2"), workload.phases):
        done = samples[phase.name]
        print(f"# {slot} = {phase.name}: {len(done)} timed calls, seconds "
              + " ".join(f"{t:.3f}" for _, t in done))
        # examples completed per second of phase time, over the whole run
        metrics[f"{slot}_examples_per_s"] = (
            sum(o.examples for o, _ in done) / sum(t for _, t in done)
            if done else None)
        metrics[f"{slot}_loss"] = done[0][0].loss if done else None
    print(f"# setup_s: {len(setup_times)} set-ups, seconds "
          + " ".join(f"{t:.3f}" for t in setup_times))
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    leaked = spans.wrapped_attributes()
    swapped = [n for n, fn in spans.original_functions().items()
               if fn is not originals[n]]
    run.check("untraced_originals",
              [f"wrapped: {n}" for n in leaked] + [f"replaced: {n}" for n in swapped])
    return metrics


def per_layer(run: Run, workload, seed: int, seconds: float, sizes) -> dict:
    """Untraced and traced rounds in turn, so both see the same machine."""
    originals = spans.original_functions()
    begin = time.perf_counter()
    state = timed_setup(run, workload, seed, sizes, [])
    if state is None:
        return {}
    samples = {p.name: [] for p in workload.phases}
    plain, traced = [], []
    tracer = spans.Tracer()
    with tracer:
        run.attempt("setup", workload.setup, seed, sizes)  # for world.* spans
    warm_up = True
    while True:
        play_rounds(run, workload, state, 0.0, samples, plain, warm_up=warm_up)
        warm_up = False
        with tracer:
            play_rounds(run, workload, state, 0.0, samples, traced)
        if time.perf_counter() + plain[-1] + traced[-1] > begin + seconds:
            break
    run.check("tracer_restored",
              [f"not restored: {n}" for n, fn in spans.original_functions().items()
               if fn is not originals[n]] + spans.wrapped_attributes())

    rounds = len(traced)
    metrics = {}
    for name, agg in tracer.summary().items():
        per = 1 if name.startswith("world.") else rounds
        metrics[f"{name}.calls"] = agg["calls"] / per
        metrics[f"{name}.s"] = agg["total_s"] / per
        if name not in spans.LEAF_SPANS:
            metrics[f"{name}.self_s"] = agg["self_s"] / per
    counters = tracer.counters
    metrics["tensor.tape_nodes"] = counters["tensor.tape_nodes"] / rounds
    metrics["models.greedy.rows"] = counters["models.greedy.rows"] / rounds
    metrics["models.greedy.steps"] = counters["models.greedy.steps"] / rounds
    greedy_s = tracer.agg.get("models.greedy_translate")
    metrics["models.greedy.tokens_per_s"] = (
        counters["models.greedy.tokens"] / greedy_s.total_s if greedy_s else 0.0)
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced, plain))
    out = ROOT / "perfbench" / "out" / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(out, {"workload": workload.name, "seed": seed,
                       "rounds": rounds, "round_s": traced,
                       "untraced_round_s": plain})
    print(f"# spans written to {out.relative_to(ROOT)} "
          f"({len(tracer.spans)} stored, {tracer.dropped} dropped)")
    return metrics


def main(argv=None, sizes=None) -> int:
    """Run one workload; ``sizes`` defaults to ``workloads.STANDARD``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tall" / "__init__.py").is_file():
        print(f"error: no tall package under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = sizes or workloads.STANDARD

    print("# env " + json.dumps(environment(), sort_keys=True))
    run = Run()
    if args.trace:
        wanted = spec["per_layer"]
        metrics = per_layer(run, workload, args.seed, args.seconds, sizes)
    else:
        wanted = spec["end_to_end"]
        metrics = end_to_end(run, workload, args.seed, args.seconds, sizes)

    aliases = {} if args.trace else PHASE_METRIC_NAMES[workload.name]
    report = {}
    for m in wanted:
        value = metrics.get(m["name"])
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        alias = f"  ({aliases[m['name']]})" if m["name"] in aliases else ""
        print(f"{m['name']} {value} {m['unit']}{alias}")
    failed = len(run.failures)
    print(f"failed_share {failed / max(run.attempted, 1)} ratio"
          f"  ({failed} of {run.attempted} set-ups, phase calls and checks)")
    for failure in run.failures:
        print("# failure " + json.dumps(
            {k: v for k, v in failure.items() if k != "traceback"}))
        print(failure["traceback"], file=sys.stderr)
    correct = failed == 0 and all(r["value"] is not None for r in report.values())
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
