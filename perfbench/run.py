"""heckedem benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload regular-q3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload in turn

Run from the root of a checkout; the package is imported from ``src/``.

With ``--trace 0`` the run measures end-to-end metrics: ``setup_s`` (median
over fresh processes of importing heckedem and building the workload's
towers), then one warm-up pass (reported, not counted), the workload's
coverage steps, and back-to-back timed passes for ``--seconds``.  The
reported timings are scaled to a reference host speed by a calibration loop
run next to them (see calibration.py); the raw wall-clock figures are in the
run context.  With ``--trace 1`` it times a few untraced passes, then traces exactly one
cycle of passes plus the coverage steps, and reports per-layer metrics for
that cycle; ``--seconds`` does not apply.

Every step's output is checked.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run context.  The exit code is 1 if any step failed, 2 on a usage or
environment error (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 6  # measured set-up probes per run, after one unmeasured probe
REFERENCE_PASSES = 6  # untraced passes timed in a traced run, for the overhead ratio

SETUP_PROBE = """
import json, sys, time
from calibration import calibrate
before = calibrate()
start = time.perf_counter()
import heckedem
imported = time.perf_counter()
from heckedem.coeffs import build_tower
for p, f in json.loads(sys.argv[1]):
    build_tower(p, f)
end = time.perf_counter()
after = calibrate()
print(json.dumps({
    "setup_s": end - start,
    "build_tower_s": end - imported,
    "calibration_s": (before + after) / 2,
    "file": heckedem.__file__,
}))
"""


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import heckedem from this checkout's src/, never from elsewhere."""
    if not (SRC / "heckedem" / "__init__.py").is_file():
        die(f"no heckedem package under {SRC}")
    sys.path.insert(0, str(SRC))
    import heckedem

    if Path(heckedem.__file__).resolve().parent != (SRC / "heckedem").resolve():
        die(f"imported heckedem from {heckedem.__file__}, not from {SRC}")


def measure_setup(towers) -> list:
    """Fresh-process set-up times: import heckedem and build every tower."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    # the first probe of a fresh checkout also compiles the package to bytecode
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(towers)],
            env=env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["file"]).resolve().parent != (SRC / "heckedem").resolve():
            die(f"set-up probe imported heckedem from {sample['file']}, not from {SRC}")
        samples.append(sample)
    return samples[1:]


def tail(times: list) -> tuple:
    """The highest percentile with at least ten passes beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quartiles(values: list) -> list:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)


def run_context(args, workload) -> dict:
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.seed_used,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "optimize_flag": sys.flags.optimize,
    }
    if not workload.seed_used:
        context["note"] = "exhaustive and deterministic: the seed does not change the inputs"
    return context


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def until(seconds: float):
    """Pass indices 1, 2, ... until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline:
        yield i
        i += 1


def timed_passes(workload, rec, indices) -> tuple:
    """Run passes back to back, with a calibration before each and after the last.

    Returns the raw pass times, the times scaled to the reference host speed
    by the mean of the two calibrations around each pass, and the checks
    each pass made.
    """
    times, adjusted, checks = [], [], []
    before_cal = calibrate()
    for index in indices:
        rec.work_s = 0.0
        before_checks = rec.checks
        workload.run_pass(index, rec)
        after_cal = calibrate()
        times.append(rec.work_s)
        adjusted.append(rec.work_s * REFERENCE_S * 2 / (before_cal + after_cal))
        checks.append(rec.checks - before_checks)
        before_cal = after_cal
    return times, adjusted, checks


def end_to_end(setup, times, adjusted, checks) -> tuple:
    """End-to-end metrics from speed-adjusted times, and their raw wall-clock twins."""
    raw_setup = [s["setup_s"] for s in setup]
    adjusted_setup = [s["setup_s"] * REFERENCE_S / s["calibration_s"] for s in setup]
    metrics, raw = {}, {}
    for out, pass_times, setup_times in ((metrics, adjusted, adjusted_setup), (raw, times, raw_setup)):
        out["setup_s"] = statistics.median(setup_times)
        out["pass_s.p50"] = statistics.median(pass_times)
        out["pass_s.tail"] = tail(pass_times)[0]
        out["checks_per_s"] = statistics.median(c / t for c, t in zip(checks, pass_times))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "pass_s": {"samples": len(adjusted), "quartiles": quartiles(adjusted), "tail_percentile": tail(adjusted)[1]},
        "setup_s": {"samples": len(adjusted_setup), "quartiles": quartiles(adjusted_setup)},
        "checks_per_s": {"samples": len(checks), "quartiles": quartiles([c / t for c, t in zip(checks, adjusted)])},
        "calibration_s": {"reference": REFERENCE_S, "setup_median": statistics.median(s["calibration_s"] for s in setup)},
    }
    return metrics, raw, samples


def run_workload(args, name: str) -> int:
    import tracer
    import workloads

    golden = workloads.Golden()
    workload = workloads.WORKLOADS[name](args.seed, golden)
    context = run_context(args, workload)
    setup = measure_setup(workload.towers)
    rec = workloads.Recorder()

    rec.work_s = 0.0
    workload.run_pass(0, rec)  # warm-up: fills build_tower's and sympy's caches
    context["warmup_pass_s"] = rec.work_s

    if args.trace:
        _, ref_adjusted, _ = timed_passes(workload, rec, range(1, REFERENCE_PASSES + 1))
        with tracer.Tracer() as tr:
            times, adjusted, checks = timed_passes(workload, rec, range(1, workload.cycle_len + 1))
            workload.run_coverage(rec)
        metrics = tracer.layer_metrics(tr, sum(times))
        metrics["trace.overhead_ratio"] = (
            statistics.median(adjusted[: len(ref_adjusted)]) / statistics.median(ref_adjusted)
        )
        metrics["coeffs.build_tower.s"] = statistics.median(s["build_tower_s"] for s in setup)
        spec = _benchmark_spec()["per_layer"]
        context["traced_passes"] = len(times)
        context["traced_pass_s"] = sum(times)
    else:
        workload.run_coverage(rec)
        times, adjusted, checks = timed_passes(workload, rec, until(args.seconds))
        metrics, context["raw_wall_clock"], context["samples"] = end_to_end(setup, times, adjusted, checks)
        spec = _benchmark_spec()["end_to_end"]

    context["pass_checks"] = checks
    context["checks"] = rec.checks
    context["fail_ratio"] = rec.failed / rec.attempted
    context["golden"] = "pass" if rec.failed == 0 else "fail"
    context["failures"] = rec.failures
    units = {m["name"]: m["unit"] for m in spec}
    missing = set(units) - set(metrics)
    if missing:
        die(f"metrics missing from the run: {sorted(missing)}")
    for key in units:
        print(f"{name:18s} {key:44s} {metrics[key]:12.6g} {units[key]}")
    print(f"{name:18s} {'fail_ratio':44s} {context['fail_ratio']:12.6g} ({rec.failed} of {rec.attempted} steps)")
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if rec.failed == 0 else 1


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        die("refusing to run under python -O: heckedem checks results with assert")
    if not (ROOT / "BENCHMARK.json").is_file():
        die("BENCHMARK.json not found at the checkout root")
    load_package()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            die(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    status = 0
    for name in names:
        status = max(status, run_workload(args, name))
    return status


if __name__ == "__main__":
    sys.exit(main())
