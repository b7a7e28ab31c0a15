"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workload NAME] [--seed N] [--seconds S]

For each workload (all by default) it runs the benchmark twice traced and
once untraced, with the same seed, and checks that:

* the two traced runs report identical ``*.calls`` counts and class counts;
* the traced and untraced runs report the same checks, pass by pass;
* every run is correct;
* on ``algebra-generic``, every ``linalg.*.calls`` count and
  ``coeffs.discrete_log.calls`` are 0;
* the traced profile matches the one the workloads were chosen for:
  ``linalg.spin`` takes at least 90 % of a ``regular-q3`` pass, and a
  ``supersingular-q5`` cycle makes at least 6600 ``discrete_log`` calls.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent
WORKLOADS = ("regular-q3", "supersingular-q5", "algebra-generic")


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload}: benchmark printed no result (exit {proc.returncode}): {proc.stderr[-500:]}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    return context, result


def check_workload(workload: str, seed: int, seconds: float) -> list:
    problems = []
    ctx_a, traced_a = bench(workload, seed, seconds, 1)
    ctx_b, traced_b = bench(workload, seed, seconds, 1)
    ctx_u, untraced = bench(workload, seed, seconds, 0)
    for label, result in (("traced", traced_a), ("traced again", traced_b), ("untraced", untraced)):
        if not result["correct"]:
            problems.append(f"{label} run not correct: {result['failed']} of {result['attempted']} steps failed")
    a, b = traced_a["metrics"], traced_b["metrics"]
    for name in sorted(a):
        if (name.endswith(".calls") or name == "galois.classes") and a[name]["value"] != b[name]["value"]:
            problems.append(f"{name} differs between traced runs: {a[name]['value']} != {b[name]['value']}")
    n = min(len(ctx_a["pass_checks"]), len(ctx_u["pass_checks"]))
    if n == 0 or ctx_a["pass_checks"][:n] != ctx_u["pass_checks"][:n]:
        problems.append("traced and untraced runs report different checks for the same passes")
    if workload == "algebra-generic":
        for name, metric in a.items():
            zero_expected = (name.startswith("linalg.") and name.endswith(".calls")) or name == "coeffs.discrete_log.calls"
            if zero_expected and metric["value"] != 0:
                problems.append(f"{name} is {metric['value']}, expected 0")
    if workload == "regular-q3" and a["linalg.spin.pass_share"]["value"] < 0.9:
        problems.append(f"linalg.spin takes {a['linalg.spin.pass_share']['value']:.3f} of a pass, expected >= 0.9")
    if workload == "supersingular-q5" and a["coeffs.discrete_log.calls"]["value"] < 6600:
        problems.append(f"only {a['coeffs.discrete_log.calls']['value']} discrete_log calls, expected >= 6600")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-checks of the heckedem benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    failed = False
    for workload in [args.workload] if args.workload else WORKLOADS:
        problems = check_workload(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
