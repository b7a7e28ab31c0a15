"""Record golden.json: hashes of CLI output and spin results.

    python3 perfbench/make_golden.py

Runs one full cycle and the coverage steps of every workload and stores
what the program printed.  Record only at a commit whose outputs are
trusted; a later run that differs from these values counts as failed.
The exact expectations (class counts, dimensions, check counts) are not
recorded here: they are written out in workloads.py.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    run.load_package()
    import workloads

    golden = workloads.Golden(record=True)
    golden.data = {}
    for cls in workloads.WORKLOADS.values():
        workload = cls(0, golden)
        rec = workloads.Recorder()
        for i in range(workload.cycle_len):
            workload.run_pass(i, rec)
        workload.run_coverage(rec)
        print(f"{workload.name}: {rec.attempted} steps, {rec.failed} failed", file=sys.stderr)
        if rec.failed:
            print("\n".join(rec.failures), file=sys.stderr)
            return 1
    golden.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
