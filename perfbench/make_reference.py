"""Regenerate the seed-0 reference values that run.py grades against.

    python3 perfbench/make_reference.py [workload ...]

Runs one untraced pass per workload (all four by default) under the same
pinned environment as the benchmark and writes reference/<workload>.json:
the name, lhs and rhs of every check record, in report order.  Only rerun
this when a change is meant to move the reported numbers, and say so.
"""

import json
import os
import sys
import time

import run


def main(names):
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for workload in names or run.WORKLOADS:
        _, result = run.worker_pass(
            run._job(workload, run.REFERENCE_SEED, "full"), time.perf_counter() + 600.0
        )
        failed = [r["name"] for r in result["records"] if not r["passed"]]
        if failed:
            sys.exit(f"{workload}: refusing to freeze failing checks {failed}")
        path = os.path.join(run.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": workload,
                    "seed": run.REFERENCE_SEED,
                    "records": run.reference_rows(result["records"]),
                },
                fh,
                indent=0,
            )
            fh.write("\n")
        print(f"{workload}: {len(result['records'])} records -> {os.path.relpath(path)}")


if __name__ == "__main__":
    main(sys.argv[1:])
