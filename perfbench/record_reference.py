"""Record the reference rows that run.py checks every run against.

    python3 perfbench/record_reference.py

Runs each workload's configurations at the model defaults (sampling seed 0)
and writes their per-order stability flags and relative H2 errors to
reference.json.  Re-record only when a change to the program is meant to
change these results.
"""

import json
import sys

import workloads
from run import import_program, run_call


def main() -> int:
    bench = import_program()
    reference = {}
    for workload in workloads.STUDIES:
        for kw in workloads.reference_kwargs(workload):
            call = run_call(bench, kw)
            if call["problems"]:
                sys.exit(f"{workload} {kw}: {call['problems']}")
            reference[workloads.reference_key(kw)] = workloads.reference_rows(call["result"])
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
