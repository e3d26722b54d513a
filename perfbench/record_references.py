"""Record reference outputs for stored seeds into references.json.

    python3 perfbench/record_references.py --workload NAME --seeds 0-11

Runs each seed at full size with the benchmark's BLAS thread count and
stores the outputs only if they pass the workload's invariant checks.
Record from the commit whose physics the benchmark should hold later
commits to; re-recording replaces the entries for the given seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    import run

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = p.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    os.environ.update(run.child_env())
    sys.path.insert(0, str(run.SRC))
    import workloads

    make_inputs, run_workload, check, _ = workloads.WORKLOADS[args.workload]
    path = HERE / "references.json"
    refs = json.loads(path.read_text())
    table = refs.setdefault(args.workload, {})
    run.WORK.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        inputs = make_inputs(seed, "full")
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            outputs = run_workload(inputs, Path(tmp))
        problems = check(outputs, inputs)
        if problems:
            print(f"seed {seed}: not recorded: {problems}", file=sys.stderr)
            return 1
        table[str(seed)] = outputs
        print(f"{args.workload} seed {seed}: recorded")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
