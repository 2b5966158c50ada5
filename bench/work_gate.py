#!/usr/bin/env python3
"""Compare perfbench work counters with the committed baseline.

    python3 bench/work_gate.py            # exit 1 on any difference
    python3 bench/work_gate.py --update   # rewrite bench/work_baseline.json

Run from the repository root after `python3 perfbench/run.py --workload W`
for every workload W in the baseline (any --seconds and --trace: the
counters cover the first pass's untraced calls only).  The counters are
read from `summary.work` of .bench_build/work/W.record.json and must equal
the baseline exactly, so a change in algorithmic work (simulated cycles,
stage-DTS queries, Clark calls, ...) has to be re-baselined on purpose.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "work_baseline.json"
WORK_DIR = ROOT / ".bench_build" / "work"
WORKLOADS = ("table2_cold", "sweep_2t", "warm_large")
SEED = 2026


def measured(workload):
    summary = json.loads((WORK_DIR / f"{workload}.record.json").read_text())["summary"]
    if summary["seed"] != SEED:
        sys.exit(f"{workload}: record is for seed {summary['seed']}, the baseline for {SEED}")
    return summary["work"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the baseline")
    args = ap.parse_args()

    if args.update:
        data = {"seed": SEED, "workloads": {w: measured(w) for w in WORKLOADS}}
        BASELINE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
        return 0

    baseline = json.loads(BASELINE.read_text())["workloads"]
    failed = False
    for workload, want in baseline.items():
        got = measured(workload)
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                print(f"{workload} {name}: baseline {want.get(name)}, measured {got.get(name)}")
                failed = True
    if failed:
        print("work counters differ; re-baseline with `python3 bench/work_gate.py --update`")
        return 1
    print(f"work counters equal {BASELINE.relative_to(ROOT)} on {', '.join(baseline)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
