"""Compares a netbench `--trace 1` summary line with the recorded counters.

Usage: python3 .github/check_netbench_counters.py <workload> <summary-line>

With `--trace 1`, netbench's counters (predicate calls, scheduler draws,
effective steps, edge events, fault events, adversary decisions) are fixed
by the seed: they do not depend on `--seconds` or on the host. The record
in `netbench-counters-seed7.json` holds them for `--seed 7`, so an engine
refactor that moves any coin, step or predicate call fails here. A change
that alters a trajectory on purpose re-records the file and says so: on
a mismatch the measured counters are also printed as one JSON line, the
workload's entry to paste into the record. `engine_mem_bytes` is left
out: it follows allocation capacity, not the trajectory.
"""

import json
import os
import sys

COUNTERS = (
    "predicate_calls",
    "draws",
    "effective_steps",
    "edge_events",
    "fault_events",
    "adversary_decisions",
)


def main():
    workload, line = sys.argv[1], sys.argv[2]
    record_path = os.path.join(os.path.dirname(__file__), "netbench-counters-seed7.json")
    with open(record_path) as f:
        want = json.load(f)[workload]
    metrics = json.loads(line)["metrics"]
    got = {name: metrics[name]["value"] for name in COUNTERS}
    moved = [f"{name}: recorded {want[name]}, got {got[name]}" for name in COUNTERS if got[name] != want[name]]
    if moved:
        print(f"{workload}: counters moved off the seed-7 record", file=sys.stderr)
        for m in moved:
            print(f"  {m}", file=sys.stderr)
        print(f"  measured: {json.dumps(got)}", file=sys.stderr)
        sys.exit(1)
    print(f"{workload}: counters match the seed-7 record")


if __name__ == "__main__":
    main()
