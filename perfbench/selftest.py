#!/usr/bin/env python3
"""Self-test of the benchmark, on a one-program list per workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it checks that an untraced run prints every
end-to-end metric of BENCHMARK.json exactly once with its unit, and a
traced run every per-layer metric; that every item passes; that the
traced run writes its rows and spans; and that the simulated composite
time and every count (gc.* and host.* aside) are identical across two
runs of one seed and a run of another seed.
"""

import json
import os
import subprocess
import sys

PROGRAM = {"tune": "nw", "sim": "cfd", "compile": "nw"}
TARGETS = 3
OUT = ".perfbench"

# units of measured times and rates; every other metric outside the
# gc.* and host.* measurements is a count, a ratio of counts or the
# deterministic simulated time
TIMED_UNITS = {"s", "ms", "ns", "share", "winst/s"}

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL {msg}", file=sys.stderr)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"printed more than once: {sorted(dup)}")
    return dict(pairs)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--programs", PROGRAM[workload]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    label = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{label}: exit code {proc.returncode}")
    return label, json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)


def check_result(label, result, declared):
    check(result["correct"] and result["failed"] == 0, f"{label}: an item failed")
    check(result["attempted"] == TARGETS, f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{label}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        if name in metrics:
            check(metrics[name]["unit"] == unit, f"{label}: {name} in {metrics[name]['unit']}, not {unit}")


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if not k.startswith(("gc.", "host.")) and v["unit"] not in TIMED_UNITS}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in PROGRAM:
        label, result = run(w, 1, 0)
        check_result(label, result, end_to_end)
        traced = []
        for seed in (1, 1, 2):
            label, result = run(w, seed, 1)
            check_result(label, result, per_layer)
            traced.append((label, deterministic(result["metrics"])))
            stem = os.path.join(OUT, f"{w}-seed{seed}-trace1")
            with open(stem + "-rows.json") as f:
                check(len(json.load(f)["rows"]) == TARGETS, f"{label}: rows file")
            with open(stem + "-spans.json") as f:
                spans = json.load(f)
            check(spans and all({"name", "start", "end", "parent", "item"} <= set(s) for s in spans),
                  f"{label}: spans file")
        first_label, first = traced[0]
        check("sim_composite_ms" in first, f"{first_label}: sim_composite_ms not compared")
        for label, values in traced[1:]:
            moved = sorted(k for k in first if first[k] != values.get(k))
            check(not moved, f"{label}: differs from {first_label} on {moved}")
        print(f"{w}: {len(first)} deterministic metrics identical over 3 traced runs", file=sys.stderr)
    if failures:
        raise SystemExit(f"{len(failures)} self-test failure(s)")
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
