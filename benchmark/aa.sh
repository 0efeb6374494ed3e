#!/usr/bin/env bash
# A/A check: two sets of runs of the same build must agree within the
# benchmark's own bounds.
#
#   benchmark/aa.sh [runs-per-set]      (default 10, the driver's number)
#
# Each set runs every workload `runs-per-set` times untraced, each time
# with another seed.  For every end-to-end metric of every workload it
# fails if
#   - the medians of the two sets differ by more than the metric's bound, or
#   - the spread of a set (first to third quartile, as a share of its
#     median) exceeds the bound (setup_s is exempt from this one, as in the
#     driver).
# It prints the table that benchmark/README.md records.  If it fails,
# lengthen the timed windows (run_seconds, within the contract's time cap)
# before widening a bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
# Build once; every run below reuses the binary.
"$here/run.sh" --list >/dev/null

python3 - "$here" "$runs" <<'PY'
import json, statistics, subprocess, sys
here, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = str(spec["run_seconds"])
table, failed = [], False
for workload in [w["name"] for w in spec["workloads"]]:
    sets = []
    for s in range(2):
        rows = []
        for i in range(runs):
            seed = str(1000 * (s + 1) + i)
            out = subprocess.run(
                [f"{here}/run.sh", "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
            rows.append(result["metrics"])
        sets.append(rows)
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        medians, spreads = [], []
        for rows in sets:
            values = [r[name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            medians.append(statistics.median(values))
            spreads.append((q3 - q1) / medians[-1])
        a, b = medians
        drift = abs(b - a) / a
        ok = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
        failed |= not ok
        table.append((workload, name, metric["unit"], a, b, drift, max(spreads), bound, ok))
print("| workload | metric | unit | median A | median B | drift | max spread | bound | ok |")
print("|---|---|---|---|---|---|---|---|---|")
for w, n, u, a, b, d, s, bound, ok in table:
    print(f"| {w} | {n} | {u} | {a:.4g} | {b:.4g} | {d:.3f} | {s:.3f} | {bound} | {'yes' if ok else 'NO'} |")
sys.exit(1 if failed else 0)
PY
