#!/usr/bin/env bash
# Build pwam-ladder (offline, into CARGO_TARGET_DIR or <repo>/.bench_build)
# and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the arguments go to pwam-ladder unchanged and its result is
#       the last line of standard output.
#   benchmark/run.sh
#       every workload, untraced then traced (seed 1, default --seconds):
#       checks every answer and prints one JSON object per workload holding
#       every metric by name with its unit.  Spans and per-layer tables go
#       to <repo>/.bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"

CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2
ladder="$target/release/pwam-ladder"

if [ "$#" -gt 0 ]; then
    exec "$ladder" "$@"
fi

status=0
for workload in $("$ladder" --list | cut -f1); do
    end_to_end="$("$ladder" --workload "$workload" --trace 0 | tail -n 1)"
    per_layer="$("$ladder" --workload "$workload" --trace 1 --out "$root/.bench_out" | tail -n 1)"
    python3 - "$workload" "$end_to_end" "$per_layer" <<'PY' || status=1
import json, sys
workload, end_to_end, per_layer = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
print(json.dumps({
    "workload": workload,
    "correct": end_to_end["correct"] and per_layer["correct"],
    "attempted": end_to_end["attempted"],
    "failed": end_to_end["failed"],
    "failed_share": end_to_end["failed"] / end_to_end["attempted"],
    "end_to_end": end_to_end["metrics"],
    "per_layer": per_layer["metrics"],
}))
sys.exit(0 if end_to_end["correct"] and per_layer["correct"] else 1)
PY
done
exit "$status"
