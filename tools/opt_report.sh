#!/bin/sh
# Per-pass attribution for the optimization pipeline: run the bench once
# per pipeline configuration — the default, each default pass toggled
# off, the empty pipeline, and the full tier-2 spec — and print ms/run
# and minor-GC MB/run for every row side by side.  The deltas attribute
# time and allocation to individual passes.
#
#   tools/opt_report.sh
#
# Environment: OMPSIMD_BENCH_SCALE (default 0.05) and
# OMPSIMD_BENCH_QUOTA (default 1.0) shrink the run exactly as
# tools/bench_compare.sh does.  Everything else is pinned to the same
# defaults bench_compare pins, so rows are comparable with the
# committed baseline.
set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

labels=""

run_one() {
  # run_one <label> <spec>
  echo "== $1 (OMPSIMD_PASSES=\"$2\") =="
  OMPSIMD_SANITIZE=0 \
  OMPSIMD_FAULTS= \
  OMPSIMD_FAULT_SEED= \
  OMPSIMD_WATCHDOG= \
  OMPSIMD_DOMAINS=0 \
  OMPSIMD_BENCH_DEDUP=0 \
  OMPSIMD_BENCH_SCALE="${OMPSIMD_BENCH_SCALE:-0.05}" \
  OMPSIMD_BENCH_QUOTA="${OMPSIMD_BENCH_QUOTA:-1.0}" \
  OMPSIMD_BENCH_JSON="$out/$1.json" \
  OMPSIMD_PASSES="$2" \
    dune exec bench/main.exe >/dev/null
  labels="$labels $1"
}

# the default pipeline is fold,unroll:32,dce (spec-language unroll is
# the structure-preserving variant, so the spec below reproduces the
# default exactly); each no-* config drops one pass from it
run_one default   ""
run_one none      "none"
run_one no-fold   "unroll:32,dce"
run_one no-unroll "fold,dce"
run_one no-dce    "fold,unroll:32"
run_one tier2     "fold,licm,strength,collapse,interchange,fuse,tile:32,unroll:32,dce"

python3 - "$out" $labels <<'EOF'
import json, sys
out, labels = sys.argv[1], sys.argv[2:]
data = {l: json.load(open(f"{out}/{l}.json")) for l in labels}
rows = list(data[labels[0]]["ms_per_run"].keys())

def table(title, field, fmt):
    print()
    print(title)
    header = f"{'row':<32}" + "".join(f"{l:>12}" for l in labels)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for l in labels:
            v = data[l].get(field, {}).get(row)
            cells.append("?".rjust(12) if v is None else fmt(v).rjust(12))
        print(f"{row:<32}" + "".join(cells))

table("ms per run (Bechamel estimate; jitter is routinely +/-10%)",
      "ms_per_run", lambda v: f"{v:.1f}")
table("minor-GC MB per run (deterministic single-run measurement)",
      "minor_mb_per_run", lambda v: f"{v:.1f}")
print()
print("deltas vs 'default' attribute each toggled pass; 'none' is the")
print("unoptimized floor and 'tier2' the full scripted pipeline.")
EOF
