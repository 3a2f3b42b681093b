#!/bin/sh
# Compare a fresh bench run against the committed baseline, or record a
# new one.
#
#   tools/bench_compare.sh            diff a fresh sequential run
#                                     (OMPSIMD_DOMAINS=0, dedup off)
#                                     against the matching entry in
#                                     BENCH_gpusim.json; exit 1 if any
#                                     row regressed by more than 25%
#   tools/bench_compare.sh --record   regenerate BENCH_gpusim.json: the
#                                     sequential baseline entry plus a
#                                     pooled entry (OMPSIMD_DOMAINS=3,
#                                     dedup on)
#
# The Bechamel stage always runs at its fixed reduced scale — that is
# what the baseline records; OMPSIMD_BENCH_SCALE here only shrinks the
# scientific-output pass that precedes it, which is not measured.
# Machine noise on single Bechamel estimates is routinely ±10%, so the
# 25% gate flags structural regressions, not jitter.
set -eu

cd "$(dirname "$0")/.."
baseline=BENCH_gpusim.json
threshold=1.25

dune build bench/main.exe

run_bench() {
  # run_bench <domains> <dedup 0|1> <json-out>
  # The sanitizer is pinned OFF: benchmarks measure the production path,
  # and the baseline gate below doubles as the proof that carrying the
  # (disabled) sanitizer hooks costs nothing — a hot-path regression in
  # the instrumented loads/stores shows up as an E6 (or any other row)
  # ratio past the threshold.
  # Fault injection is pinned OFF the same way (the "serve faulty" row
  # arms its own plan internally): the baseline doubles as the proof
  # that the disarmed fault hooks cost nothing on the hot path.
  # The optimization pipeline is pinned to its default too: the
  # recorded numbers measure the default pipeline (blank
  # OMPSIMD_PASSES), and an inherited override would shift every row.
  # The "serve warm cache (optimized)" row sets its own explicit spec
  # internally.
  # The fleet knobs are pinned blank the same way: the fleet row builds
  # its explicit config internally, and an inherited shard/batch/steal
  # override must not reshape it against the baseline.
  # The device knobs are pinned blank too: every row benchmarks the
  # seed device, and the hetero fleet row names its own zoo slice
  # internally — an inherited OMPSIMD_DEVICE or fleet device list would
  # shift every simulation row against the baseline.
  # The operability knobs (SLO, telemetry, autoscaler, affinity decay)
  # are pinned blank the same way: the SLO fleet row arms its own
  # config internally, and an inherited OMPSIMD_SERVE_SLO_MS would arm
  # shedding and scaling inside every other serve row.
  OMPSIMD_DEVICE= \
  OMPSIMD_FLEET_DEVICES= \
  OMPSIMD_FLEET_AFFINITY= \
  OMPSIMD_FLEET_DECAY= \
  OMPSIMD_SERVE_SHARDS= \
  OMPSIMD_SERVE_BATCH= \
  OMPSIMD_SERVE_STEAL= \
  OMPSIMD_SERVE_TENANTS= \
  OMPSIMD_SERVE_SLO_MS= \
  OMPSIMD_SERVE_WINDOW= \
  OMPSIMD_SERVE_TELEMETRY= \
  OMPSIMD_SERVE_SHED= \
  OMPSIMD_SERVE_AUTOSCALE= \
  OMPSIMD_SERVE_BUDGET= \
  OMPSIMD_SERVE_COOLDOWN= \
  OMPSIMD_PASSES= \
  OMPSIMD_SANITIZE=0 \
  OMPSIMD_FAULTS= \
  OMPSIMD_FAULT_SEED= \
  OMPSIMD_WATCHDOG= \
  OMPSIMD_DOMAINS="$1" \
  OMPSIMD_BENCH_DEDUP="$2" \
  OMPSIMD_BENCH_SCALE="${OMPSIMD_BENCH_SCALE:-0.05}" \
  OMPSIMD_BENCH_QUOTA="${OMPSIMD_BENCH_QUOTA:-1.0}" \
  OMPSIMD_BENCH_JSON="$3" \
    dune exec bench/main.exe
}

if [ "${1:-}" = "--record" ]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  echo "== recording sequential baseline (domains=0, dedup off) =="
  run_bench 0 0 "$out/seq.json"
  echo "== recording pooled entry (domains=3, dedup on) =="
  run_bench 3 1 "$out/pool.json"
  python3 - "$out/seq.json" "$out/pool.json" "$baseline" <<'EOF'
import json, sys
seq, pool, dst = sys.argv[1:4]
entries = [json.load(open(seq)), json.load(open(pool))]
with open(dst, "w") as f:
    json.dump({"entries": entries}, f, indent=2)
    f.write("\n")
print("wrote", dst)
EOF
  exit 0
fi

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
echo "== fresh sequential run (domains=0, dedup off) =="
run_bench 0 0 "$fresh"

python3 - "$baseline" "$fresh" "$threshold" <<'EOF'
import json, sys
baseline_path, fresh_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
committed = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))
base = next(
    (e for e in committed.get("entries", [committed])
     if e.get("domains") == fresh["domains"] and e.get("dedup") == fresh["dedup"]),
    None,
)
if base is None:
    sys.exit(f"no committed entry matches domains={fresh['domains']} dedup={fresh['dedup']}")
failed = []
# E6 (the reduction ablation) is the sanitizer-sensitive row: its inner
# loop is dominated by the instrumented loads/stores, so a fresh run
# must produce an estimate for it — a silently missing row would let a
# disabled-sanitizer slowdown ship ungated.
if fresh["ms_per_run"].get("reduction ablation (E6)") is None:
    sys.exit("FAIL: fresh run has no estimate for 'reduction ablation (E6)'")
# The fleet row is required the same way: it is the only row exercising
# the sharded scheduler, so a silently missing estimate would let a
# fleet-layer slowdown ship ungated.
if fresh["ms_per_run"].get("serve fleet warm (4 shards)") is None:
    sys.exit("FAIL: fresh run has no estimate for 'serve fleet warm (4 shards)'")
# And the heterogeneous row: the only row exercising device-affinity
# placement, per-device memo partitioning and sub-ring routing.
if fresh["ms_per_run"].get("serve fleet warm (hetero 4 shards)") is None:
    sys.exit("FAIL: fresh run has no estimate for 'serve fleet warm (hetero 4 shards)'")
# And the SLO row: the only row carrying the operability control plane
# (telemetry windows, SLO admission, the autoscaler step) on the hot
# path, so a control-plane slowdown must not ship ungated.
if fresh["ms_per_run"].get("serve fleet SLO (4 shards)") is None:
    sys.exit("FAIL: fresh run has no estimate for 'serve fleet SLO (4 shards)'")
print(f"{'row':<30} {'committed':>10} {'fresh':>10}  ratio")
for name, old in base["ms_per_run"].items():
    new = fresh["ms_per_run"].get(name)
    if old is None or new is None:
        print(f"{name:<30} {'?':>10} {'?':>10}  (missing estimate)")
        continue
    ratio = new / old
    flag = "  <-- REGRESSION" if ratio > threshold else ""
    print(f"{name:<30} {old:>10.1f} {new:>10.1f}  {ratio:4.2f}x{flag}")
    if ratio > threshold:
        failed.append(name)
if failed:
    sys.exit(f"FAIL: {len(failed)} row(s) regressed beyond {threshold:.2f}x: " + ", ".join(failed))
print("bench compare OK: no row regressed beyond %.2fx" % threshold)

# Allocation gate: minor-GC MB per run is measured from a single
# deterministic simulation run, so it is far less noisy than the timing
# estimates — a tighter threshold catches allocation regressions (a
# boxing change, a lost specialization) that timing jitter would hide.
alloc_threshold = 1.10
base_alloc = base.get("minor_mb_per_run")
fresh_alloc = fresh.get("minor_mb_per_run")
if base_alloc and fresh_alloc:
    failed = []
    print(f"{'row':<30} {'committed':>10} {'fresh':>10}  MB/run ratio")
    for name, old in base_alloc.items():
        new = fresh_alloc.get(name)
        if old is None or new is None or old < 1.0:
            # sub-MB rows are all overhead; skip the ratio
            continue
        ratio = new / old
        flag = "  <-- ALLOC REGRESSION" if ratio > alloc_threshold else ""
        print(f"{name:<30} {old:>10.1f} {new:>10.1f}  {ratio:4.2f}x{flag}")
        if ratio > alloc_threshold:
            failed.append(name)
    if failed:
        sys.exit(f"FAIL: {len(failed)} row(s) allocate beyond {alloc_threshold:.2f}x baseline: " + ", ".join(failed))
    print("alloc compare OK: no row allocates beyond %.2fx baseline" % alloc_threshold)
else:
    print("alloc compare skipped: baseline has no minor_mb_per_run entry")
EOF
