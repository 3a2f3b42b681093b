#!/bin/sh
# Smoke-test the launch service's determinism contract.
#
# Replays examples/serve.requests under OMPSIMD_DOMAINS=0 and =3
# (sequential and pooled block simulation) and diffs the JSON snapshots
# byte-for-byte: the service runs in virtual time, so per-request
# reports (including checksums) and metrics must be identical
# everywhere.  A synthetic
# replay with a fixed seed is checked the same way, and so are the
# sharded, heterogeneous and SLO-telemetry fleets.
#
# Usage: tools/serve_smoke.sh  (from the repo root), or from dune with
# OMPSIMD_RUN pointing at an already-built ompsimd_run binary.
set -eu

if [ -n "${OMPSIMD_RUN:-}" ]; then
  run="$OMPSIMD_RUN"
else
  cd "$(dirname "$0")/.."
  dune build bin/ompsimd_run.exe
  run=./_build/default/bin/ompsimd_run.exe
fi
trace="$(dirname "$0")/../examples/serve.requests"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Pin the service knobs to their unset defaults so every section below
# replays byte-identically even if the caller's shell exports them; the
# sections that need a shape set it with flags.  The device knobs are
# pinned the same way: every section replays on the seed device, and
# the heterogeneous section sets its own device list explicitly.
export OMPSIMD_SERVE_SHARDS= OMPSIMD_SERVE_BATCH= OMPSIMD_SERVE_STEAL=
export OMPSIMD_SERVE_TENANTS=
export OMPSIMD_DEVICE= OMPSIMD_FLEET_DEVICES= OMPSIMD_FLEET_AFFINITY=
# The operability knobs are pinned the same way: an inherited SLO would
# arm admission shedding and the autoscaler and reshape every snapshot.
export OMPSIMD_SERVE_SLO_MS= OMPSIMD_SERVE_WINDOW= OMPSIMD_SERVE_TELEMETRY=
export OMPSIMD_SERVE_SHED= OMPSIMD_SERVE_AUTOSCALE= OMPSIMD_SERVE_BUDGET=
export OMPSIMD_SERVE_COOLDOWN= OMPSIMD_FLEET_DECAY=

ref=""
for domains in 0 3; do
  json="$out/serve_${domains}.json"
  echo "== OMPSIMD_DOMAINS=$domains =="
  OMPSIMD_DOMAINS="$domains" \
    "$run" serve --requests "$trace" --json "$json" \
    > "$out/serve_${domains}.log"
  OMPSIMD_DOMAINS="$domains" \
    "$run" serve --synthetic 24 --seed 11 --json "$json.synth" \
    > /dev/null
  if [ -z "$ref" ]; then
    ref="$json"
  else
    diff -q "$ref" "$json" \
      || { echo "FAIL: trace snapshot differs from $ref"; exit 1; }
    diff -q "$ref.synth" "$json.synth" \
      || { echo "FAIL: synthetic snapshot differs"; exit 1; }
  fi
done

# the replay must have exercised the interesting paths: cache hits and
# at least one enforced deadline
python3 - "$ref" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
assert m["cache"]["hits"] > 0, "FAIL: trace produced no cache hits"
assert m["timed_out"] > 0, "FAIL: trace enforced no deadline"
EOF

# --- the sharded fleet -------------------------------------------------
# Same contract with four shards and batching: the full
# snapshot (per-request reports with shard/batch attribution, per-shard
# and per-tenant breakdowns) must be byte-identical across pool widths,
# for both the example trace and generated traffic.
fref=""
for domains in 0 3; do
  json="$out/fleet_${domains}.json"
  echo "== fleet OMPSIMD_DOMAINS=$domains =="
  OMPSIMD_DOMAINS="$domains" \
    "$run" serve --requests "$trace" --shards 4 --batch 8 --json "$json" \
    > "$out/fleet_${domains}.log"
  OMPSIMD_DOMAINS="$domains" \
    "$run" serve --traffic 200 --profile mixed --seed 7 \
    --shards 4 --batch 8 --json "$json.traffic" > /dev/null
  if [ -z "$fref" ]; then
    fref="$json"
  else
    diff -q "$fref" "$json" \
      || { echo "FAIL: fleet trace snapshot differs from $fref"; exit 1; }
    diff -q "$fref.traffic" "$json.traffic" \
      || { echo "FAIL: fleet traffic snapshot differs"; exit 1; }
  fi
done

# Placement invariance: on an admission-lossless config the per-request
# results (outcome, launches, exec, checksum) must not change with the
# shard count or the batch limit — only the timing may.
for combo in "1 1" "4 8" "6 2"; do
  set -- $combo
  OMPSIMD_SERVE_QUEUE=100000 \
    "$run" serve --traffic 200 --profile flash --seed 11 \
    --shards "$1" --batch "$2" --results "$out/results_$1_$2.json" > /dev/null
done
diff -q "$out/results_1_1.json" "$out/results_4_8.json" \
  || { echo "FAIL: results changed with the shard/batch shape"; exit 1; }
diff -q "$out/results_1_1.json" "$out/results_6_2.json" \
  || { echo "FAIL: results changed with the shard/batch shape"; exit 1; }

# --- the heterogeneous fleet -------------------------------------------
# Four shards carrying four zoo devices with affinity placement on.
# Two contracts: the full snapshot is byte-identical across pool widths
# like everything else, and shuffling the device multiset over
# shard ids moves no byte of the per-request results (placement,
# stealing and affinity key on device names, never shard ids).
zoo="w32-hw,w64-hw,w16-sw,w32-l2tiny"
href=""
for domains in 0 3; do
  json="$out/hetero_${domains}.json"
  echo "== hetero OMPSIMD_DOMAINS=$domains =="
  OMPSIMD_DOMAINS="$domains" OMPSIMD_FLEET_DEVICES="$zoo" \
    "$run" serve --traffic 200 --profile mixed --seed 7 \
    --shards 4 --batch 8 --json "$json" > "$out/hetero_${domains}.log"
  if [ -z "$href" ]; then
    href="$json"
  else
    diff -q "$href" "$json" \
      || { echo "FAIL: hetero snapshot differs from $href"; exit 1; }
  fi
done

# device-shuffle identity, on an admission-lossless config
for perm in "$zoo" "w32-l2tiny,w32-hw,w64-hw,w16-sw" "w16-sw,w32-l2tiny,w32-hw,w64-hw"; do
  OMPSIMD_SERVE_QUEUE=100000 OMPSIMD_FLEET_DEVICES="$perm" \
    "$run" serve --traffic 200 --profile flash --seed 11 \
    --shards 4 --batch 8 --results "$out/hetero_perm.json" > /dev/null
  if [ ! -f "$out/hetero_perm_ref.json" ]; then
    mv "$out/hetero_perm.json" "$out/hetero_perm_ref.json"
  else
    diff -q "$out/hetero_perm_ref.json" "$out/hetero_perm.json" \
      || { echo "FAIL: results moved under device shuffle ($perm)"; exit 1; }
  fi
done

# --- the SLO-telemetry fleet -------------------------------------------
# With an SLO the fleet sheds and autoscales on telemetry-window
# boundaries; the windowed JSONL stream (per-shard lines plus the
# control line recording those decisions) must be byte-identical across
# pool widths, like the snapshot beside it.
tref=""
for domains in 0 3; do
  tel="$out/tel_${domains}.jsonl"
  echo "== SLO telemetry OMPSIMD_DOMAINS=$domains =="
  OMPSIMD_DOMAINS="$domains" OMPSIMD_SERVE_QUEUE=4 \
    "$run" serve --traffic 400 --profile mixed --seed 5 \
    --shards 4 --batch 8 --slo 6 --telemetry "$tel" \
    --json "$tel.json" > /dev/null
  if [ -z "$tref" ]; then
    tref="$tel"
  else
    diff -q "$tref" "$tel" \
      || { echo "FAIL: SLO telemetry differs from $tref"; exit 1; }
    diff -q "$tref.json" "$tel.json" \
      || { echo "FAIL: SLO snapshot differs from $tref.json"; exit 1; }
  fi
done
grep -q '"shedding": true' "$tref" \
  || { echo "FAIL: SLO telemetry never recorded shedding"; exit 1; }

# the hetero replay must actually have routed off the plain ring
hstats="$(grep -o '"fleet": {[^}]*}' "$href")"
case "$hstats" in
  *'"affinity_moves": 0'*)
    echo "FAIL: hetero replay never exercised affinity placement"; exit 1 ;;
esac

# the fleet replay must have exercised its machinery
fstats="$(grep -o '"fleet": {[^}]*}' "$fref.traffic")"
case "$fstats" in
  *'"batches": 0,'*) echo "FAIL: fleet traffic produced no merged grids"; exit 1 ;;
esac
case "$fstats" in
  *'"steals": 0,'*) echo "FAIL: fleet traffic produced no steals"; exit 1 ;;
esac

tail -n 8 "$out/serve_0.log"
tail -n 4 "$out/fleet_0.log"
echo "serve smoke OK: snapshots bit-identical across pools"
