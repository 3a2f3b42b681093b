#!/bin/sh
# Smoke-test the fault-injection determinism contract.
#
# Replays examples/serve.requests with an armed OMPSIMD_FAULTS chaos
# plan under three fault seeds, each across every OMPSIMD_EVAL x
# OMPSIMD_DOMAINS combination, and diffs the JSON snapshots
# byte-for-byte: injected faults are a pure function of (seed, launch
# nonce, block id), so the failure reports, relaunches and fault
# counters must be identical for any engine and pool width.
#
# Two more gates: an armed plan with all-zero rates must be
# byte-identical to a disarmed run (arming alone perturbs nothing),
# and at least one seed must actually exercise the recovery path.
#
# The final section is a long-run operability soak: a multi-phase
# diurnal chaos schedule over a heterogeneous fleet with the SLO
# admission gate and the autoscaler armed, holding the no-lost-request
# tally exactly, bounding the SLO-violation rate, and replaying the
# telemetry stream byte-for-byte.  CHAOS_SLICE=1 (the runtest wiring)
# shrinks the virtual day; every invariant is unchanged.
#
# Usage: tools/chaos_smoke.sh   (from the repo root)
set -eu

if [ -n "${OMPSIMD_RUN:-}" ]; then
  run="$OMPSIMD_RUN"
else
  cd "$(dirname "$0")/.."
  dune build bin/ompsimd_run.exe
  run=./_build/default/bin/ompsimd_run.exe
fi
trace="$(dirname "$0")/../examples/serve.requests"
plan='abort=0.4,flip=0.3:0.5,stall=0.2'
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Pin the service knobs to their unset defaults so every section
# replays byte-identically even if the caller's shell exports them; the
# sharded sections below set their shape with flags.
export OMPSIMD_SERVE_SHARDS= OMPSIMD_SERVE_BATCH= OMPSIMD_SERVE_STEAL=
export OMPSIMD_SERVE_TENANTS= OMPSIMD_FLEET_DEVICES=
export OMPSIMD_SERVE_SLO_MS= OMPSIMD_SERVE_WINDOW= OMPSIMD_SERVE_TELEMETRY=
export OMPSIMD_SERVE_SHED= OMPSIMD_SERVE_AUTOSCALE= OMPSIMD_SERVE_BUDGET=
export OMPSIMD_SERVE_COOLDOWN= OMPSIMD_FLEET_DECAY=

failures_seen=0
for seed in 1 7 42; do
  ref=""
  for engine in compile walk; do
    for domains in 0 3; do
      json="$out/chaos_${seed}_${engine}_${domains}.json"
      echo "== seed=$seed OMPSIMD_EVAL=$engine OMPSIMD_DOMAINS=$domains =="
      OMPSIMD_FAULTS="$plan" OMPSIMD_FAULT_SEED="$seed" \
      OMPSIMD_EVAL="$engine" OMPSIMD_DOMAINS="$domains" \
        "$run" serve --requests "$trace" --json "$json" > /dev/null
      if [ -z "$ref" ]; then
        ref="$json"
      else
        diff -q "$ref" "$json" \
          || { echo "FAIL: seed $seed snapshot differs from $ref"; exit 1; }
      fi
    done
  done
  grep -q '"device_failures": 0,' "$ref" || failures_seen=1
done

[ "$failures_seen" = 1 ] \
  || { echo "FAIL: no seed injected a device failure"; exit 1; }

# arming a zero-rate plan only switches deadlock capture on; it must not
# perturb a fault-free replay.  The one field allowed to move is
# fleet.memo_hits: any armed plan bypasses the launch memo, which saves
# host work and never changes a result.
OMPSIMD_FAULTS="" \
  "$run" serve --requests "$trace" --json "$out/off.json" > /dev/null
OMPSIMD_FAULTS="abort=0" OMPSIMD_FAULT_SEED=7 \
  "$run" serve --requests "$trace" --json "$out/armed_zero.json" > /dev/null
python3 - "$out/off.json" "$out/armed_zero.json" <<'EOF'
import json, sys
off, armed = (json.load(open(p)) for p in sys.argv[1:3])
for snap in (off, armed):
    del snap["fleet"]["memo_hits"]
assert off == armed, "FAIL: a zero-rate plan perturbed a fault-free replay"
EOF

# --- the sharded fleet, armed ------------------------------------------
# Fault nonces are pinned per (request, attempt), so the armed fleet
# snapshot must also be byte-identical across engines and pools, and on
# an admission-lossless breaker-free config the per-request results
# (outcome, launches, checksum) must not change with the shard count or
# batch limit — every request meets the exact same fault stream no
# matter which shard replays it or which merged grid carries it.
fref=""
for engine in compile walk; do
  for domains in 0 3; do
    json="$out/chaos_fleet_${engine}_${domains}.json"
    echo "== fleet seed=7 OMPSIMD_EVAL=$engine OMPSIMD_DOMAINS=$domains =="
    OMPSIMD_FAULTS="$plan" OMPSIMD_FAULT_SEED=7 \
    OMPSIMD_EVAL="$engine" OMPSIMD_DOMAINS="$domains" \
      "$run" serve --requests "$trace" --shards 4 --batch 8 --json "$json" \
      > /dev/null
    if [ -z "$fref" ]; then
      fref="$json"
    else
      diff -q "$fref" "$json" \
        || { echo "FAIL: armed fleet snapshot differs from $fref"; exit 1; }
    fi
  done
done
grep -q '"device_failures": 0,' "$fref" \
  && { echo "FAIL: armed fleet run injected no device failure"; exit 1; }

for combo in "1 1" "4 8"; do
  set -- $combo
  OMPSIMD_FAULTS="$plan" OMPSIMD_FAULT_SEED=7 \
  OMPSIMD_SERVE_QUEUE=100000 OMPSIMD_SERVE_BREAKER=0 \
    "$run" serve --traffic 120 --profile flash --seed 5 \
    --shards "$1" --batch "$2" --results "$out/chaos_results_$1_$2.json" \
    > /dev/null
done
diff -q "$out/chaos_results_1_1.json" "$out/chaos_results_4_8.json" \
  || { echo "FAIL: armed results changed with the shard/batch shape"; exit 1; }

grep -o '"recovery": {[^}]*}' "$out/chaos_7_compile_0.json"

# --- long-run operability: a diurnal chaos day -------------------------
# Three phases of a virtual day — overnight steady trickle, the daytime
# diurnal wave, a lunchtime flash crowd — each over a heterogeneous
# 4-shard fleet with the fault plan, SLO-aware admission and the
# autoscaler all armed.  Per phase: the no-lost-request tally must be
# exact (admitted = completed + rejected + shed + shed-slo + timed-out
# + failed + degraded), the SLO-violation rate (late completions plus
# SLO sheds) must stay bounded, and the telemetry JSONL must replay
# byte-identically on the other engine and pool width.
if [ "${CHAOS_SLICE:-0}" = 1 ]; then day=400; else day=4000; fi
hetero=a100,a100q,amd,small
phase_no=0
for phase in "steady 11 4" "diurnal 23 1" "flash 5 2"; do
  set -- $phase
  profile=$1; pseed=$2; n=$((day / $3))
  json="$out/day_${profile}.json"
  tele="$out/day_${profile}.jsonl"
  echo "== diurnal phase $phase_no: $profile n=$n seed=$pseed =="
  OMPSIMD_FAULTS="$plan" OMPSIMD_FAULT_SEED="$pseed" \
  OMPSIMD_FLEET_DEVICES="$hetero" \
    "$run" serve --traffic "$n" --profile "$profile" --seed "$pseed" \
    --shards 4 --batch 8 --slo 25 --telemetry "$tele" --json "$json" > /dev/null
  python3 - "$json" "$profile" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
lost = m["requests"] - (m["completed"] + m["rejected"] + m["shed"]
        + m["shed_slo"] + m["timed_out"] + m["failed"]
        + m["recovery"]["degraded"])
assert lost == 0, f"{sys.argv[2]}: lost {lost} of {m['requests']} requests"
rate = (m["slo"]["violations"] + m["shed_slo"]) / max(m["requests"], 1)
assert rate <= 0.35, f"{sys.argv[2]}: SLO-violation rate {rate:.3f} > 0.35"
print(f"   {sys.argv[2]}: {m['requests']} requests, 0 lost, "
      f"violation rate {rate:.3f}")
EOF
  OMPSIMD_FAULTS="$plan" OMPSIMD_FAULT_SEED="$pseed" \
  OMPSIMD_FLEET_DEVICES="$hetero" \
  OMPSIMD_EVAL=walk OMPSIMD_DOMAINS=3 \
    "$run" serve --traffic "$n" --profile "$profile" --seed "$pseed" \
    --shards 4 --batch 8 --slo 25 --telemetry "$tele.replay" > /dev/null
  diff -q "$tele" "$tele.replay" \
    || { echo "FAIL: $profile telemetry did not replay byte-identically"; exit 1; }
  phase_no=$((phase_no + 1))
done

# The autoscaler must earn its keep: under the flash crowd with
# admission shedding off, scaling against the SLO has to beat the fixed
# fleet on late completions, not just match it.
for auto in 1 0; do
  OMPSIMD_FAULTS="$plan" OMPSIMD_FAULT_SEED=23 \
  OMPSIMD_FLEET_DEVICES="$hetero" \
  OMPSIMD_SERVE_SHED=0 OMPSIMD_SERVE_AUTOSCALE="$auto" \
    "$run" serve --traffic "$day" --profile flash --seed 23 \
    --shards 4 --batch 8 --slo 8 --json "$out/asc_$auto.json" > /dev/null
done
python3 - "$out/asc_1.json" "$out/asc_0.json" <<'EOF'
import json, sys
on = json.load(open(sys.argv[1]))["metrics"]
off = json.load(open(sys.argv[2]))["metrics"]
assert on["autoscale"]["grows"] > 0, "autoscaler never grew under overload"
assert off["autoscale"]["grows"] == 0, "fixed arm scaled"
assert on["slo"]["violations"] < off["slo"]["violations"], (
    f"autoscaling did not reduce SLO violations: "
    f"{on['slo']['violations']} vs {off['slo']['violations']}")
print(f"   autoscale on/off violations: "
      f"{on['slo']['violations']}/{off['slo']['violations']} "
      f"(grows {on['autoscale']['grows']}, shrinks {on['autoscale']['shrinks']})")
EOF

echo "chaos smoke OK: fault snapshots bit-identical across engines and pools,"
echo "  diurnal chaos day lost nothing and telemetry replayed byte-for-byte"
