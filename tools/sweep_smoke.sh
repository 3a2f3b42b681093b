#!/bin/sh
# Smoke-test the device-zoo sweep harness.
#
# Runs `ompsimd_run sweep` over a four-entry slice of the zoo at tiny
# scale and checks that: the table names every swept device and every
# claim, the CSV carries one row per (device, claim), a rerun is
# byte-identical (the sweep is pure virtual time), the paper's own
# shape (w32-hw) holds every claim, the device without a masked warp
# sync (w32-none) inverts the Fig 9 claim — the Sec 5.4.1 boundary:
# generic regions degrade to singleton groups there — and an unknown
# zoo entry is rejected with a non-zero exit.
#
# Usage: tools/sweep_smoke.sh  (from the repo root), or from dune with
# OMPSIMD_RUN pointing at an already-built ompsimd_run binary.
set -eu

if [ -n "${OMPSIMD_RUN:-}" ]; then
  run="$OMPSIMD_RUN"
else
  cd "$(dirname "$0")/.."
  dune build bin/ompsimd_run.exe
  run=./_build/default/bin/ompsimd_run.exe
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# the sweep builds its own per-entry devices: a caller's device/fleet
# environment must not leak in
export OMPSIMD_DEVICE= OMPSIMD_FLEET_DEVICES= OMPSIMD_FLEET_AFFINITY=

devices="w32-hw,w16-hw,w64-sw,w32-none"
"$run" sweep --scale 0.05 --devices "$devices" --csv "$out/sweep.csv" \
  > "$out/sweep.txt"

for d in w32-hw w16-hw w64-sw w32-none; do
  grep -q "$d" "$out/sweep.txt" \
    || { echo "FAIL: table is missing device $d"; exit 1; }
done
grep -q "fig9" "$out/sweep.txt" && grep -q "fig10" "$out/sweep.txt" \
  && grep -q "E6" "$out/sweep.txt" \
  || { echo "FAIL: table is missing a claim column"; exit 1; }

# header + 4 devices x 3 claims
rows=$(wc -l < "$out/sweep.csv")
[ "$rows" -eq 13 ] \
  || { echo "FAIL: expected 13 CSV lines, got $rows"; exit 1; }

# the sweep runs in virtual time: a rerun is byte-identical
"$run" sweep --scale 0.05 --devices "$devices" --csv "$out/sweep2.csv" \
  > "$out/sweep2.txt"
diff -q "$out/sweep.csv" "$out/sweep2.csv" > /dev/null \
  || { echo "FAIL: sweep CSV not deterministic"; exit 1; }

# the paper's own shape must hold every claim, even at smoke scale
if grep "^w32-hw," "$out/sweep.csv" | grep -q ",false,"; then
  echo "FAIL: w32-hw inverted a claim"
  exit 1
fi

# without a masked warp sync the Fig 9 claim must invert
grep -q "^w32-none,fig9 simd>1,false," "$out/sweep.csv" \
  || { echo "FAIL: w32-none did not invert the fig9 claim"; exit 1; }

# unknown zoo entries are a hard error
if "$run" sweep --devices nope --scale 0.05 > /dev/null 2>&1; then
  echo "FAIL: unknown device accepted"
  exit 1
fi

echo "sweep smoke OK: table and CSV deterministic, w32-hw holds all claims, w32-none inverts fig9"
