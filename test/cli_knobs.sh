#!/bin/sh
# Front-door tier: every ompsimd_run subcommand parses the whole knobs
# record before doing any work, so a malformed or out-of-range
# OMPSIMD_* value fails each one the same way — exit 2 and a single stderr line naming the
# variable.  Also: a SIMD group the device warp cannot hold, a device
# whose blocks cannot hold the launch and a kernel run with failed
# blocks end with a clean exit code, never an uncaught exception; so
# does a serve trace asking for an arrival or a size out of range, and
# so does an unknown serve traffic profile.
#
# Usage: sh test/cli_knobs.sh <ompsimd_run.exe> <kernel.omp> <serve.requests>
set -u
run="$1"
kernel_file="$2"
requests="$3"
failures=0

for kv in OMPSIMD_FAULTS=bogus OMPSIMD_DOMAINS=x OMPSIMD_PASSES=nope \
          OMPSIMD_SERVE_QUEUE=x OMPSIMD_SERVE_SHARDS=0; do
  name="${kv%%=*}"
  for cmd in fig9 fig10 sharing dispatch amd reduction teamsmode spmdize \
             schedule "kernel spmv" "serve --synthetic 2" sweep \
             "compile $kernel_file" info all; do
    # shellcheck disable=SC2086
    err="$(env "$kv" "$run" $cmd 2>&1 >/dev/null)"
    code=$?
    lines="$(printf '%s\n' "$err" | wc -l)"
    case "$err" in
      *"$name"*) named=1 ;;
      *) named=0 ;;
    esac
    if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
      echo "FAIL: $kv ompsimd_run $cmd: exit $code, stderr: $err"
      failures=$((failures + 1))
    fi
  done
done

# A SIMD group the device's warp cannot hold is a usage error: exit 2
# and a single stderr line naming the group and the warp width, before
# any launch — for the kernel runner and every experiment that runs a
# fixed group (fig9 and reduction sweep only the groups the warp holds).
for cmd in "kernel ideal" fig10 sharing dispatch teamsmode spmdize schedule \
           all; do
  # shellcheck disable=SC2086
  err="$("$run" $cmd -d a100,warp_size=1 2>&1 >/dev/null)"
  code=$?
  lines="$(printf '%s\n' "$err" | wc -l)"
  case "$err" in
    *"uncaught exception"*) named=0 ;;
    *"group size "*"warp width 1"*) named=1 ;;
    *"--simdlen "*"warp width 1"*) named=1 ;;
    *) named=0 ;;
  esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
    echo "FAIL: ompsimd_run $cmd on a 1-wide warp: exit $code, stderr: $err"
    failures=$((failures + 1))
  fi
done

# A device whose blocks cannot hold the launch — too little shared
# memory for the sharing space, or a thread limit below the team — is a
# usage error too: exit 2 and a single stderr line naming the device,
# before any launch.  Tiny scale: a subcommand that got past the check
# would run.
for spec in small,shared_mem_per_block=8 small,max_threads_per_block=64; do
  for cmd in "kernel su3" fig9 fig10 sharing reduction teamsmode schedule \
             dispatch spmdize all; do
    # shellcheck disable=SC2086
    err="$("$run" $cmd -d "$spec" -s 0.01 2>&1 >/dev/null)"
    code=$?
    lines="$(printf '%s\n' "$err" | wc -l)"
    case "$err" in
      *"uncaught exception"*) named=0 ;;
      *"device sim-small cannot hold"*) named=1 ;;
      *) named=0 ;;
    esac
    if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
      echo "FAIL: ompsimd_run $cmd -d $spec: exit $code, stderr: $err"
      failures=$((failures + 1))
    fi
  done
done

# A served request whose sharing space the device cannot hold fails
# alone: the replay goes on, reports every request as failed and exits 0.
out="$(OMPSIMD_DEVICE=small,shared_mem_per_block=8 "$run" serve \
         --requests "$requests" 2>&1)"
code=$?
case "$out" in
  *"uncaught exception"*) clean=0 ;;
  *"requests        25  (completed 0, "*"failed 25)"*) clean=1 ;;
  *) clean=0 ;;
esac
if [ "$code" -ne 0 ] || [ "$clean" -ne 1 ]; then
  echo "FAIL: serve on an 8 B shared memory: exit $code, output: $out"
  failures=$((failures + 1))
fi

# A trace line the service cannot honour is a usage error: an arrival
# too many telemetry windows out (the replay would spin through every
# empty window) and a size too large to allocate each exit 2 with one
# stderr line naming the request, before any launch.
trace="$(mktemp)"
trap 'rm -f "$trace"' EXIT
for case in "at=1e15:request 0 arrives at 1e+15" "size=100000000:trace line 1: size"; do
  kv="${case%%:*}"
  want="${case#*:}"
  echo "kernel=rowsum size=64 teams=1 $kv" > "$trace"
  err="$("$run" serve --requests "$trace" 2>&1 >/dev/null)"
  code=$?
  lines="$(printf '%s\n' "$err" | wc -l)"
  case "$err" in
    *"uncaught exception"*) named=0 ;;
    *"$want"*) named=1 ;;
    *) named=0 ;;
  esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
    echo "FAIL: serve with $kv: exit $code, stderr: $err"
    failures=$((failures + 1))
  fi
done

# An unknown traffic profile is a usage error like the trace lines
# above: exit 2 with one stderr line naming the profile.
err="$("$run" serve --traffic 5 --profile bogus 2>&1 >/dev/null)"
code=$?
lines="$(printf '%s\n' "$err" | wc -l)"
case "$err" in
  *"uncaught exception"*) named=0 ;;
  *'"bogus"'*) named=1 ;;
  *) named=0 ;;
esac
if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
  echo "FAIL: serve --profile bogus: exit $code, stderr: $err"
  failures=$((failures + 1))
fi

# A kernel whose blocks fail under an armed fault plan prints its report,
# failures included, and exits 1 without verifying — never an uncaught
# exception.
out="$(OMPSIMD_FAULTS=abort=0.05 "$run" kernel spmv 2>&1)"
code=$?
case "$out" in
  *"uncaught exception"*) clean=0 ;;
  *"failure: "*) clean=1 ;;
  *) clean=0 ;;
esac
if [ "$code" -ne 1 ] || [ "$clean" -ne 1 ]; then
  echo "FAIL: faulted kernel spmv: exit $code, output: $out"
  failures=$((failures + 1))
fi

[ "$failures" -eq 0 ] || exit 1
echo "cli-knobs OK: every subcommand rejects malformed knobs uniformly"
