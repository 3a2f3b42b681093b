#!/bin/sh
# Front-door tier: every ompsimd_run subcommand parses the whole knobs
# record before doing any work, so a malformed or out-of-range
# OMPSIMD_* value fails each one the same way — exit 2 and a single stderr line naming the
# variable.
#
# Usage: sh test/cli_knobs.sh <ompsimd_run.exe> <kernel.omp>
set -u
run="$1"
kernel_file="$2"
failures=0

for kv in OMPSIMD_FAULTS=bogus OMPSIMD_DOMAINS=x OMPSIMD_EVAL=bogus \
          OMPSIMD_PASSES=nope OMPSIMD_SERVE_QUEUE=x OMPSIMD_SERVE_SHARDS=0; do
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

[ "$failures" -eq 0 ] || exit 1
echo "cli-knobs OK: every subcommand rejects malformed knobs uniformly"
