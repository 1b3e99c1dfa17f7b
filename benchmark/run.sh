#!/usr/bin/env bash
# The command BENCHMARK.json names. The driver runs, from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 builds and runs `e2e` (end-to-end metrics, tracing off);
# --trace 1 builds and runs `layers --trace` (per-layer metrics). Every
# other argument is passed through. The last line on stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=e2e
pass=()
while [ $# -gt 0 ]; do
  if [ "$1" = "--trace" ] && [ $# -ge 2 ]; then
    if [ "$2" != "0" ]; then
      bin=layers
      pass+=(--trace)
    fi
    shift 2
  else
    pass+=("$1")
    shift
  fi
done
exec cargo run --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --bin "$bin" -- "${pass[@]}"
