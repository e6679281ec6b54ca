#!/usr/bin/env bash
# Builds tbsd and the load generator from the checkout this script lives
# in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest-wal --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the root.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tbsd" ]]; then
  echo "run.sh: $root holds no tbsd sources; run from the repository root" >&2
  exit 2
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
  XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -o "$out/bin/tbsd" ./cmd/tbsd >&2
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -tbsd "$out/bin/tbsd" -dir "$out/run" "$@"
