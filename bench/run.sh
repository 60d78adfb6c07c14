#!/usr/bin/env bash
# run.sh — BENCHMARK.json's command. Builds normbench from the checkout it
# sits in and runs it with the caller's arguments:
#
#   bash bench/run.sh --workload rx_fastpath --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (the Go build cache included) stays under
# .bench_build/ in the checkout. Outside a Norman checkout (no go.mod beside
# bench/) it fails without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/nic ]; then
	echo "normbench: $root is not a Norman checkout (go.mod and internal/ missing); nothing to measure" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false \
	go build -o "$out/normbench" ./bench/cmd/normbench
exec "$out/normbench" "$@"
