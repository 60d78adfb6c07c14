#!/bin/sh
# bench_record.sh — appends one record to BENCH_TRAJECTORY.json, the repo's
# perf trajectory (ROADMAP item 1). It runs the benchmark as it stands,
# `bench/run.sh -seed N -out …`, at seeds 1 and 2 with BENCHMARK.json's
# run_seconds per workload and phase, and keeps, per seed and workload, the
# median and interquartile range of the five host metrics and the model
# fingerprint. The record names the commit measured (and whether the working
# tree differed from it), the Go version and the processor count.
#
#   scripts/bench_record.sh        # about 7 minutes on a 2-vCPU box
#
# The full result files stay in .bench_build/record-seed<N>.json (per-layer
# metrics included). The trajectory file is append-only: the script adds a
# record and never rewrites an earlier one.
set -eu

cd "$(dirname "$0")/.."
trajectory=BENCH_TRAJECTORY.json
seconds=$(jq -r .run_seconds BENCHMARK.json)
mkdir -p .bench_build

for seed in 1 2; do
	bash bench/run.sh -seed "$seed" -seconds "$seconds" -out ".bench_build/record-seed$seed.json" \
		-trace-out .bench_build/record-trace >/dev/null
done

commit=$(git rev-parse HEAD)
uncommitted=false
git diff --quiet HEAD -- . ":(exclude)$trajectory" || uncommitted=true

record=$(jq -s --arg commit "$commit" --argjson uncommitted "$uncommitted" '{
	commit: $commit,
	uncommitted: $uncommitted,
	go_version: .[0].go_version,
	nproc: .[0].nproc,
	seconds_per_workload: .[0].seconds_per_workload,
	runs: [.[] | .workloads[] | {seed, workload, model_fingerprint} + (.end_to_end
		| with_entries(select(.key | IN("setup_s", "host_ns_per_frame", "host_allocs_per_frame",
			"host_bytes_per_frame", "host_live_heap_mb")))
		| map_values({median, iqr: (.q3 - .q1)}))]
}' .bench_build/record-seed1.json .bench_build/record-seed2.json)

[ -f "$trajectory" ] || echo '[]' >"$trajectory"
jq --argjson rec "$record" '. + [$rec]' "$trajectory" >"$trajectory.tmp"
mv "$trajectory.tmp" "$trajectory"
