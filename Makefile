# Developer entry points. `make check` is the gate every PR must pass.

GO ?= go

.PHONY: check build test race bench bench-engine bench-overlay docs

check:
	./scripts/check.sh

# Documentation gates alone (a fast subset of `make check`): every package
# must carry a godoc comment, and OBSERVABILITY.md's metric names must
# match a fully populated registry (the drift gate).
docs:
	@undoc=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$$' || true); \
	if [ -n "$$undoc" ]; then echo "packages lack a doc comment: $$undoc" >&2; exit 1; fi
	$(GO) test -count=1 -run 'TestObservabilityDocMatchesRegistry' .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	NORMAN_WORKERS=8 $(GO) test -race -count=1 ./internal/sim/... ./internal/experiments/...

# Engine hot-loop microbenchmarks (the allocs/op column must stay at 0).
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkTimer' -benchmem ./internal/sim/

# One overlay Run per op on a match+meter+table program and on normbench's two
# ACL chains (acl_per_flow is rx_slowpath's; allocs/op must stay at 0).
bench-overlay:
	$(GO) test -run xxx -bench 'BenchmarkVMRun' -benchmem ./internal/overlay/

# Full experiment benchmark sweep (regenerates every table).
bench:
	$(GO) test -run xxx -bench . -benchmem .
