#!/bin/sh
# check.sh — the repo's full verification gate: format, build, vet, docs
# lint, the tier-1 test suite, a race-detector pass over the packages that
# run worlds on parallel goroutines, and an end-to-end pcap smoke test
# against a live daemon. `make check` wraps this.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: gofmt must be a no-op across the tree.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" "$unformatted" >&2
	exit 1
fi

go build ./...
go vet ./...

# Ledger gate: a typed drop counter is bumped in internal/nic/ledger.go and
# nowhere else, so no drop can skip the reason table, the tenant attribution,
# the drop span or the release of what the frame held.
if grep -nE '\.(Rx[A-Za-z]*Drop[A-Za-z]*|RxShed|Tx[A-Za-z]*Drop[A-Za-z]*)(\+\+| \+=)' \
	$(ls internal/nic/*.go | grep -v -e _test.go -e /ledger.go); then
	echo "drop counter incremented outside internal/nic/ledger.go (use NIC.drop)" >&2
	exit 1
fi

# The same gate for the host's way out above the ring: a host drop counter
# (TxAppDrops, the reason array, or a pointer to either) moves in
# internal/arch/exits.go and nowhere else.
if grep -nE 'TxAppDrops(\+\+| \+=)|\.drops\[|hostCtr\(' \
	$(ls internal/arch/*.go | grep -v -e _test.go -e /exits.go); then
	echo "host drop counter touched outside internal/arch/exits.go (use base.hostDrop)" >&2
	exit 1
fi

# One token bucket with an exact ready time (DESIGN.md §8, "Shapers"): refill
# arithmetic — a `.Seconds() *` rate product or a `tokens` field — lives in
# internal/qos/bucket.go and nowhere else, and neither qdisc pump polls: the
# NIC's stPumpRetry and soft.pumpTx's fixed-delay re-arm stay gone (a pump
# sleeps until the qdisc's own ReadyAt). soft.pumpTx holds exactly one
# After(: the modelled BQL re-poll, one wire frame time after a full ring.
if grep -nE '\.Seconds\(\) *\* *[A-Za-z_.]*[rR]ate\b|[tT]okens +float|\.[A-Za-z]*[tT]okens\b' \
	$(find . -name '*.go' ! -name '*_test.go' ! -path ./internal/qos/bucket.go); then
	echo "token-bucket refill arithmetic outside internal/qos/bucket.go (use qos.Bucket)" >&2
	exit 1
fi
if grep -nw 'stPumpRetry' $(ls internal/nic/*.go | grep -v _test.go) ||
	awk '/^func \(s \*soft\) pumpTx\(/ { in_pump = 1 }
		in_pump && /sim\.[A-Za-z]*[sS]econd/ { print FILENAME ":" FNR ": " $0; bad = 1 }
		in_pump { afters += gsub(/After\(/, "&") }
		in_pump && /^}/ { in_pump = 0 }
		END { if (afters != 1) { print "soft.pumpTx: " afters " After( calls, want 1 (the BQL re-poll)"; bad = 1 }; exit !bad }' internal/arch/soft.go; then
	echo "a qdisc pump re-arms on a fixed delay (arm it at the qdisc's ReadyAt)" >&2
	exit 1
fi

# A frame goes back to its world where its journey ends (DESIGN.md §8): the
# frames built per packet — the world's UDP frames, the transport's segments
# and ACKs — come off the world's free list, never from the GC constructors.
if grep -nE 'packet\.New(UDP|TCP)\(' internal/arch/world.go \
	$(ls internal/transport/*.go | grep -v _test.go); then
	echo "per-frame construction outside the world's free list (use World.Frames, UDPTo, UDPFrom)" >&2
	exit 1
fi

# One executor: Machine.Run steps through lowered code with pre-decoded costs.
# The instruction-at-a-time loop it replaced (Inst.Cost() summed per step) is
# the differential oracle and lives in internal/overlay's test files only.
if grep -nE '[+]= *[A-Za-z_.]+\.Cost\(\)' $(ls internal/overlay/*.go | grep -v _test.go); then
	echo "Inst.Cost() summed per step in product code: the interpreter loop belongs in internal/overlay/*_test.go" >&2
	exit 1
fi

# One compiler backend (DESIGN.md §8, "What set-up costs"): an iptables chain
# compiles straight to overlay instructions and ends in overlay.NewProgram.
# Printing the chain as assembly and parsing it back is the text emitter the
# compiler is tested against, and lives in internal/filter's test files only.
if grep -n 'overlay\.Assemble(' $(ls internal/filter/*.go | grep -v _test.go); then
	echo "overlay.Assemble in non-test internal/filter: emit overlay.Inst values and end in overlay.NewProgram" >&2
	exit 1
fi

# One resolution and one price list per frame (DESIGN.md §8): the cost model is
# never copied — every Model method takes a pointer — and an ingress frame's
# 5-tuple is extracted exactly once in internal/nic, at admission; steering,
# RSS and the flow cache read it from the job.
if grep -nE '^func \([a-z]+ Model\)' internal/timing/model.go; then
	echo "value-receiver method on timing.Model: every call would copy the struct (use *Model)" >&2
	exit 1
fi
flows=$(cat $(ls internal/nic/*.go | grep -v _test.go) | grep -c '\.Flow()')
if [ "$flows" -ne 1 ]; then
	echo "internal/nic extracts a frame's 5-tuple in $flows places, want 1 (rxAdmit; read job.key elsewhere)" >&2
	exit 1
fi

# A delivery handler rides on its connection (arch.Conn.Deliver) and goes with
# it at Close: internal/host keeps no table keyed by connection id, which is
# how every closed connection of a churning run used to stay on the heap.
if grep -n 'map\[uint64\]' $(ls internal/host/*.go | grep -v _test.go); then
	echo "internal/host declares a map keyed by connection id (set arch.Conn.Deliver instead)" >&2
	exit 1
fi

# One datapath, two disciplines (DESIGN.md §9): the datapath submits every frame
# to the pipeline and DMA stages and admits it against the FIFO's share table;
# which discipline serves it — the server's own FIFO, or weighted DRR with
# per-tenant shares — is asked in internal/nic/tenant.go and nowhere else.
discipline='tsched *[!=]= *nil|TenantScheduler\(\) *[!=]= *nil|\.qs *[!=]= *nil|\.total *[!=]= *0'
if grep -nE "$discipline" $(ls internal/nic/*.go | grep -v -e _test.go -e /tenant.go); then
	echo "internal/nic asks which service discipline is installed outside tenant.go (submit to the stage; want 0 such tests)" >&2
	exit 1
fi
asked=$(grep -cE "$discipline" internal/nic/tenant.go)
if [ "$asked" -ne 5 ]; then
	echo "internal/nic/tenant.go asks which discipline is installed in $asked places, want 5: one per stage operation (Stage.Request, Stage.Charge, Stage.book), the share table's lookup (TenantSched.share) and the NIC.TenantScheduler accessor" >&2
	exit 1
fi

# One record of what the control plane asked for (DESIGN.md §7): the policy ops
# (rule.append, rule.flush, qdisc.set, tenant.set) are folded by
# recovery.Policy.Apply — journal replay, compaction and the facade's own
# record all go through it — and no other non-test switch names one, bar
# Journal.Verify's payload check.
if awk 'FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/case .*Op(RuleAppend|RuleFlush|QdiscSet|TenantSet)([^A-Za-z]|$)/ && fn !~ /^func \((j \*Journal\) Verify|p \*Policy\) Apply)\(/ { print FILENAME ": " fn; bad = 1 }
	END { exit !bad }' $(find . -name '*.go' ! -name '*_test.go'); then
	echo "a switch outside recovery.Policy.Apply folds policy journal ops (fold through Policy.Apply)" >&2
	exit 1
fi

# The journal is the control plane's one record (DESIGN.md §7): the NIC keeps
# no second, whole-config snapshot of what it was programmed with, and the
# reconciler repairs every divergence from replayed intent alone.
if grep -nwE 'ConfigSnapshot|CommitConfig|LastGoodConfig|RestoreConfig|lastGoodCfg' \
	$(find . -name '*.go' ! -name '*_test.go'); then
	echo "a second record of NIC configuration besides the journal (repair from recovery.Policy)" >&2
	exit 1
fi

# One record per policy verb (DESIGN.md §7): iptables.append and tc.set carry
# the journal's own RuleRecord and QdiscSpec, and tc.show reads the facade's
# standing record, so the per-field wire copies and the daemon's second qdisc
# description stay deleted. The read side is the same records: the reconciler
# diffs one read-back recovery.Policy, so the per-kind readers (Live.RuleCount,
# a qdisc's Name) and the facade's per-kind qdisc switch (installQdisc, now
# qos.Build beside qos.Spec) stay deleted too.
if grep -nwE 'RuleArgs|TCArgs|tcDesc|RuleCount|installQdisc' $(find . -name '*.go' ! -name '*_test.go') ||
	grep -nE 'Name\(\) string' $(find internal/qos -name '*.go' ! -name '*_test.go'); then
	echo "a second declaration of a policy payload besides the journal's records (send recovery.RuleRecord / norman.QdiscSpec; read back qos.Spec)" >&2
	exit 1
fi

# One status struct per subsystem: the overload, tenant, flow-cache, health,
# upgrade and recovery status ops serve the struct the subsystem declares (DESIGN.md §13),
# so internal/ctl/proto.go may wrap one in an Enabled flag and declare nothing
# more — a field-for-field mirror there is what dropped counters three times.
if awk '/^type (Overload|Tenant|FlowCache|Health|Upgrade|Recovery)[A-Za-z]*(Data|Row) struct/ { name = $2; fields = 0; inside = 1; next }
	inside && /^}/ { if (fields > 2) { print name ": " fields " fields"; bad = 1 }; inside = 0 }
	inside && NF && $1 !~ /^\/\// { fields++ }
	END { exit !bad }' internal/ctl/proto.go; then
	echo "internal/ctl/proto.go re-declares a subsystem's status (serve the subsystem's own struct)" >&2
	exit 1
fi

# The timer purge threshold counts the whole event set (DESIGN.md §8): timer.go
# compares the dead against Engine.Pending(), the band and the heap together,
# and never reads one tier's own count (the heap's e.n, the band's e.nb).
if grep -nE '\be\.(n|nb)\b' internal/sim/timer.go ||
	! grep -q '3\*e\.dead >= e\.Pending()' internal/sim/timer.go; then
	echo "internal/sim/timer.go's purge threshold reads one tier's count (compare 3*e.dead with e.Pending())" >&2
	exit 1
fi

# Bench-only residue (DESIGN.md §8): the barrier engine, the burst ring, the
# flyweight slab and its receive path have one caller, bench/probe.go, until
# the ROADMAP item "Unfreeze the benchmark" retires the probes that time them.
# No other non-test code may take them up again.
if grep -nwE 'NewSharded|NewBurstRing|NewConnSlab|Flyweight[A-Za-z]*' \
	$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path ./internal/sim/shard.go ! -path ./internal/mem/burst.go \
		! -path ./internal/mem/slab.go ! -path ./internal/transport/flyweight.go); then
	echo "bench-only residue used outside bench/ (the datapath is nic.NIC on one sim.Engine)" >&2
	exit 1
fi

# docs-lint: every package (internal/, cmd/, examples/, root) must carry a
# package doc comment. Asked of the toolchain itself — go/doc's extraction,
# via `go list -f {{.Doc}}` — so a comment the parser would not attach to
# the package clause (blank line in between, wrong file, //go:build footgun)
# fails here exactly as it would render empty in godoc.
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [ -n "$undocumented" ]; then
	echo "docs-lint: packages lack a doc comment:" "$undocumented" >&2
	exit 1
fi

# Every capability has a caller: each internal package is a dependency of an
# entry point — the facade, a command, an example, the benchmark or the
# experiment drivers — not only of its own tests. (The root test
# TestEveryExportHasACaller holds every exported func and type to the same.)
unreached=$(go list ./internal/... | grep -vxF "$(go list -deps . ./cmd/... ./examples/... ./bench/... ./internal/experiments)" || true)
if [ -n "$unreached" ]; then
	echo "internal packages no entry point imports:" "$unreached" >&2
	exit 1
fi

go test ./...
# Race passes. The pool defaults to GOMAXPROCS workers; NORMAN_WORKERS=8
# forces a wide pool so the detector sees real interleavings even on small
# machines, and each subsystem's determinism tests run at an explicit
# non-default fault seed: its experiment table and its slice of the chaos
# soak must be byte-identical sequentially and at any pool width. One row per
# pass: fault seed (- = default), -run pattern (- = every test), packages. An
# experiment's width check and golden is the subtest TestExperimentTables/<ID>:
# -run matches each top-level |-alternative on its own, so
# 'E9|Fault|ExperimentTables/^E9$' runs every E9 and Fault test whole plus
# that one subtest.
while read -r seed pattern pkgs; do
	case "$seed" in '' | '#'*) continue ;; esac
	[ "$seed" = - ] && seed= || seed="NORMAN_FAULT_SEED=$seed"
	[ "$pattern" = - ] && pattern= || pattern="-run $pattern"
	# shellcheck disable=SC2086 # seed, pattern and pkgs are word lists
	env NORMAN_WORKERS=8 $seed go test -race -count=1 $pattern $pkgs
done <<'PASSES'
# every test of the packages that run worlds on parallel goroutines
- - ./internal/sim/... ./internal/experiments/... ./internal/faults/...
# E9: fault injection, trap fallback, transport aborts
7 E9|Fault|Trap|Abort|ExperimentTables/^E9$ ./internal/experiments/... ./internal/faults/... ./internal/transport/... ./internal/nic/... ./internal/overlay/...
# E10: crash, journal replay, reconciliation
7 E10|Recovery|Journal|Reconcile|ExperimentTables/^E10$ ./internal/experiments/... ./internal/recovery/... ./internal/ctl/...
# E11: admission, backpressure, shedding past the DDIO cliff; the chaos soak
7 E11|Overload|Watchdog|Watermark|Chaos|ExperimentTables/^E11$ ./internal/experiments/... ./internal/overload/... ./internal/transport/... ./internal/mem/... .
# E13: weighted scheduling, DDIO partitioning, the adversarial-tenant soak
7 E13|Tenant|ExperimentTables/^E13$ ./internal/experiments/... ./internal/nic/... ./internal/cache/... ./internal/overload/... ./internal/ctl/... .
# E14: flow-cache hit rates, partition quotas, clock eviction, the ledger
7 E14|FlowCache|ExperimentTables/^E14$ ./internal/experiments/... ./internal/nic/... ./internal/ctl/... .
# E15: checksum detection, quarantine, slow-path failover, probation failback
7 E15|Health|Chaos|ExperimentTables/^E15$ ./internal/experiments/... ./internal/health/... ./internal/faults/... ./internal/nic/... .
# E16: staged A/B cutover, pause buffering, canary rollback; the journal's
# wire format, its one policy fold, and a repaired weight divergence
7 E16|Upgrade|Compact|Generation|Pause|Outage|WeightDivergence|WireCompat|JournalFold|ExperimentTables/^E16$ ./internal/experiments/... ./internal/upgrade/... ./internal/recovery/... ./internal/nic/... ./internal/ctl/... .
# E12 on the interposed datapath; the bench-only barrier engine, burst ring,
# slab and flyweight receive path bench/probe.go times (DESIGN.md §8)
- E12|Shard|Flyweight|Slab|Burst|ExperimentTables/^E12$ ./internal/experiments/... ./internal/sim/... ./internal/mem/... ./internal/transport/...
# datapath job records: every early exit returns its record, hot paths allocate
# nothing; every exit gives a world-built frame back once, after its callee;
# the engine timer's order identity and the stream that re-arms it;
# stopped timers are purged and closed connections leave nothing behind
7 Jobs|ZeroAlloc|FramesComeBack|SpansSurvive|HandlerForm|Timer|StreamAllocs|Responder|Churn|Purge|LeavesNothing ./internal/sim/... ./internal/nic/... ./internal/arch/... ./internal/transport/... ./internal/host/... .
# the supervision kernel, and the tables of its users (E11, E13, E15, E16),
# which must reproduce their goldens byte for byte
7 Supervis|Sampler|Streak|Hysteresis|ExperimentTables/^E1[1356]$ ./internal/supervise/... ./internal/overload/... ./internal/health/... ./internal/upgrade/... ./internal/experiments/... .
# the NIC's one way out: every exit balances the ledger, the fuzz corpus,
# FIFO clamps reach tenant shares, every world's drain asserts Balance()
7 Ledger|Balance|EveryExit|RxWindow ./internal/nic/... ./internal/arch/... ./internal/experiments/... .
# the software dataplanes over one soft core: the goldens of the tables that
# sweep the architectures (E1, E2, E4, E6–E10), every host
# exit balances the host law, the reconciler sees every architecture's qdisc;
# the §2 examples' output goldens (portpartition, arpdebug, blocking, qosgame),
# so each shared §2 scenario runs from both its callers, E2/E8 and its example
7 HostExits|ColdStart|ExperimentTables/^E([1246789]|10)$|OutputGolden ./internal/arch/... ./internal/experiments/... ./examples/... .
# the branch-free event heap under its near band and the LLC set record,
# fuzzed against the code they replaced (seed corpora, sets first touched late
# included); the band's tier edges and a purge over both tiers; RunUntil after
# Stop; Touch at both line sizes; a Reset cache answers as a new one
7 EngineOrder|Band|LLCEquiv|StopRunUntil|Touch|^TestReset$ ./internal/sim/... ./internal/cache/...
# the lowered overlay executor fuzzed against the interpreter it replaced (seed
# corpus), the cycle bound, flow-cache cacheability, the allocation pins; the
# typed chain compiler against the text emitter it replaced, and rule hit
# counters that survive an append on every architecture
7 OverlayLowering|CycleBound|Cacheable|RunZeroAlloc|StreamAllocs|CompileOverlayMatchesText|RuleHitsSurviveAppend ./internal/overlay/... ./internal/nic/... ./internal/transport/... ./internal/filter/... .
# the control plane says each thing once: any Enable*/TCSet order boots the
# same system, the status ops serve the subsystems' own structs, the policy
# ops carry the journal's records (old tools' bytes included), and an unknown
# hook is refused before the journal; the live policy reads back as those
# records: rules and qdisc specs round-trip, a mutated rule, a drifted qdisc
# and a journaled prio reconcile, iptables -L lists what the NIC holds
7 EnableOrder|StatusWire|WireRecord|UnknownHook|RuleRoundTrip|SpecRoundTrip|ConfiguredClasses|MutatedRule|QdiscDrift|PrioRestarts|RuleListReadsBack . ./internal/ctl/... ./internal/qos/... ./internal/recovery/...
# a stage is a server plus a discipline: FIFO is the bare server, the ring-slot
# claim stays with the discipline, a swapped qdisc's backlog is counted
7 Stage|Discipline|QdiscSwap ./internal/nic/...
# one resolution and one price list per frame: the steering table fuzzed against
# the two-probe map it replaced (seed corpus), connection churn leaves no rows,
# remembered costs equal the model's formulas, the RSS table equals Toeplitz;
# a connection costs what it owns: close against the full-scan oracle, the
# records Connect and a transfer allocate, the responder's ranges against its map
7 Steering|FrameCost|Toeplitz|ConnectCloseAllocs|CloseOwnKeys|StreamAllocsPerTransfer|ResponderNote ./internal/nic/... ./internal/timing/... ./internal/arch/... ./internal/transport/...
PASSES

# Every example runs once. System.Run panics unless the NIC's ledger and the
# host law balance after the drain, so each one is a ledger check — but only
# if something executes it; building them proves nothing.
for dir in examples/*/; do
	go run "./$dir" >/dev/null
done

# pcap round-trip smoke: boot a real daemon, capture through the control
# socket, and validate the exported file carries the classic little-endian
# pcap magic — the bytes tcpdump/Wireshark would check first.
tmp=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/normand" ./cmd/normand
go build -o "$tmp/ntcpdump" ./cmd/ntcpdump
"$tmp/normand" -socket "$tmp/ctl.sock" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/ctl.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
"$tmp/ntcpdump" -socket "$tmp/ctl.sock" -advance 10 -fetch -w "$tmp/out.pcap" udp >/dev/null
kill "$daemon_pid"
[ -s "$tmp/out.pcap" ]
head -c 4 "$tmp/out.pcap" | od -An -tx1 | tr -d ' \n' | grep -q '^d4c3b2a1$'

# Unreachable smoke: with no daemon on the socket, every tool must exit
# nonzero with the one-line diagnosis instead of a stack trace or a hang.
go build -o "$tmp/niptables" ./cmd/niptables
go build -o "$tmp/nnetstat" ./cmd/nnetstat
if "$tmp/niptables" -socket "$tmp/absent.sock" -L 2>"$tmp/unreach.err"; then
	echo "niptables against a dead socket must exit nonzero" >&2
	exit 1
fi
grep -q "normand unreachable at $tmp/absent.sock" "$tmp/unreach.err"

# Crash-recovery smoke: boot a journaled daemon, advance time, install a
# policy, SIGKILL it mid-flight, restart it on the same journal, and assert
# the reconciler replays the intent and reports a clean intended-vs-live
# diff. The clock is advanced *before* the rule lands so the journal holds
# a t>0 entry — the second kill cycle below then proves the restarted
# daemon persisted its epoch-boundary entry (without it, the third start
# would refuse the journal as time going backward).
"$tmp/normand" -socket "$tmp/rec.sock" -journal "$tmp/intent.journal" &
rec_pid=$!
i=0
while [ ! -S "$tmp/rec.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "journaled normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
"$tmp/ntcpdump" -socket "$tmp/rec.sock" -advance 5 udp >/dev/null
"$tmp/niptables" -socket "$tmp/rec.sock" -A OUTPUT -p udp -dport 9999 -j DROP
kill -9 "$rec_pid"
wait "$rec_pid" 2>/dev/null || true
rm -f "$tmp/rec.sock"
[ -s "$tmp/intent.journal" ]
"$tmp/normand" -socket "$tmp/rec.sock" -journal "$tmp/intent.journal" >"$tmp/rec.out" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/rec.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "restarted normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
grep -q "replayed" "$tmp/rec.out"
"$tmp/nnetstat" -socket "$tmp/rec.sock" -recovery | tee "$tmp/rec.status"
grep -q "diff clean" "$tmp/rec.status"
grep -q "invariants ok" "$tmp/rec.status"
"$tmp/niptables" -socket "$tmp/rec.sock" -L | grep -q 9999
# The tenant split is journaled policy: replay restores both tenants, and the
# boot's ask for the same split journals nothing, so the journal holds the
# first incarnation's tenant.set and no other.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -tenants | tee "$tmp/rec.tenants"
grep -q "tenant 1 (weight 3)" "$tmp/rec.tenants"
grep -q "tenant 2 (weight 1)" "$tmp/rec.tenants"
[ "$(grep -c '"op":"tenant.set"' "$tmp/intent.journal")" -eq 1 ]

# Second kill cycle on the same journal: mutate at t>0 again, SIGKILL, and
# restart a third incarnation. This fails unless the second incarnation
# wrote its epoch entry (and every recovery-time append) through to the
# journal file.
"$tmp/ntcpdump" -socket "$tmp/rec.sock" -advance 5 udp >/dev/null
"$tmp/niptables" -socket "$tmp/rec.sock" -A OUTPUT -p udp -dport 8888 -j DROP
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
rm -f "$tmp/rec.sock"
"$tmp/normand" -socket "$tmp/rec.sock" -journal "$tmp/intent.journal" >"$tmp/rec2.out" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/rec.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "twice-restarted normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
grep -q "replayed" "$tmp/rec2.out"
"$tmp/nnetstat" -socket "$tmp/rec.sock" -recovery | tee "$tmp/rec2.status"
grep -q "diff clean" "$tmp/rec2.status"
grep -q "invariants ok" "$tmp/rec2.status"
"$tmp/niptables" -socket "$tmp/rec.sock" -L >"$tmp/rec2.rules"
grep -q 9999 "$tmp/rec2.rules"
grep -q 8888 "$tmp/rec2.rules"

# Overload smoke: the live daemon runs the overload governor, so -pressure
# must print the watchdog health state, every typed refusal of the governor's
# own snapshot and one budget row per tenant, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -pressure | tee "$tmp/pressure.out"
grep -q "watchdog: ok" "$tmp/pressure.out"
grep -q "admission: .* / 0 throttle / 0 program" "$tmp/pressure.out"
grep -q "tenant 1 (weight 3): ok" "$tmp/pressure.out"
grep -q "tenant 2 (weight 1): ok" "$tmp/pressure.out"

# Tenant smoke: the live daemon runs weighted tenant isolation over the demo
# users, so -tenants must print one merged row per tenant and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -tenants | tee "$tmp/tenants.out"
grep -q "tenants: 2 under weighted isolation" "$tmp/tenants.out"
grep -q "tenant 1 (weight 3)" "$tmp/tenants.out"
grep -q "tenant 2 (weight 1)" "$tmp/tenants.out"

# Flow-cache smoke: the live daemon enables the NIC flow cache at boot, so
# -flows must print the cache header, the hit-rate line and one partition
# row per tenant, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -flows | tee "$tmp/flows.out"
grep -q "flowcache: " "$tmp/flows.out"
grep -q "lookups: " "$tmp/flows.out"
grep -q "tenant 1: " "$tmp/flows.out"
grep -q "tenant 2: " "$tmp/flows.out"

# Health smoke: the live daemon starts the hardware health monitor at
# boot, so -health must print the sampler state, the aggregate event
# line and one row per hardware component, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -health | tee "$tmp/health.out"
grep -q "health: sampling" "$tmp/health.out"
grep -q "events: " "$tmp/health.out"
grep -q "dma" "$tmp/health.out"
grep -q "flowcache" "$tmp/health.out"
grep -q "link" "$tmp/health.out"
grep -q "pipeline" "$tmp/health.out"

# Upgrade smoke: the live daemon boots with the live-upgrade manager
# enabled, so -upgrade must print the generation/phase header, the event
# and canary lines and the handover accounting, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -upgrade | tee "$tmp/upgrade.out"
grep -q "upgrade: generation" "$tmp/upgrade.out"
grep -q "events: " "$tmp/upgrade.out"
grep -q "canary: " "$tmp/upgrade.out"
grep -q "handover: " "$tmp/upgrade.out"

# Ledger smoke: -ledger filters the telemetry dump down to the conservation
# law's terms; on a healthy daemon every reason row is there and the residual
# reads 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -ledger | tee "$tmp/ledger.out"
grep -q '^ledger_residual{[^}]*} 0$' "$tmp/ledger.out"
grep -q '^rx_fifo_drop' "$tmp/ledger.out"
grep -q '^tx_outage_drop' "$tmp/ledger.out"
grep -q '^host_drops{[^}]*reason="rx_nosocket"' "$tmp/ledger.out"
grep -q '^host_ledger_sent' "$tmp/ledger.out"
kill "$daemon_pid"

# The same cold start on the sidecar, whose qdisc lives in host software: the
# reconciler must see it (soft.Qdisc) to reinstall it and report a clean diff,
# and tc.show must print the reinstalled spec, kind and weights — the restarted
# daemon never ran tc.set, so only the journal can have supplied them.
go build -o "$tmp/ntc" ./cmd/ntc
"$tmp/normand" -arch sidecar -socket "$tmp/sc.sock" -journal "$tmp/sc.journal" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/sc.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "journaled sidecar normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
"$tmp/ntc" -socket "$tmp/sc.sock" -qdisc wfq -class 1000=3
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
rm -f "$tmp/sc.sock"
"$tmp/normand" -arch sidecar -socket "$tmp/sc.sock" -journal "$tmp/sc.journal" >/dev/null &
daemon_pid=$!
i=0
while [ ! -S "$tmp/sc.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "restarted sidecar normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
"$tmp/nnetstat" -socket "$tmp/sc.sock" -recovery | tee "$tmp/sc.status"
grep -q "diff clean" "$tmp/sc.status"
grep -q "invariants ok" "$tmp/sc.status"
"$tmp/ntc" -socket "$tmp/sc.sock" -show | grep -qF "qdisc wfq weights=map[1:3]"
kill "$daemon_pid"

# Modeled-output gate: a short normbench run must reproduce the committed
# baseline's model fingerprint on all four workloads. Modeled outputs are
# machine-independent, so any difference is a behaviour change; host metrics
# carry this machine's noise and are not gated here (compare's own exit
# status is about them, hence the || true).
go build -o "$tmp/normbench" ./bench/cmd/normbench
"$tmp/normbench" -seed 1 -seconds 5 -out "$tmp/nb.json" -trace-out "$tmp/nb-trace" >/dev/null
"$tmp/normbench" -compare bench/baseline/seed1.json "$tmp/nb.json" >"$tmp/nb.cmp" || true
grep model_fingerprint "$tmp/nb.cmp"
[ "$(grep model_fingerprint "$tmp/nb.cmp" | grep -c ' same$')" -eq 4 ]
echo "check.sh: all gates passed"
