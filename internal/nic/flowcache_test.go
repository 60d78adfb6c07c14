package nic

import (
	"errors"
	"testing"

	"norman/internal/overlay"
	"norman/internal/packet"
)

func fcKey(sport uint16) packet.FlowKey {
	return packet.FlowKey{
		Src: packet.MakeIP(10, 0, 0, 2), Dst: packet.MakeIP(10, 0, 0, 1),
		SrcPort: sport, DstPort: 443, Proto: packet.ProtoUDP,
	}
}

// TestFlowCacheConservation pins the ledger the whole subsystem is audited
// by: Installs − Evictions − Invalidations == live entries, at every point
// in an install/evict/invalidate/flush history. A violated ledger means an
// entry was silently lost or double-freed.
func TestFlowCacheConservation(t *testing.T) {
	f := newFlowCache(16)
	check := func(when string) {
		t.Helper()
		if got := f.Installs - f.Evictions - f.Invalidations; got != uint64(f.Len()) {
			t.Fatalf("%s: ledger broken: installs %d − evictions %d − invalidations %d = %d, Len %d",
				when, f.Installs, f.Evictions, f.Invalidations, got, f.Len())
		}
	}
	// Overfill: 3× capacity forces evictions.
	for i := 0; i < 3*f.Capacity(); i++ {
		f.Install(fcKey(uint16(i)), uint64(i), 0, overlay.VerdictPass, 0, 0)
		check("install")
	}
	if f.Evictions == 0 {
		t.Fatal("overfilling must evict")
	}
	// Targeted invalidations, some of keys that are no longer resident.
	for i := 0; i < 3*f.Capacity(); i += 2 {
		f.InvalidateKey(fcKey(uint16(i)))
		check("invalidate key")
	}
	f.InvalidateConn(7)
	check("invalidate conn")
	if n := f.Flush(); n != f.Len() && f.Len() != 0 {
		t.Fatalf("flush dropped %d but %d remain", n, f.Len())
	}
	check("flush")
	if f.Len() != 0 {
		t.Fatalf("flush left %d entries", f.Len())
	}
	// Reinstall over an existing key must not inflate the ledger.
	f.Install(fcKey(1), 1, 0, overlay.VerdictPass, 0, 0)
	f.Install(fcKey(1), 1, 0, overlay.VerdictDrop, 5, 6)
	check("reinstall")
	if f.Len() != 1 {
		t.Fatalf("reinstall duplicated the entry: Len %d", f.Len())
	}
	if e, ok := f.Lookup(fcKey(1)); !ok || e.verdict != overlay.VerdictDrop || e.mark != 5 {
		t.Fatal("reinstall must refresh the decision in place")
	}
}

// TestFlowCacheTenantPartitionNeverSteals is the isolation property: once
// the cache is partitioned, one tenant's installs never evict another
// tenant's entries — the install is denied (and counted) instead.
func TestFlowCacheTenantPartitionNeverSteals(t *testing.T) {
	f := newFlowCache(8) // 2 buckets × 4 ways
	if err := f.SetQuotas(map[uint32]int{1: 1, 2: 1}); err != nil {
		t.Fatal(err)
	}
	if q := f.Quotas(); q[1] != 4 || q[2] != 4 {
		t.Fatalf("equal weights must split capacity evenly: %v", q)
	}

	// Find five keys that land in bucket 0 so tenant 1 can fill it.
	b0 := make([]packet.FlowKey, 0, 5)
	for sport := uint16(1); len(b0) < 5; sport++ {
		if k := fcKey(sport); flowHash(k)&f.mask == 0 {
			b0 = append(b0, k)
		}
	}
	for i, k := range b0[:4] {
		if !f.Install(k, uint64(i), 1, overlay.VerdictPass, 0, 0) {
			t.Fatalf("tenant 1 install %d refused under its own quota", i)
		}
	}

	// Tenant 2 is under quota but bucket 0 holds only tenant 1's entries:
	// the install must be denied, not satisfied at tenant 1's expense.
	if f.Install(b0[4], 99, 2, overlay.VerdictPass, 0, 0) {
		t.Fatal("tenant 2 install evicted across the partition")
	}
	st := f.TenantStats()
	if st[0].Tenant != 1 || st[0].Used != 4 || st[0].Evicts != 0 {
		t.Fatalf("tenant 1 partition disturbed: %+v", st[0])
	}
	if st[1].Tenant != 2 || st[1].Denied != 1 {
		t.Fatalf("denial not accounted to tenant 2: %+v", st[1])
	}
	if f.Denied != 1 {
		t.Fatalf("global Denied = %d", f.Denied)
	}

	// Over quota, a tenant recycles its own entries — neighbors still
	// untouched.
	extra := fcKey(60000)
	for sport := uint16(60000); flowHash(extra)&f.mask != 0; sport++ {
		extra = fcKey(sport)
	}
	if !f.Install(extra, 100, 1, overlay.VerdictPass, 0, 0) {
		t.Fatal("tenant 1 over quota must recycle its own entries")
	}
	st = f.TenantStats()
	if st[0].Used != 4 || st[0].Evicts != 1 {
		t.Fatalf("over-quota install must evict exactly one own entry: %+v", st[0])
	}

	// A tenant outside the partition map owns no slice at all.
	if f.Install(fcKey(40000), 101, 3, overlay.VerdictPass, 0, 0) {
		t.Fatal("unpartitioned tenant must be denied outright")
	}
	if got := f.Installs - f.Evictions - f.Invalidations; got != uint64(f.Len()) {
		t.Fatalf("ledger broken after partition churn: %d vs %d", got, f.Len())
	}
}

// TestFlowCacheLookupZeroAllocs pins the hot-path claim E14 depends on: a
// probe — hit or miss — allocates nothing.
func TestFlowCacheLookupZeroAllocs(t *testing.T) {
	f := newFlowCache(64)
	hit := fcKey(1)
	miss := fcKey(2)
	f.Install(hit, 1, 0, overlay.VerdictPass, 0, 0)
	if n := testing.AllocsPerRun(200, func() { f.Lookup(hit) }); n != 0 {
		t.Fatalf("hit path allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Lookup(miss) }); n != 0 {
		t.Fatalf("miss path allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		f.Install(hit, 1, 0, overlay.VerdictPass, 0, 0)
	}); n != 0 {
		t.Fatalf("steady-state reinstall allocates %.1f/op", n)
	}
}

// TestProgramCacheable asks the question where the datapath does: what the
// NIC decided about the chain it was handed.
func TestProgramCacheable(t *testing.T) {
	n, _ := newNIC(1 << 20)
	cacheable := func(src string) bool {
		t.Helper()
		p, err := overlay.Assemble("t", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.LoadProgram(Ingress, p); err != nil {
			t.Fatal(err)
		}
		return n.IngressCacheable()
	}
	if !cacheable("ldf r0, dst_port\njne r0, 80, ok\ndrop\nok:\npass\n") {
		t.Fatal("pure match/action program must be cacheable")
	}
	if !cacheable(".counter c\ncount c\npass\n") {
		t.Fatal("count-only program is cacheable (counters freeze, documented)")
	}
	if cacheable(".meter m 125000000 1500\nldf r1, conn\nmeter r0, m, r1\npass\n") {
		t.Fatal("metered program is rate-dependent, never cacheable")
	}
	if cacheable("notify\npass\n") {
		t.Fatal("notify has per-packet side effects, never cacheable")
	}
	// Fields that differ between two packets of one 5-tuple.
	for _, f := range []string{"len", "tcp_flags", "tos", "time_ns"} {
		if cacheable("ldf r0, " + f + "\njgt r0, 500, big\npass\nbig:\ndrop\n") {
			t.Fatalf("a chain that reads %s decides per packet, never cacheable", f)
		}
	}
	n.UnloadProgram(Ingress)
	if n.IngressCacheable() {
		t.Fatal("no program must not be cacheable")
	}
}

// TestFlowCacheRefusesPerPacketFields sends two frames of one flow through a
// length filter with the cache enabled: the first (small) passes, and its
// verdict must not be served to the second (large) one.
func TestFlowCacheRefusesPerPacketFields(t *testing.T) {
	n, eng := newNIC(1 << 20)
	if _, err := n.OpenConn(1, packet.Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	n.SetDefaultConn(1)
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	prog, err := overlay.Assemble("small-only", "ldf r0, len\njgt r0, 500, big\npass\nbig:\ndrop\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(Ingress, prog); err != nil {
		t.Fatal(err)
	}
	frame := func(payload int) *packet.Packet {
		return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 2),
			packet.MakeIP(10, 0, 0, 1), 99, 81, payload)
	}
	n.DeliverFromWire(frame(100 - 42))
	n.DeliverFromWire(frame(1000 - 42))
	eng.Run()
	c, _ := n.Conn(1)
	if c.RxDelivered != 1 || n.RxDropVerdict != 1 {
		t.Fatalf("delivered %d, verdict drops %d: the 1000 B frame rode the 100 B frame's verdict",
			c.RxDelivered, n.RxDropVerdict)
	}
	if f := n.FlowCache(); f.Hits != 0 || f.Installs != 0 {
		t.Fatalf("per-packet chain touched the cache: hits=%d installs=%d", f.Hits, f.Installs)
	}
}

// TestFlowCacheHitSkipsInterpretation is the end-to-end fast path: the first
// packet of a flow runs the overlay chain and installs; the second hits the
// cache, burns zero interpreter cycles, and still applies the memoized
// verdict.
func TestFlowCacheHitSkipsInterpretation(t *testing.T) {
	n, eng := newNIC(1 << 20)
	if _, err := n.OpenConn(1, packet.Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	n.SetDefaultConn(1)
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	prog, err := overlay.Assemble("drop80", "ldf r0, dst_port\njne r0, 80, ok\ndrop\nok:\npass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(Ingress, prog); err != nil {
		t.Fatal(err)
	}

	n.DeliverFromWire(udpTo(81))
	eng.Run()
	f := n.FlowCache()
	if f.Misses != 1 || f.Installs != 1 || f.Hits != 0 {
		t.Fatalf("first packet: misses=%d installs=%d hits=%d", f.Misses, f.Installs, f.Hits)
	}
	cyclesAfterMiss := n.IngressProgCycles
	if cyclesAfterMiss == 0 {
		t.Fatal("slow path must burn interpreter cycles")
	}

	n.DeliverFromWire(udpTo(81))
	eng.Run()
	if f.Hits != 1 {
		t.Fatalf("second packet must hit: hits=%d misses=%d", f.Hits, f.Misses)
	}
	if n.IngressProgCycles != cyclesAfterMiss {
		t.Fatalf("hit burned interpreter cycles: %d → %d", cyclesAfterMiss, n.IngressProgCycles)
	}
	c, _ := n.Conn(1)
	if c.RxDelivered != 2 {
		t.Fatalf("delivered = %d", c.RxDelivered)
	}

	// Drop verdicts are memoized too: both the slow-path and cached packet
	// land in RxDropVerdict.
	n.DeliverFromWire(udpTo(80))
	n.DeliverFromWire(udpTo(80))
	eng.Run()
	if n.RxDropVerdict != 2 {
		t.Fatalf("cached drop verdict not applied: drops = %d", n.RxDropVerdict)
	}
	if f.Hits != 2 {
		t.Fatalf("drop flow's second packet must still hit: %d", f.Hits)
	}
}

// TestFlowCacheReloadInvalidates wires the cache into the E4 hot-reload
// contract: a program swap may decide any flow differently, so nothing
// memoized under the old chain survives it.
func TestFlowCacheReloadInvalidates(t *testing.T) {
	n, eng := newNIC(1 << 20)
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	n.SetDefaultConn(1)
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	passAll, _ := overlay.Assemble("pass-all", "pass\n")
	drop81, _ := overlay.Assemble("drop81", "ldf r0, dst_port\njne r0, 81, ok\ndrop\nok:\npass\n")
	if _, _, err := n.LoadProgram(Ingress, passAll); err != nil {
		t.Fatal(err)
	}
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	f := n.FlowCache()
	if f.Len() != 1 {
		t.Fatalf("entries after first packet = %d", f.Len())
	}

	// Hot reload: the cached pass verdict for :81 must not leak past the
	// swap — the new chain drops that flow.
	if _, _, err := n.LoadProgram(Ingress, drop81); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatalf("reload left %d cached entries", f.Len())
	}
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	if n.RxDropVerdict != 1 {
		t.Fatal("stale cached verdict survived a program reload")
	}

	// Unload flushes too, and with no program there is nothing to memoize.
	n.UnloadProgram(Ingress)
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	if f.Len() != 0 || f.Installs != 2 {
		t.Fatalf("unloaded pipeline must not install: len=%d installs=%d", f.Len(), f.Installs)
	}

	// A non-cacheable program disables memoization entirely.
	metered, err := overlay.Assemble("metered", ".meter m 125000000 1500\nldf r1, len\nmeter r0, m, r1\npass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(Ingress, metered); err != nil {
		t.Fatal(err)
	}
	n.DeliverFromWire(udpTo(81))
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	if f.Hits+f.Installs != 2 || f.Len() != 0 {
		t.Fatalf("metered program must stay on the slow path: hits=%d installs=%d len=%d",
			f.Hits, f.Installs, f.Len())
	}
}

// TestFlowCacheSteeringAndCloseInvalidate covers the targeted invalidation
// paths: steering changes drop both directions of the key, and closing a
// connection drops every entry pointing at it.
func TestFlowCacheSteeringAndCloseInvalidate(t *testing.T) {
	n, eng := newNIC(1 << 20)
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	_, _ = n.OpenConn(2, packet.Meta{}, nil)
	n.SetDefaultConn(1)
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	passAll, _ := overlay.Assemble("pass-all", "pass\n")
	if _, _, err := n.LoadProgram(Ingress, passAll); err != nil {
		t.Fatal(err)
	}
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	f := n.FlowCache()
	if f.Len() != 1 {
		t.Fatalf("entries = %d", f.Len())
	}

	// Re-steering the flow to conn 2 invalidates the cached entry that
	// points at conn 1's ring.
	k, _ := udpTo(81).Flow()
	if err := n.SteerFlow(k, 2); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatal("steering change left a stale entry")
	}
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	if f.Len() != 1 {
		t.Fatalf("entries after re-steer = %d", f.Len())
	}

	// Closing the steered connection drops its entries (and the steering
	// rule with it).
	if err := n.CloseConn(2); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatal("conn close left a stale entry")
	}
	if got := f.Installs - f.Evictions - f.Invalidations; got != uint64(f.Len()) {
		t.Fatalf("ledger broken: %d vs %d", got, f.Len())
	}
}

// TestFlowCacheSRAMAccounting: the cache is charged against the same on-NIC
// budget as connections and steering entries, and refuses to overdraw it.
func TestFlowCacheSRAMAccounting(t *testing.T) {
	n, _ := newNIC(4096)
	used0, _ := n.SRAM()
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	used1, _ := n.SRAM()
	if used1-used0 != 64*flowEntrySRAM {
		t.Fatalf("cache charge = %d, want %d", used1-used0, 64*flowEntrySRAM)
	}
	// Re-enabling replaces the charge, not stacks it.
	if err := n.EnableFlowCache(32); err != nil {
		t.Fatal(err)
	}
	used2, _ := n.SRAM()
	if used2-used0 != 32*flowEntrySRAM {
		t.Fatalf("replacement charge = %d, want %d", used2-used0, 32*flowEntrySRAM)
	}
	if err := n.EnableFlowCache(1 << 20); !errors.Is(err, ErrSRAMExhausted) {
		t.Fatalf("oversized cache must exhaust SRAM: %v", err)
	}
	// A failed enable keeps the old cache and its charge.
	if n.FlowCache() == nil || n.FlowCache().Capacity() != 32 {
		t.Fatal("failed enable must keep the previous cache")
	}
	n.DisableFlowCache()
	used3, _ := n.SRAM()
	if used3 != used0 {
		t.Fatalf("disable must release the charge: %d vs %d", used3, used0)
	}
}
