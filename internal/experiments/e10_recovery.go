package experiments

import (
	"fmt"

	"norman"
	"norman/internal/faults"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/recovery"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E10 fixed timeline (virtual time). The crash lands mid-traffic, the
// restart sweeps across outage widths, and a post-restart probe per
// connection proves the conns still deliver.
const (
	e10Horizon = 4 * sim.Millisecond
	e10CrashAt = 1200 * sim.Microsecond
	// Traffic occupies a fixed window regardless of scale, so the crash
	// always lands mid-stream; scaling changes density, not coverage.
	e10TrafficStart = 100 * sim.Microsecond
	e10TrafficSpan  = 3 * sim.Millisecond
	e10Conns        = 3
	// Probes carry a payload size no background packet uses, so a probe
	// delivery is counted as such even while the traffic window is still
	// draining around it.
	e10TrafficPayload = 256
	e10ProbePayload   = 64
)

// E10Row is one (architecture, outage width) cell of the crash-recovery
// table.
type E10Row struct {
	Arch     string
	OutageUs float64

	Sent      int // inbound packets offered (traffic + probes)
	Delivered int // packets the applications consumed
	// Lost is the loss *attributable to the control-plane restart*: the
	// delivery count of an identical world that never crashes, minus this
	// world's. Zero on the ring architectures is the paper's survival
	// claim; on the kernel stack it is the outage window in packets.
	Lost int
	// Broken counts connections that stopped delivering after the restart
	// (probe packet never arrived).
	Broken int

	Rejected int // mutations refused with ErrControlPlaneDown mid-outage
	Entries  int // journal entries replayed at restart
	Repairs  int // reconciliation actions applied
	Stale    int

	InvariantsOK bool
	Clean        bool
	RecoveryUs   float64 // deterministic reconciliation virtual time
}

// e10Result is what one world run reports.
type e10Result struct {
	sent      int
	delivered int
	broken    int
	report    *recovery.Report
}

// RunE10 measures control-plane crash recovery: the same inbound workload
// on kernelstack, bypass and kopi, with the control plane killed at
// e10CrashAt and restarted after each swept outage width. Policies are
// journaled write-ahead; on kopi an additional NIC-state loss (the ingress
// chain unloaded mid-outage) forces the reconciler to actually repair
// divergence, not just replay. Loss is attributed by differencing against
// a crash-free twin world, so the table isolates exactly what the restart
// cost — the architectural claim is that on KOPI that number is zero: the
// NIC keeps forwarding the last-installed policies while the control plane
// is gone.
func RunE10(scale Scale) ([]E10Row, *stats.Table) {
	archs := []string{"kernelstack", "bypass", "kopi"}
	outages := []sim.Duration{50 * sim.Microsecond, 200 * sim.Microsecond, 1000 * sim.Microsecond}
	pkts := scale.n(500, 60) // inbound packets per connection
	seed := FaultSeed()

	// Two worlds per sweep point: the measured (crashing) one and its
	// crash-free baseline for loss attribution.
	type cell struct{ crash, base e10Result }
	cells := make([]cell, len(archs)*len(outages))
	r := NewRunner()
	for ai, name := range archs {
		for oi, outage := range outages {
			c := &cells[ai*len(outages)+oi]
			name, outage := name, outage
			r.Go(func() { c.crash = e10Point(name, outage, pkts, seed, true) })
			r.Go(func() { c.base = e10Point(name, outage, pkts, seed, false) })
		}
	}
	r.Wait()

	rows := make([]E10Row, len(cells))
	for i := range cells {
		ai, oi := i/len(outages), i%len(outages)
		crash, base := cells[i].crash, cells[i].base
		row := &rows[i]
		row.Arch = archs[ai]
		row.OutageUs = outages[oi].Microseconds()
		row.Sent = crash.sent
		row.Delivered = crash.delivered
		row.Lost = base.delivered - crash.delivered
		row.Broken = crash.broken
		if rep := crash.report; rep != nil {
			row.Rejected = rep.Rejected
			row.Entries = rep.Entries
			row.Repairs = len(rep.Actions)
			row.Stale = rep.Stale
			row.InvariantsOK = rep.InvariantsOK
			row.Clean = rep.Clean
			row.RecoveryUs = rep.RecoveryTime.Microseconds()
		}
	}

	t := stats.NewTable("E10: control-plane crash recovery (3 conns, inbound traffic, crash at 1.2ms)",
		"arch", "outage(µs)", "sent", "delivered", "lost", "broken", "rejected",
		"entries", "repairs", "stale", "invariants", "clean", "recovery(µs)")
	for _, row := range rows {
		inv, clean := "ok", "yes"
		if !row.InvariantsOK {
			inv = "FAIL"
		}
		if !row.Clean {
			clean = "NO"
		}
		t.AddRow(row.Arch, fmt.Sprintf("%g", row.OutageUs), row.Sent, row.Delivered,
			row.Lost, row.Broken, row.Rejected, row.Entries, row.Repairs, row.Stale,
			inv, clean, fmt.Sprintf("%.1f", row.RecoveryUs))
	}
	return rows, t
}

// e10Point runs one world. With crash=false the identical timeline runs
// minus the crash/restart (the loss-attribution baseline); probes fire at
// the same instants either way so both worlds offer the same packet count.
func e10Point(name string, outage sim.Duration, pkts int, seed int64, crash bool) e10Result {
	sys := norman.New(norman.Architecture(name))
	sys.EnableRecovery()
	sys.UseSinkPeer()
	u := sys.AddUser(1000, "alice")
	app := sys.Spawn(u, "svc")

	conns := make([]*norman.Conn, e10Conns)
	delivered := 0
	probeGot := make([]int, e10Conns)
	for i := range conns {
		c, err := sys.Dial(app, uint16(41000+i), uint16(9000+i))
		if err != nil {
			panic("e10: dial: " + err.Error())
		}
		i := i
		c.OnReceive(func(d norman.Delivery) {
			delivered++
			if d.Payload == e10ProbePayload {
				probeGot[i]++
			}
		})
		conns[i] = c
	}

	// Journaled policies installed pre-crash; bypass rejects the rules
	// (no interposition point — the journal records the aborts) but takes
	// the NIC qdisc.
	_ = sys.IPTablesAppend(norman.Output, norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"})
	_ = sys.IPTablesAppend(norman.Input, norman.Rule{Proto: "udp", Action: "count"})
	_ = sys.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 4, 2: 1}, ClassOfUID: map[uint32]uint32{1000: 1}})

	// Inbound traffic: pkts per connection, evenly spread over the window.
	interval := e10TrafficSpan / sim.Duration(pkts)
	for i, c := range conns {
		c := c
		for k := 0; k < pkts; k++ {
			at := e10TrafficStart + sim.Duration(k)*interval + sim.Duration(i)*sim.Microsecond
			sys.At(at, func() { sys.InjectInbound(c, e10TrafficPayload) })
		}
	}
	sent := e10Conns * pkts

	restartAt := e10CrashAt + outage
	var report *recovery.Report
	if crash {
		sys.At(e10CrashAt, func() {
			if err := sys.CrashControlPlane(); err != nil {
				panic("e10: crash: " + err.Error())
			}
		})
		// Mutation attempts mid-outage: all must be refused, none lost
		// silently — the restart report counts them.
		for j := 1; j <= 5; j++ {
			sys.At(e10CrashAt+sim.Duration(j)*outage/6, func() {
				_ = sys.IPTablesAppend(norman.Input, norman.Rule{Proto: "udp", DstPort: 7777, Action: "drop"})
			})
		}
		// On kopi, also lose NIC-resident state mid-outage (the ingress
		// chain vanishes, as after a partial reset): the dataplane fails
		// open — no packet loss — but live state now diverges from the
		// journal and the reconciler must repair it, not just notice.
		if name == "kopi" {
			w := sys.World()
			inj := faults.New(w.Eng, w.NIC, w.LLC, faults.Config{
				Seed: seed, Label: fmt.Sprintf("e10.%s.%g", name, outage.Microseconds()),
			})
			inj.ScheduleNICStateLoss(nic.Ingress, packet.FlowKey{}, sim.Time(e10CrashAt+outage/2))
		}
		sys.At(sim.Duration(restartAt), func() {
			rep, err := sys.RestartControlPlane()
			if err != nil {
				panic("e10: restart: " + err.Error())
			}
			report = rep
		})
	}

	// Post-restart probes (fired in the baseline too, so Sent matches): one
	// distinctly-sized packet per connection; a connection whose probe never
	// arrives is broken. The distinct payload keeps background-stream
	// deliveries after the probe from masking a lost probe.
	probeAt := sim.Duration(restartAt) + 300*sim.Microsecond
	for _, c := range conns {
		c := c
		sys.At(probeAt, func() { sys.InjectInbound(c, e10ProbePayload) })
	}
	sent += e10Conns

	sys.RunFor(sim.Duration(e10Horizon))
	balanced(sys.World().NIC.Balance())

	res := e10Result{sent: sent, delivered: delivered, report: report}
	for i := range conns {
		if probeGot[i] == 0 {
			res.broken++
		}
	}
	return res
}
