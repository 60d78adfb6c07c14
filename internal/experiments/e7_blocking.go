package experiments

import (
	"errors"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E7Row is one (architecture, mode, rate) CPU-efficiency measurement.
type E7Row struct {
	Arch    string
	Mode    string // poll / block / unsupported
	RatePPS int

	CoresBurned float64      // CPU-seconds consumed per second of run
	P50Latency  sim.Duration // wire arrival -> application delivery
	Delivered   uint64
}

// RunE7 reproduces the §2 process-scheduling scenario: without kernel
// visibility into arrivals, applications must poll and burn a core no matter
// how idle the network is; KOPI's notification queues (§4.3) restore
// blocking I/O at a small latency cost. Expected shape: poll-mode cores ≈ 1
// regardless of rate; block-mode CPU scales with rate; bypass has no block
// mode at all; the sidecar blocks its apps but still burns its dataplane
// core.
func RunE7(scale Scale) ([]E7Row, *stats.Table) {
	rates := []int{10_000, 100_000, 1_000_000}
	names := arch.Names()
	modes := []arch.RxMode{arch.RxPoll, arch.RxBlock}
	// One isolated world per (arch, mode, rate) cell: fan them all out.
	rows := make([]E7Row, len(names)*len(modes)*len(rates)+len(rates))
	pool := NewRunner()
	slot := 0
	for _, name := range names {
		for _, mode := range modes {
			for _, rate := range rates {
				i, name, mode, rate := slot, name, mode, rate
				slot++
				pool.Go(func() { rows[i] = e7Run(name, mode, rate, 0, scale) })
			}
		}
	}
	// KOPI's §4.3 interrupt-moderation knob: blocking with a coalescing
	// window, trading a bounded latency increase for far fewer interrupts.
	for _, rate := range rates {
		i, rate := slot, rate
		slot++
		pool.Go(func() { rows[i] = e7Run("kopi", arch.RxBlock, rate, 50*sim.Microsecond, scale) })
	}
	pool.Wait()
	t := stats.NewTable("E7: CPU cost of receive readiness (256B inbound, Poisson)",
		"arch", "mode", "rate (pps)", "cores burned", "p50 latency", "delivered")
	for _, r := range rows {
		t.AddRow(r.Arch, r.Mode, r.RatePPS, r.CoresBurned, r.P50Latency.String(), r.Delivered)
	}
	return rows, t
}

func e7Run(name string, mode arch.RxMode, rate int, coalesce sim.Duration, scale Scale) E7Row {
	row := E7Row{Arch: name, Mode: mode.String(), RatePPS: rate}
	if coalesce > 0 {
		row.Mode = "block+coalesce"
	}

	a := arch.New(name, arch.WorldConfig{})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	bob := w.Kern.AddUser(1001, "bob")
	proc := w.Kern.Spawn(bob.UID, "worker")
	flow := w.Flow(7000, 7)
	c, err := a.Connect(proc, flow)
	if err != nil {
		row.Mode = "error"
		return row
	}
	if err := a.SetRxMode(c, mode); err != nil {
		if errors.Is(err, arch.ErrUnsupported) {
			row.Mode = "unsupported"
			return row
		}
		row.Mode = "error"
		return row
	}
	if coalesce > 0 {
		kopi, ok := a.(*arch.KOPI)
		if !ok {
			row.Mode = "unsupported"
			return row
		}
		kopi.SetRxCoalesce(c, coalesce)
	}

	var lat stats.Histogram
	a.SetDeliver(func(_ *arch.Conn, p *packet.Packet, at sim.Time) {
		row.Delivered++
		lat.Observe(at.Sub(p.Meta.Enqueued))
	})

	// Enough packets for stable statistics, bounded for high rates.
	dur := scale.d(sim.Duration(int64(200) * int64(sim.Second) / int64(rate)))
	if min := scale.d(2 * sim.Millisecond); dur < min {
		dur = min
	}
	if max := scale.d(50 * sim.Millisecond); dur > max {
		dur = max
	}

	rng := sim.NewRNG(42, name+mode.String())
	interval := sim.Duration(float64(sim.Second) / float64(rate))
	var tick func()
	tick = func() {
		now := w.Eng.Now()
		if now >= sim.Time(dur) {
			return
		}
		p := w.UDPFrom(flow, 256)
		p.Meta.Enqueued = now
		a.DeliverWire(p)
		w.Eng.After(rng.Exp(interval), tick)
	}
	w.Eng.At(0, tick)
	balanced(w.Drain())
	end := w.Now()
	if end < sim.Time(dur) {
		end = sim.Time(dur)
	}

	row.CoresBurned = w.CPUBusy(end).Seconds() / sim.Duration(end).Seconds()
	row.P50Latency = lat.P50()
	return row
}
