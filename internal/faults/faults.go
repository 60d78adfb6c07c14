// Package faults is Norman's deterministic fault-injection layer: the
// off-happy-path half of the interposition argument. The paper (§5) leaves
// failure handling open; OSMOSIS and CoRD both observe that kernel-bypass
// dataplanes lose the kernel's failure-containment role. This package makes
// faults first-class, seedable simulation inputs so the E9 experiment can
// measure how each architecture degrades instead of guessing:
//
//   - wire faults: frame loss, corruption (FCS drop at the receiver),
//     reordering (extra in-flight delay) and duplication, applied where the
//     NIC hands frames to the wire (nic.NIC.OnTransmit) and, symmetrically,
//     where peer traffic re-enters the host;
//   - NIC pressure bursts: transient RX-FIFO squeezes (ring overflow) and
//     DDIO-way thrashing by an antagonist DMA device;
//   - overlay runtime traps, armed one-shot into a loaded overlay machine
//     (the NIC absorbs them by falling back to its last-good chain);
//   - control-plane outages, exercised in wall-clock land through the
//     Backoff schedule ctl.Client uses for its dial/request retries;
//   - NIC hardware faults (PR 9): flow-cache SRAM bit flips that corrupt
//     memoized verdicts, DMA-engine stalls, physical link flaps and overlay
//     trap storms — the component-level failure modes the internal/health
//     monitor detects and quarantines, failing traffic over to the kernel
//     interposition slow path.
//
// Every decision comes from sim.RNG streams derived from Config.Seed plus a
// per-direction label, so the same seed replays the same fault pattern
// byte-for-byte at any experiment worker width.
package faults

import (
	"time"

	"norman/internal/cache"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/telemetry"
)

// WireConfig describes the fault model of one direction of the wire. All
// probabilities are per frame in [0,1].
type WireConfig struct {
	Loss      float64 // frame silently lost in flight
	Corrupt   float64 // frame corrupted; the receiving MAC drops it on FCS
	Reorder   float64 // frame delayed past its successors
	Duplicate float64 // frame delivered twice (the copy slightly later)
}

// reorderDelay is the least extra latency a reordered frame picks up: several
// wire RTTs, enough to trigger dupacks. duplicateDelay separates a duplicate
// from its original.
const (
	reorderDelay   = 25 * sim.Microsecond
	duplicateDelay = 5 * sim.Microsecond
)

// enabled reports whether any fault is configured.
func (c WireConfig) enabled() bool {
	return c.Loss > 0 || c.Corrupt > 0 || c.Reorder > 0 || c.Duplicate > 0
}

// WireStats counts one direction's injected wire faults.
type WireStats struct {
	Frames     uint64 // frames offered to the faulty link
	Lost       uint64
	Corrupted  uint64
	Reordered  uint64
	Duplicated uint64
}

// Dropped is the total frames that never reached the far side.
func (s WireStats) Dropped() uint64 { return s.Lost + s.Corrupted }

// RingConfig describes periodic NIC-pressure bursts: for Burst out of every
// Period, the ingress FIFO is squeezed to Window frames and DDIOLines
// antagonist DMA lines are slammed through the LLC's DDIO ways — the
// ring-overflow and cache-pressure failure modes of a shared SmartNIC.
type RingConfig struct {
	Period    sim.Duration // burst cadence; 0 disables pressure bursts
	Burst     sim.Duration // burst length (default Period/10, capped at Period/2)
	Window    int          // squeezed RX FIFO depth during a burst (default 1)
	DDIOLines int          // antagonist DMA cache lines touched per burst
}

// Config is the full fault profile for one world.
type Config struct {
	// Seed drives every random decision; identical seeds replay identical
	// fault patterns. Experiments resolve it from NORMAN_FAULT_SEED.
	Seed int64
	// Label namespaces the RNG streams so independent worlds sharing a seed
	// (e.g. different sweep points) still draw independent patterns.
	Label string

	Tx   WireConfig // host -> wire direction (the NIC's transmit hand-off)
	Rx   WireConfig // wire -> host direction (peer traffic re-entering)
	Ring RingConfig
}

// Injector applies a Config to one world. Construct with New, then splice it
// into the datapath with AttachTx / WrapRx and arm time-based faults with
// Start / ScheduleOverlayTrap.
type Injector struct {
	eng *sim.Engine
	nic *nic.NIC
	llc *cache.LLC
	cfg Config

	txRNG *sim.RNG
	rxRNG *sim.RNG
	hwRNG *sim.RNG // hardware fault placement (SRAM flip slots)

	// tracer, when set via SetTracer, records a span event for every fault
	// decision that touches a traced packet.
	tracer *telemetry.Tracer

	Tx WireStats
	Rx WireStats
	// RingBursts counts pressure bursts applied.
	RingBursts uint64
	// OverlayTraps counts traps armed into overlay machines.
	OverlayTraps uint64
	// NICStateLosses counts NIC-resident state losses injected (unloaded
	// pipeline programs, dropped steering rows) — the divergence the crash
	// reconciler must detect and repair.
	NICStateLosses uint64
	// Hardware fault counters (one per scheduled class; see the Schedule*
	// methods below).
	SRAMFlips  uint64 // flow-cache entries actually corrupted
	LinkFlaps  uint64
	DMAStalls  uint64
	TrapStorms uint64
}

// New builds an injector over a world's engine, NIC and (optionally nil)
// LLC.
func New(eng *sim.Engine, n *nic.NIC, llc *cache.LLC, cfg Config) *Injector {
	return &Injector{
		eng:   eng,
		nic:   n,
		llc:   llc,
		cfg:   cfg,
		txRNG: sim.NewRNG(cfg.Seed, "faults.tx."+cfg.Label),
		rxRNG: sim.NewRNG(cfg.Seed, "faults.rx."+cfg.Label),
		hwRNG: sim.NewRNG(cfg.Seed, "faults.hw."+cfg.Label),
	}
}

// SetTracer attaches a packet-lifecycle tracer: every fault decision that
// hits a traced packet (loss, corruption, reorder, duplicate) becomes a span
// event in that packet's journey, which is how a single-packet trace shows
// *why* a frame vanished rather than just that it did.
func (i *Injector) SetTracer(tr *telemetry.Tracer) { i.tracer = tr }

// trace records a fault span event for p, noted with the frame's direction,
// when tracing is on; the note is built only then.
func (i *Injector) trace(p *packet.Packet, point, dir string) {
	if i.tracer == nil || p.Meta.Trace == 0 {
		return
	}
	i.tracer.Record(p.Meta.Trace, i.eng.Now(), "faults", point, "dir="+dir)
}

// RegisterMetrics exposes the injector's fault counters on a registry.
func (i *Injector) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	for _, d := range []struct {
		dir string
		st  *WireStats
	}{{"tx", &i.Tx}, {"rx", &i.Rx}} {
		st := d.st
		l := telemetry.Labels{"dir": d.dir}
		for k, v := range labels {
			l[k] = v
		}
		r.Counter(telemetry.Desc{Layer: "faults", Name: "wire_frames", Help: "frames offered to the faulty link", Unit: "frames"},
			l, func() uint64 { return st.Frames })
		r.Counter(telemetry.Desc{Layer: "faults", Name: "wire_lost", Help: "frames silently lost in flight", Unit: "frames"},
			l, func() uint64 { return st.Lost })
		r.Counter(telemetry.Desc{Layer: "faults", Name: "wire_corrupted", Help: "frames corrupted and dropped by the receiver's FCS check", Unit: "frames"},
			l, func() uint64 { return st.Corrupted })
		r.Counter(telemetry.Desc{Layer: "faults", Name: "wire_reordered", Help: "frames delayed past their successors", Unit: "frames"},
			l, func() uint64 { return st.Reordered })
		r.Counter(telemetry.Desc{Layer: "faults", Name: "wire_duplicated", Help: "frames delivered twice", Unit: "frames"},
			l, func() uint64 { return st.Duplicated })
	}
	r.Counter(telemetry.Desc{Layer: "faults", Name: "ring_bursts", Help: "NIC pressure bursts applied (RX FIFO squeeze + DDIO antagonist)", Unit: "bursts"},
		labels, func() uint64 { return i.RingBursts })
	r.Counter(telemetry.Desc{Layer: "faults", Name: "overlay_traps", Help: "runtime traps armed into loaded overlay machines", Unit: "traps"},
		labels, func() uint64 { return i.OverlayTraps })
	r.Counter(telemetry.Desc{Layer: "faults", Name: "nic_state_losses", Help: "NIC-resident state losses injected (programs unloaded, steering rows dropped)", Unit: "losses"},
		labels, func() uint64 { return i.NICStateLosses })
	r.Counter(telemetry.Desc{Layer: "faults", Name: "sram_flips", Help: "flow-cache SRAM bit flips injected (live entries corrupted)", Unit: "flips"},
		labels, func() uint64 { return i.SRAMFlips })
	r.Counter(telemetry.Desc{Layer: "faults", Name: "link_flaps", Help: "physical link flaps injected", Unit: "flaps"},
		labels, func() uint64 { return i.LinkFlaps })
	r.Counter(telemetry.Desc{Layer: "faults", Name: "dma_stalls", Help: "DMA-engine stalls injected", Unit: "stalls"},
		labels, func() uint64 { return i.DMAStalls })
	r.Counter(telemetry.Desc{Layer: "faults", Name: "trap_storms", Help: "overlay trap storms injected", Unit: "storms"},
		labels, func() uint64 { return i.TrapStorms })
}

// AttachTx splices the Tx wire-fault model into the NIC's transmit hand-off,
// wrapping whatever OnTransmit hook the architecture installed. Call after
// the architecture is fully constructed.
func (i *Injector) AttachTx() {
	i.nic.OnTransmit = i.WrapTx(i.nic.OnTransmit)
}

// WrapTx returns next wrapped in the Tx fault model.
func (i *Injector) WrapTx(next func(p *packet.Packet, at sim.Time)) func(p *packet.Packet, at sim.Time) {
	if next == nil {
		next = func(*packet.Packet, sim.Time) {}
	}
	return func(p *packet.Packet, at sim.Time) {
		i.apply(i.cfg.Tx, i.txRNG, &i.Tx, "tx", p, func(pp *packet.Packet, extra sim.Duration) {
			if extra <= 0 {
				next(pp, at)
				return
			}
			i.eng.After(extra, func() { next(pp, i.eng.Now()) })
		})
	}
}

// WrapRx returns next wrapped in the Rx fault model, for the peer-side
// injection point (typically arch.Arch.DeliverWire or a responder's Deliver
// hook).
func (i *Injector) WrapRx(next func(p *packet.Packet)) func(p *packet.Packet) {
	if next == nil {
		next = func(*packet.Packet) {}
	}
	return func(p *packet.Packet) {
		i.apply(i.cfg.Rx, i.rxRNG, &i.Rx, "rx", p, func(pp *packet.Packet, extra sim.Duration) {
			if extra <= 0 {
				next(pp)
				return
			}
			i.eng.After(extra, func() { next(pp) })
		})
	}
}

// apply runs one frame through a direction's fault model. deliver is called
// zero times (loss/corruption), once (clean or reordered), or twice
// (duplication); the RNG draw order is fixed so fault patterns depend only
// on the seed and the frame sequence, never on scheduling.
func (i *Injector) apply(cfg WireConfig, rng *sim.RNG, st *WireStats, dir string, p *packet.Packet,
	deliver func(pp *packet.Packet, extra sim.Duration)) {
	st.Frames++
	if !cfg.enabled() {
		deliver(p, 0)
		return
	}
	if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
		st.Lost++
		i.trace(p, "wire_lost", dir)
		return
	}
	if cfg.Corrupt > 0 && rng.Float64() < cfg.Corrupt {
		// The frame still burned wire bandwidth (the sender paid
		// serialization before the hand-off); the receiver's FCS check eats
		// it, so past this point corruption behaves as loss.
		st.Corrupted++
		i.trace(p, "wire_corrupted", dir)
		return
	}
	var extra sim.Duration
	if cfg.Reorder > 0 && rng.Float64() < cfg.Reorder {
		st.Reordered++
		// Uniform in [reorderDelay, 2·reorderDelay) so back-to-back reordered
		// frames do not simply form a second in-order queue.
		extra = reorderDelay + sim.Duration(rng.Int63()%int64(reorderDelay))
		i.trace(p, "wire_reordered", dir)
	}
	if cfg.Duplicate > 0 && rng.Float64() < cfg.Duplicate {
		st.Duplicated++
		i.trace(p, "wire_duplicated", dir)
		deliver(p.Clone(), extra+duplicateDelay)
	}
	deliver(p, extra)
}

// Start arms the time-based fault processes (ring-pressure bursts) until the
// given virtual time (0 = forever). Wire faults need no Start; they act on
// every frame passing the wrapped hooks.
func (i *Injector) Start(until sim.Time) {
	rc := i.cfg.Ring
	if rc.Period <= 0 || i.nic == nil {
		return
	}
	burst := rc.Burst
	if burst <= 0 {
		burst = rc.Period / 10
	}
	if burst > rc.Period/2 {
		burst = rc.Period / 2
	}
	window := rc.Window
	if window < 1 {
		window = 1
	}
	var tick func()
	tick = func() {
		now := i.eng.Now()
		if until > 0 && !now.Before(until) {
			return
		}
		i.RingBursts++
		normal := i.nic.RxWindow()
		i.nic.SetRxWindow(window)
		if i.llc != nil && rc.DDIOLines > 0 {
			// An antagonist bus master (another NIC, a storage controller)
			// claiming the shared DDIO ways: every line it touches is one a
			// descriptor ring may have to re-fetch from DRAM.
			base := uint64(0xFA00_0000) + i.RingBursts*uint64(rc.DDIOLines)*64
			for l := 0; l < rc.DDIOLines; l++ {
				i.llc.DMAAccess(base + uint64(l)*64)
			}
		}
		i.eng.After(burst, func() { i.nic.SetRxWindow(normal) })
		i.eng.After(rc.Period, tick)
	}
	i.eng.After(rc.Period, tick)
}

// ScheduleOverlayTrap arms a one-shot runtime trap into whatever overlay
// machine is loaded on dir at virtual time at. The NIC's graceful-degradation
// path (trap fallback to the last-good chain) absorbs it; nic.TrapFallbacks
// counts the absorption.
func (i *Injector) ScheduleOverlayTrap(dir nic.Direction, at sim.Time, reason string) {
	i.eng.At(at, func() {
		if m := i.nic.Machine(dir); m != nil {
			m.InjectTrap(reason)
			i.OverlayTraps++
		}
	})
}

// ScheduleNICStateLoss arms a one-shot loss of NIC-resident state at
// virtual time at: the pipeline program on dir is unloaded (as a partial
// reset would) and, if flow is non-zero, its steering-table row is dropped.
// Unlike a trap this is silent — nothing falls back; the live NIC simply
// diverges from journaled intent until the crash reconciler notices
// (E10 and TestRestartRepairsInjectedDivergence exercise exactly this).
func (i *Injector) ScheduleNICStateLoss(dir nic.Direction, flow packet.FlowKey, at sim.Time) {
	i.eng.At(at, func() {
		if i.nic.Machine(dir) != nil {
			i.nic.UnloadProgram(dir)
			i.NICStateLosses++
		}
		if flow != (packet.FlowKey{}) && i.nic.DropSteering(flow) {
			i.NICStateLosses++
		}
	})
}

// ScheduleSRAMBurst arms a burst of flow-cache SRAM bit flips at virtual
// time at: flips random slot indexes (drawn from the hw RNG stream, so the
// pattern depends only on seed and label) are corrupted in place — verdict
// bit inverted, checksum left stale. Flips landing in empty slots are
// harmless, as on real hardware; SRAMFlips counts only the entries actually
// corrupted. With verification off (raw bypass) the corrupted verdicts are
// silently served; with it on they surface as checksum failures the health
// monitor quarantines on.
func (i *Injector) ScheduleSRAMBurst(at sim.Time, flips int) {
	i.eng.At(at, func() {
		fc := i.nic.FlowCache()
		if fc == nil || flips <= 0 {
			return
		}
		cap := fc.Capacity()
		for f := 0; f < flips; f++ {
			if fc.Corrupt(int(i.hwRNG.Int63() % int64(cap))) {
				i.SRAMFlips++
			}
		}
	})
}

// ScheduleLinkFlap arms a link flap at virtual time at: the physical link
// goes down for d, dropping every ingress frame at the MAC, then comes back.
// A flap scheduled while the link is already down is skipped (flaps do not
// nest; the earlier flap's restore stands).
func (i *Injector) ScheduleLinkFlap(at sim.Time, d sim.Duration) {
	i.eng.At(at, func() {
		if !i.nic.LinkUp() || d <= 0 {
			return
		}
		i.LinkFlaps++
		i.nic.SetLink(false)
		i.eng.After(d, func() { i.nic.SetLink(true) })
	})
}

// ScheduleDMAStall arms a DMA-engine stall at virtual time at: the engine is
// occupied for d (a wedged PCIe credit exchange), so every descriptor fetch
// and payload move queued behind it waits — ingress backs up into the FIFO
// and, unchecked, overflows it.
func (i *Injector) ScheduleDMAStall(at sim.Time, d sim.Duration) {
	i.eng.At(at, func() {
		if d <= 0 {
			return
		}
		i.DMAStalls++
		i.nic.StallDMA(d)
	})
}

// ScheduleTrapStorm arms count back-to-back runtime traps on dir starting at
// virtual time at, spaced gap apart — the repeated-fault pattern that should
// push the health monitor past its hysteresis threshold where a single
// absorbed trap would not.
func (i *Injector) ScheduleTrapStorm(dir nic.Direction, at sim.Time, count int, gap sim.Duration, reason string) {
	if count <= 0 {
		return
	}
	i.eng.At(at, func() { i.TrapStorms++ })
	for t := 0; t < count; t++ {
		i.ScheduleOverlayTrap(dir, at.Add(sim.Duration(t)*gap), reason)
	}
}

// Backoff computes the capped exponential backoff used by control-plane
// clients retrying through an injected (or real) control-socket outage:
// base·2ⁿ capped at max, scaled by a jitter factor in [0.5, 1.0) derived only
// from the attempt number, so every client's schedule is the same and
// reproducible.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	d := base
	for n := 0; n < attempt && d < max; n++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// FNV-style mix of the attempt for the jitter fraction.
	h := uint64(0xcbf29ce484222325)
	h = h*1099511628211 + uint64(attempt) + 1
	h ^= h >> 33
	frac := 0.5 + 0.5*float64(h%1024)/1024
	return time.Duration(float64(d) * frac)
}
