package nic

import (
	"fmt"

	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// Direction selects the pipeline an overlay program attaches to.
type Direction uint8

// Directions.
const (
	Ingress Direction = iota // wire -> host
	Egress                   // host -> wire
)

func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// LoadProgram installs a verified overlay program on one pipeline without an
// outage — this is the paper's online policy update path (§4.4). It returns
// the load latency (control-plane visible) and the new machine. The cost is
// MMIO traffic proportional to program size: each instruction and table slot
// is written through configuration registers.
func (n *NIC) LoadProgram(dir Direction, p *overlay.Program) (*overlay.Machine, sim.Duration, error) {
	m := overlay.NewMachine(p)
	cost := n.programSRAMDelta(dir, p)
	if cost > 0 {
		used, budget := n.SRAM()
		if used+cost > budget {
			return nil, 0, fmt.Errorf("%w: program %q needs %d bytes, %d free",
				ErrSRAMExhausted, p.Name, cost, budget-used)
		}
	}
	// One MMIO write per instruction word plus one per declared table (the
	// table contents are populated separately by the control plane).
	writes := len(p.Code) + len(p.Tables) + len(p.Meters) + len(p.Counters)
	load := sim.Duration(writes) * sim.Duration(n.model.MMIOWrite)
	switch dir {
	case Ingress:
		if n.ingress != nil {
			n.lastGood[Ingress] = n.ingress.Program()
		}
		n.ingress = m
		// The decision procedure changed: nothing memoized under the old
		// chain may serve another packet (E4 hot-reload invalidation).
		n.ingressCacheable = programCacheable(p)
		n.fcFlush()
	case Egress:
		if n.egress != nil {
			n.lastGood[Egress] = n.egress.Program()
		}
		n.egress = m
	}
	return m, load, nil
}

// LastGood returns the fallback program a pipeline would degrade to after a
// runtime trap (the chain installed before the most recent reload), or nil.
func (n *NIC) LastGood(dir Direction) *overlay.Program { return n.lastGood[dir] }

// trapFallback absorbs an overlay runtime trap on one pipeline: rather than
// wedging (or crashing the simulation, as a panic would), the NIC reuses the
// E4 online-reconfiguration machinery to swap the faulted machine out — for
// the last-good chain when one exists, else for a fresh instance of the same
// verified program (dynamic table state is sacrificed, exactly what a
// hardware stage reset does). The trapped packet is re-run through the
// replacement; if that also traps, the pipeline fails open with no program.
// One trap event counts once: the absorbed trap increments TrapFallbacks,
// and the terminal double-trap increments TrapFailOpens instead of
// inflating the fallback count a second time.
func (n *NIC) trapFallback(dir Direction, p *packet.Packet, e overlay.Env) (overlay.Verdict, int) {
	n.TrapFallbacks++
	var repl *overlay.Machine
	if lg := n.lastGood[dir]; lg != nil {
		repl = overlay.NewMachine(lg)
	} else if cur := n.Machine(dir); cur != nil {
		repl = overlay.NewMachine(cur.Program())
	}
	switch dir {
	case Ingress:
		n.ingress = repl
		if repl != nil {
			n.ingressCacheable = programCacheable(repl.Program())
		} else {
			n.ingressCacheable = false
		}
		n.fcFlush()
	case Egress:
		n.egress = repl
	}
	if repl == nil {
		return overlay.VerdictPass, 0
	}
	v, cycles, trap := repl.Run(p, e)
	if trap != nil {
		// Failing open is not a fallback to a last-good chain; count it in
		// its own bucket so one fault event never shows up twice in
		// nic_trap_fallbacks.
		n.TrapFailOpens++
		n.UnloadProgram(dir)
		return overlay.VerdictPass, 0
	}
	return v, cycles
}

// programSRAMDelta returns the SRAM change from replacing dir's program
// with p.
func (n *NIC) programSRAMDelta(dir Direction, p *overlay.Program) int {
	old := 0
	switch dir {
	case Ingress:
		if n.ingress != nil {
			old = n.ingress.Program().SRAMBytes()
		}
	case Egress:
		if n.egress != nil {
			old = n.egress.Program().SRAMBytes()
		}
	}
	return p.SRAMBytes() - old
}

// UnloadProgram removes the program on one pipeline.
func (n *NIC) UnloadProgram(dir Direction) {
	if dir == Ingress {
		n.ingress = nil
		n.ingressCacheable = false
		n.fcFlush()
	} else {
		n.egress = nil
	}
}

// Machine returns the machine currently loaded on a pipeline, or nil.
func (n *NIC) Machine(dir Direction) *overlay.Machine {
	if dir == Ingress {
		return n.ingress
	}
	return n.egress
}

// DefaultBitstreamReload is the paper's "seconds or longer" (§4.4).
const DefaultBitstreamReload = 3 * sim.Second

// ReloadBitstream models a full FPGA reconfiguration: the dataplane is down
// for the given duration (0 = DefaultBitstreamReload), during which arriving
// traffic drops or takes the slow path; all loaded programs and dynamic
// state are cleared, as a real respin would.
func (n *NIC) ReloadBitstream(now sim.Time, d sim.Duration) sim.Time {
	if d <= 0 {
		d = DefaultBitstreamReload
	}
	n.outageUntil = now.Add(d)
	n.ingress = nil
	n.egress = nil
	n.lastGood[Ingress] = nil
	n.lastGood[Egress] = nil
	n.ingressCacheable = false
	// A respin wipes the shadow bank too: staged and retained generations are
	// gone, their SRAM released. A paused ingress cannot survive the reset —
	// buffered frames are part of the outage and counted as such.
	n.AbortStaged()
	if n.prevGen != nil {
		n.sramUsed -= n.prevGen.sram
		n.prevGen = nil
	}
	if n.rxPaused {
		n.rxPaused = false
		n.rxPauseCap = 0
		n.RxOutageDrop += uint64(len(n.rxPauseBuf))
		n.rxPauseBuf = nil
	}
	n.fcFlush()
	return n.outageUntil
}

func (n *NIC) pushNotify(c *Conn, kind mem.NotifyKind, now sim.Time) {
	if c.Queue == nil {
		return
	}
	if !c.Queue.Push(mem.Notification{ConnID: c.ID, Kind: kind, At: now}) || n.OnNotify == nil {
		return
	}
	if c.NotifyCoalesce <= 0 {
		c.lastNotifyAt = now
		n.OnNotify(c, kind, now)
		return
	}
	// Interrupt moderation: fire at most one callback per coalescing
	// window; everything queued meanwhile is drained by that one wake.
	if c.notifyArmed {
		return
	}
	c.notifyArmed = true
	fireAt := c.lastNotifyAt.Add(c.NotifyCoalesce)
	if fireAt < now {
		fireAt = now
	}
	n.eng.At(fireAt, func() {
		c.notifyArmed = false
		c.lastNotifyAt = n.eng.Now()
		n.OnNotify(c, kind, n.eng.Now())
	})
}
