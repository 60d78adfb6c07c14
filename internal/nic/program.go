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
	cost := n.programSRAMDelta(dir, p)
	if cost > 0 {
		used, budget := n.SRAM()
		if used+cost > budget {
			return nil, 0, fmt.Errorf("%w: program %q needs %d bytes, %d free",
				ErrSRAMExhausted, p.Name, cost, budget-used)
		}
	}
	if old := n.program(dir); old != nil {
		n.lastGood[dir] = old
	}
	n.install(dir, p)
	return n.Machine(dir), n.loadCost(p), nil
}

// install makes p (nil: nothing) the program deciding packets on one
// pipeline. A new ingress decision procedure empties the flow cache: nothing
// memoized under the old chain may serve another packet (E4 hot-reload
// invalidation).
func (n *NIC) install(dir Direction, p *overlay.Program) {
	var m *overlay.Machine
	if p != nil {
		m = overlay.NewMachine(p)
	}
	if dir == Egress {
		n.egress = m
		return
	}
	n.ingress, n.ingressCacheable = m, m != nil && m.Cacheable()
	n.fcFlush()
}

// loadCost is the MMIO write traffic to program p into a pipeline bank: one
// configuration-register write per instruction word plus one per declared
// table, meter and counter (table contents are populated separately by the
// control plane). A nil program costs nothing.
func (n *NIC) loadCost(p *overlay.Program) sim.Duration {
	if p == nil {
		return 0
	}
	return sim.Duration(len(p.Code)+len(p.Tables)+len(p.Meters)+len(p.Counters)) * sim.Duration(n.model.MMIOWrite)
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
	repl := n.lastGood[dir]
	if repl == nil {
		repl = n.program(dir)
	}
	n.install(dir, repl)
	if repl == nil {
		return overlay.VerdictPass, 0
	}
	v, cycles, trap := n.Machine(dir).Run(p, e)
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
	return p.SRAMBytes() - genSRAM(n.program(dir), nil)
}

// UnloadProgram removes the program on one pipeline.
func (n *NIC) UnloadProgram(dir Direction) { n.install(dir, nil) }

// program returns the program live on a pipeline, or nil.
func (n *NIC) program(dir Direction) *overlay.Program {
	if m := n.Machine(dir); m != nil {
		return m.Program()
	}
	return nil
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
	n.install(Ingress, nil)
	n.install(Egress, nil)
	n.lastGood = [2]*overlay.Program{}
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
		for _, p := range n.rxPauseBuf {
			j := n.job(nil, p)
			n.drop(j, RxOutage)
			n.settle(j)
		}
		n.rxPauseBuf = nil
	}
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
