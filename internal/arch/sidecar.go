package arch

import (
	"norman/internal/kernel"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
)

// Sidecar is the IX/Snap-style dedicated dataplane core (§1's "physical
// movement" alternative): applications exchange packets with an
// OS-integrated dataplane process over shared-memory rings, and that
// process — pinned to its own core, polling — runs the interposition logic
// in software before touching the NIC. Full manageability, one burned core,
// and per-packet coherence traffic between cores. The interposition itself is
// soft's; this file is the ring pair, the paced drain and the cross-core pull.
type Sidecar struct {
	soft

	// Per-connection app<->sidecar rings.
	appRings map[uint64]*appRings
}

type appRings struct {
	toSidecar *mem.Ring
	toApp     *mem.Ring
	draining  bool // a TX drain loop on the dataplane core is active
}

// NewSidecar builds the architecture on a world.
func NewSidecar(w *World) *Sidecar {
	a := &Sidecar{appRings: map[uint64]*appRings{}}
	// Snap engines are leaner than the full kernel stack.
	a.init(w, w.Model.Cycles(300))
	a.q = a.openQueue(w.Kern.Spawn(0, "snap-dataplane"), packet.FlowKey{})
	w.NIC.SetDefaultConn(a.q.ID)
	w.NIC.OnRxDeliver = a.onRxDeliver
	// The dataplane core spins regardless of load — the §2 scheduling
	// scenario's "burning CPU cores" made structural.
	w.MarkPoller(w.KernCore())
	return a
}

// Name implements Arch.
func (a *Sidecar) Name() string { return "sidecar" }

// Caps implements Arch.
func (a *Sidecar) Caps() Caps {
	caps := a.soft.Caps()
	caps.BurnsCore = true
	return caps
}

// Connect allocates the shared-memory ring pair between the app and the
// dataplane core.
func (a *Sidecar) Connect(proc *kernel.Process, flow packet.FlowKey) (*Conn, error) {
	c, err := a.soft.Connect(proc, flow)
	if err != nil {
		return nil, err
	}
	a.appRings[c.Info.ID] = &appRings{
		toSidecar: mem.NewRing(1024, a.w.Alloc.Take(1024*64, 4096)),
		toApp:     mem.NewRing(1024, a.w.Alloc.Take(1024*64, 4096)),
	}
	return c, nil
}

// Close implements Arch.
func (a *Sidecar) Close(c *Conn) error {
	delete(a.appRings, c.Info.ID)
	return a.soft.Close(c)
}

// Send: the app publishes into its shared ring (cheap), then the dataplane
// core pulls the packet across the coherence fabric, interposes, and drives
// the NIC.
func (a *Sidecar) Send(c *Conn, p *packet.Packet) {
	a.sent++
	rings := a.appRings[c.Info.ID]
	_, appDone := c.core.Acquire(a.w.Eng.Now(), a.w.Model.Cycles(60))
	a.w.Eng.At(appDone, func() { a.publish(c, rings, p) })
}

// SendBatch publishes a burst into the shared ring in one go; the dataplane
// core picks the whole burst up on its next poll iteration.
func (a *Sidecar) SendBatch(c *Conn, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	a.sent += uint64(len(pkts))
	rings := a.appRings[c.Info.ID]
	batch := append([]*packet.Packet(nil), pkts...)
	_, appDone := c.core.Acquire(a.w.Eng.Now(), a.w.Model.Cycles(60*len(pkts)))
	a.w.Eng.At(appDone, func() { a.publish(c, rings, batch...) })
}

// publish pushes packets into the connection's shared ring and starts the
// dataplane core's drain of it if one is not already running (a full ring has
// one). The drain is paced by the core: the next pop happens only after the
// previous packet's processing completes, so the bounded ring — not an
// unbounded core backlog — absorbs overload and backpressures the
// application.
func (a *Sidecar) publish(c *Conn, rings *appRings, pkts ...*packet.Packet) {
	now := a.w.Eng.Now()
	for _, p := range pkts {
		if err := rings.toSidecar.Push(mem.Desc{Pkt: p, Produced: now}); err != nil {
			a.hostDrop(p, c.Info.ID, HostTxRing)
		}
	}
	if rings.draining {
		return
	}
	rings.draining = true
	// The polling dataplane core notices the ring within one iteration.
	a.w.Eng.After(sim.Duration(a.w.Model.PollIteration), func() { a.drainAppTx(c, rings) })
}

// drainAppTx pulls one packet across the coherence fabric into the dataplane
// core's egress half and comes back when the core has finished with it.
func (a *Sidecar) drainAppTx(c *Conn, rings *appRings) {
	desc, err := rings.toSidecar.Pop()
	if err != nil {
		rings.draining = false
		return
	}
	p := desc.Pkt
	done := a.egress(c, p, a.w.KernCore(), a.w.Model.CrossCore(64+p.FrameLen()))
	a.w.Eng.At(done, func() { a.drainAppTx(c, rings) })
}

// onRxDeliver is the dataplane-core ingress half: pop the NIC queue,
// interpose, push the packet across the fabric to the owning app.
func (a *Sidecar) onRxDeliver(nc *nic.Conn, _ sim.Time) {
	if nc.ID != a.q.ID {
		return
	}
	p, ok := a.pop(nc)
	if !ok {
		return
	}
	c, done := a.ingress(p, a.w.KernCore())
	if c == nil {
		return
	}
	rings := a.appRings[c.Info.ID]
	a.w.Eng.At(done, func() {
		if err := rings.toApp.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
			a.hostDrop(p, c.Info.ID, HostRxAppRing)
			return
		}
		// The app consumes at once — the ring only bounds and counts the
		// crossing — and pays for pulling the payload across the fabric.
		// The dataplane core can signal the kernel scheduler, so a blocked
		// receiver is woken.
		_, _ = rings.toApp.Pop()
		m := &a.w.Model
		a.deliverTo(c, p, a.w.Eng.Now(), m.Cycles(40)+m.CrossCore(64+p.FrameLen()))
	})
}
