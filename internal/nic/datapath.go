package nic

import (
	"fmt"

	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// dmaCost returns the DMA engine occupancy for moving one descriptor plus
// frameLen payload bytes between host memory and the NIC.
//
// Payload moves with non-allocating streaming writes/reads (how high-rate
// NICs are configured to avoid flooding the LLC), so it costs plain PCIe
// bandwidth. Descriptor ring slots are the DDIO-cached state: on RX the NIC
// must *read* the posted descriptor (to learn the buffer address) and write
// the completion back, so a descriptor that has fallen out of the DDIO ways
// stalls the engine on a DRAM round trip plus the completion writeback.
// Once the active ring working set (connections × ring slots × 64B)
// outgrows the DDIO share of the LLC, every packet pays this — which is the
// paper's >1024-connection cliff (E3). On TX the descriptor read is
// prefetchable ahead of need (the doorbell announces it), so misses cost
// nothing extra.
func (n *NIC) dmaCost(c *Conn, ring *mem.Ring, index uint64, frameLen int, rx bool) sim.Duration {
	cost := n.price(frameLen).dma
	if n.llc == nil {
		return cost
	}
	var descHit bool
	if n.llc.Partitioned() {
		// Per-tenant DDIO partition: this tenant's descriptor lines compete
		// only inside its own ways, so a neighbor's ring footprint cannot
		// evict them.
		descHit = n.llc.DMAAccessTenant(ring.SlotAddr(index), c.Meta.Tenant)
	} else {
		descHit = n.llc.DMAAccess(ring.SlotAddr(index))
	}
	if descHit {
		n.DMADescHit++
	} else {
		n.DMADescMiss++
		if rx {
			// A cold posted-descriptor read is a dependent DRAM round
			// trip the engine cannot overlap (it needs the buffer address
			// before it can write), plus the completion writeback.
			cost += sim.Duration(n.model.DRAMAccess).Scale(2.5)
		}
	}
	return cost
}

// stamp applies the connection's kernel-programmed metadata to a packet.
// This is the NIC-resident process view: only connections opened through the
// kernel control plane carry trusted metadata. Packets that arrive already
// trusted (stamped by the in-kernel or sidecar dataplane before reaching a
// kernel-owned NIC queue) keep their attribution — the NIC never downgrades
// a privileged stamp, it only adds one where the connection context has it.
func stamp(c *Conn, p *packet.Packet, now sim.Time) {
	if c.Meta.TrustedMeta || !p.Meta.TrustedMeta {
		p.Meta.UID = c.Meta.UID
		p.Meta.PID = c.Meta.PID
		p.Meta.Command = c.Meta.Command
		p.Meta.CommandID = c.Meta.CommandID
		p.Meta.ConnID = c.ID
		p.Meta.Tenant = c.Meta.Tenant
		p.Meta.TrustedMeta = c.Meta.TrustedMeta
	}
	p.Meta.Enqueued = now
}

// DoorbellTx is the MMIO doorbell: the application (or kernel driver) has
// published descriptors in c's TX ring. The NIC drains the ring through the
// egress pipeline. The caller accounts its own MMIO write cost; everything
// from the doorbell onward is NIC time.
func (n *NIC) DoorbellTx(c *Conn) {
	if c.txDraining {
		return // drain already in flight; it will pick up new descriptors
	}
	c.txDraining = true
	n.drainTx(c)
}

func (n *NIC) drainTx(c *Conn) {
	now := n.eng.Now()
	if c.TX.Empty() {
		c.txDraining = false
		if c.NotifyTx {
			n.pushNotify(c, mem.NotifyTxDrained, now)
		}
		return
	}
	if c.rlRate > 0 {
		// Per-connection pacing: fetch the next descriptor only when the
		// token bucket covers the head frame.
		head, err := c.TX.Peek()
		if err == nil {
			if now > c.rlLast {
				c.rlTokens += now.Sub(c.rlLast).Seconds() * c.rlRate
				if c.rlTokens > c.rlBurst {
					c.rlTokens = c.rlBurst
				}
				c.rlLast = now
			}
			need := float64(head.Pkt.FrameLen())
			if c.rlTokens < need {
				if !c.rlWaiting {
					c.rlWaiting = true
					// The extra nanosecond absorbs float truncation; a
					// zero wait would respin at the same instant forever.
					wait := sim.Duration((need-c.rlTokens)/c.rlRate*float64(sim.Second)) + sim.Nanosecond
					n.job(c, nil).arm(stTxPaced, now.Add(wait))
				}
				return
			}
		}
	}
	if n.txInflight >= n.txWindow {
		// NIC staging buffer full: stall this queue until a slot frees.
		// txDraining stays set so doorbells do not start a second chain.
		if !c.txStalled {
			c.txStalled = true
			n.txStalled = append(n.txStalled, c)
		}
		return
	}
	index := c.TX.Tail()
	d, err := c.TX.Pop()
	if err != nil {
		c.txDraining = false
		return
	}
	p := d.Pkt
	frame := p.FrameLen()
	if n.tracer != nil {
		n.trace(p, now, "ring", "tx_dequeue", fmt.Sprintf("conn=%d slot=%d", c.ID, index))
	}
	if c.rlRate > 0 {
		c.rlTokens -= float64(frame)
	}

	j := n.job(c, p)
	j.index, j.frame, j.prod = index, frame, d.Produced
	n.txAccept()
	n.txInflight++
	j.held |= heldTxSlot
	// The descriptor fetch waits its turn at the DMA stage; the drain chain
	// resumes when the grant is served (txFetched).
	j.stage, j.est = stTxFetch, n.price(frame).dma
	n.tsched.DMA.Request(j)
	n.settle(j)
}

// txFetched continues a descriptor fetch that owns the DMA engine until
// done. The fetch engine is pipelined: the connection's next descriptor is
// fetched as soon as the engine frees up, while this packet rides its own
// latency chain across PCIe and through the pipeline.
func (n *NIC) txFetched(j *job, done sim.Time) {
	n.job(j.c, nil).arm(stTxDrain, done)
	j.arm(stTxArrive, done.Add(n.model.DMALatency))
}

// txArrive is the egress continuation once a fetched descriptor's payload has
// crossed PCIe: outage check, metadata stamp, then the pipeline stage.
func (n *NIC) txArrive(j *job) {
	if n.Down(n.eng.Now()) {
		n.drop(j, TxOutage)
		return
	}
	stamp(j.c, j.p, j.prod)
	j.stage, j.est = stTxPipe, n.price(j.frame).pipe
	n.tsched.Pipe.Request(j)
}

// txPipe runs the egress pipeline on a frame that owns the pipeline slot
// ending at done: the overlay runs now (its cycles are billed to the owning
// tenant), and the frame leaves once the occupancy plus program latency has
// elapsed.
func (n *NIC) txPipe(j *job, done sim.Time) {
	p, now := j.p, n.eng.Now()
	lat := sim.Duration(n.model.NICPipeline)
	if n.egress != nil {
		verdict, cycles, trap := n.egress.Run(p, j)
		if trap != nil {
			if n.tracer != nil {
				n.trace(p, now, "nic", "trap_fallback", "pipeline=egress: "+trap.Error())
			}
			verdict, cycles = n.trapFallback(Egress, p, j)
		}
		cyc := n.cycles(cycles)
		lat += cyc
		n.tsched.Pipe.Charge(p.Meta.Tenant, cyc)
		if n.tracer != nil {
			n.trace(p, now, "nic", "pipeline_egress", fmt.Sprintf("verdict=%v cycles=%d", verdict, cycles))
		}
		if verdict == overlay.VerdictDrop {
			n.drop(j, TxVerdict)
			return
		}
	}
	j.arm(stTxEmit, done.Add(lat))
}

// sendToWire hands a pipeline-approved frame to the scheduler (or straight
// to the wire when no qdisc is installed).
func (n *NIC) sendToWire(j *job) {
	p, now := j.p, n.eng.Now()
	if n.classifier != nil {
		p.Meta.Class = n.classifier(p)
	}
	if n.sched == nil {
		n.transmit(j, j.c, now)
		return
	}
	// The scheduler (with its own per-class bounds) takes over buffering;
	// the staging slot frees as soon as the packet is classified into it.
	if !n.sched.Enqueue(p, now) {
		n.txRefuse(1)
	}
	n.release(j)
	n.pumpWire()
}

// pumpWire keeps exactly one pending dequeue event against the scheduler.
func (n *NIC) pumpWire() {
	if n.schedPump || n.sched == nil {
		return
	}
	now := n.eng.Now()
	at, ok := n.sched.ReadyAt(now)
	if !ok {
		return
	}
	if free := n.wireTx.FreeAt(); free > at {
		at = free
	}
	if at < now {
		at = now
	}
	n.schedPump = true
	n.job(nil, nil).arm(stPump, at)
}

// pump is pumpWire's pending event: move one frame from the scheduler to the
// wire. The qdisc holds bare packets, so the owning connection is looked up.
func (n *NIC) pump() {
	n.schedPump = false
	if n.sched == nil {
		return // removed (SetScheduler) with this dequeue pending
	}
	now := n.eng.Now()
	if p, ok := n.sched.Dequeue(now); ok {
		n.transmit(n.job(nil, p), n.conns[p.Meta.ConnID], now)
		n.pumpWire()
		return
	}
	// No progress (e.g. a shaper's tokens not yet accrued): retry a little
	// later rather than spinning at this instant.
	n.job(nil, nil).arm(stPumpRetry, now.Add(100*sim.Nanosecond))
}

// transmit serializes j's frame, of connection c (nil: none, or closed
// since), onto the wire. A job that came straight from the pipeline keeps its
// staging slot until the last bit is out.
func (n *NIC) transmit(j *job, c *Conn, now sim.Time) {
	p := j.p
	frame := p.FrameLen()
	_, done := n.wireTx.Acquire(now, n.price(frame).wire)
	n.TxFrames++
	n.txAhead--
	n.TxBytes += uint64(frame)
	if n.tracer != nil {
		n.trace(p, now, "wire", "tx", fmt.Sprintf("len=%d", frame))
	}
	if n.tap != nil {
		n.tap.Offer(p, now)
	}
	// A frame that kept an earlier privileged stamp (stamp) is attributed to
	// the connection it names, not the queue it was drained from.
	if c != nil && c.ID == p.Meta.ConnID {
		c.TxSent++
	}
	j.arm(stTxWire, done)
}

// InjectTx transmits a control-plane-originated frame (ARP replies, ICMP
// from the kernel): it enters the egress pipeline directly rather than
// through a connection ring — the kernel owns the NIC (§4.4) and needs no
// descriptor to speak.
func (n *NIC) InjectTx(p *packet.Packet) {
	now := n.eng.Now()
	j := n.job(nil, p)
	n.txAccept()
	if n.Down(now) {
		n.drop(j, TxOutage)
		n.settle(j)
		return
	}
	_, pipeDone := n.pipeline.Acquire(now, n.price(p.FrameLen()).pipe)
	j.arm(stTxInject, pipeDone.Add(sim.Duration(n.model.NICPipeline)))
}

// DeliverFromWire is the wire-side entry: a frame starts arriving at the
// current engine time and is processed once its last bit is in — ingress is
// serialized at line rate, so no experiment can observe goodput above it.
func (n *NIC) DeliverFromWire(p *packet.Packet) {
	j := n.job(nil, p)
	j.frame = p.FrameLen()
	_, arrived := n.wireRx.Acquire(n.eng.Now(), n.price(j.frame).wire)
	j.arm(stRxWire, arrived)
}

func (n *NIC) rxFrame(j *job) {
	p, now := j.p, n.eng.Now()
	n.RxWire++
	if n.tracer != nil {
		if p.Meta.Trace == 0 {
			p.Meta.Trace = n.tracer.StampID()
		}
		n.trace(p, now, "nic", "rx_wire", fmt.Sprintf("len=%d", j.frame))
	}
	if !n.linkUp {
		// The MAC has no carrier: the frame never makes it off the wire.
		// Announced loss (the link state is visible to the health monitor),
		// unlike a silent FIFO overflow.
		n.drop(j, RxLink)
		return
	}
	if n.pauseIntake(j, now) {
		// Generation cutover in progress: the frame waits out the epoch flip
		// in the pause buffer (or became a typed RxPauseDrop) instead of
		// being blackholed mid-upgrade.
		return
	}
	n.rxAdmit(j, now)
}

// rxAdmit is ingress admission past the MAC and pause gate: both the live
// wire path (rxFrame) and the pause-buffer replay (ResumeRx) enter here, so
// a replayed frame takes exactly the path it would have taken live. There is
// one order: steer (the destination connection is resolved here, once, and
// rides in the job from then on), stamp — tenant attribution decides whose
// FIFO share the frame occupies, and shed policy, the outage slow path, the
// tap and the overlay all see the connection's context — FIFO admission, shed,
// outage, tap, pipeline stage.
func (n *NIC) rxAdmit(j *job, now sim.Time) {
	p := j.p
	j.key, j.flow = p.Flow()
	c := n.steer(j)
	j.c = c
	if c != nil {
		stamp(c, p, now)
	}
	sh := n.tsched.share(p.Meta.Tenant)
	if sh.inflight >= sh.window {
		n.drop(j, RxFifo)
		return
	}
	sh.inflight++
	n.rxInflight++
	j.share = sh
	j.held |= heldFifo
	// Priority-aware shedding: under sustained pressure the installed policy
	// drops low-class ingress here, before the frame can touch the pipeline or
	// the DMA engine — the point is to stop cold descriptors from thrashing
	// the DDIO ways, so the shed must happen upstream of both. (The FIFO slot
	// it took a moment ago comes back inside this event.)
	if n.shedPolicy != nil && c != nil && n.shedPolicy(c, p) {
		n.drop(j, RxShed)
		return
	}
	if n.Down(now) {
		n.drop(j, RxOutage)
		if n.SlowPath != nil {
			n.RxSlowPath++
			n.SlowPath(p, now)
		}
		return
	}
	if n.tap != nil {
		n.tap.Offer(p, now)
	}
	j.stage, j.est = stRxPipe, n.price(j.frame).pipe
	n.tsched.Pipe.Request(j)
}

// rxPipe runs the ingress pipeline on a frame that owns the pipeline slot
// ending at done: flow-cache hit or overlay interpretation now (the cycles are
// billed to the owning tenant), then the frame leaves for the DMA stage — or
// the slow path, unsteered — once the occupancy plus program latency has
// elapsed.
func (n *NIC) rxPipe(j *job, done sim.Time) {
	c, p, now := j.c, j.p, n.eng.Now()
	lat := sim.Duration(n.model.NICPipeline)
	if n.ingress != nil {
		var cyc sim.Duration // latency the program (or its cached verdict) adds
		verdict := overlay.VerdictPass
		if e, hit := n.fcLookup(j); hit {
			// Fast path: the memoized verdict and rewrite apply at
			// single-lookup cost — no overlay interpretation.
			cyc, verdict = n.cycles(1), e.verdict
			p.Meta.Mark = e.mark
			p.Meta.Class = e.class
			if n.tracer != nil {
				n.trace(p, now, "nic", "flowcache_hit", fmt.Sprintf("verdict=%v hits=%d", e.verdict, e.hits))
			}
		} else {
			var cycles int
			var trap error
			verdict, cycles, trap = n.ingress.Run(p, j)
			trapped := trap != nil
			if trapped {
				if n.tracer != nil {
					n.trace(p, now, "nic", "trap_fallback", "pipeline=ingress: "+trap.Error())
				}
				verdict, cycles = n.trapFallback(Ingress, p, j)
			}
			n.IngressProgCycles += uint64(cycles)
			cyc = n.cycles(cycles)
			if n.fc != nil && n.ingressCacheable && c != nil {
				cyc += n.cycles(1) // the probe that missed
			}
			if n.tracer != nil {
				n.trace(p, now, "nic", "pipeline_ingress", fmt.Sprintf("verdict=%v cycles=%d", verdict, cycles))
			}
			n.fcInstall(j, verdict, trapped)
		}
		lat += cyc
		n.tsched.Pipe.Charge(p.Meta.Tenant, cyc)
		if verdict == overlay.VerdictDrop {
			n.drop(j, RxVerdict)
			return
		}
	}
	at := done.Add(lat)
	if c == nil {
		if n.SlowPath != nil {
			n.RxSlowPath++
			j.arm(stRxSlow, at)
		} else {
			n.drop(j, RxNoSteer)
		}
		return
	}
	j.arm(stRxStore, n.tsched.DMA.book(j, at))
}

// rxStore DMAs a frame that has left the pipeline into its connection's RX
// ring, through the DMA stage.
func (n *NIC) rxStore(j *job) {
	j.stage, j.est = stRxDMA, n.price(j.frame).dma
	n.tsched.DMA.Request(j)
}
