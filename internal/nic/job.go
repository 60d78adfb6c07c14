package nic

import (
	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/sim"
)

// stage names what a job is waiting for: the engine event (or Stage grant)
// that resumes it, and therefore the datapath step that runs next.
type stage uint8

const (
	stFree stage = iota // on the free list
	stHeld              // taken, not yet waiting on anything

	stRxWire    // last bit on the wire → rxFrame
	stRxPipe    // submitted to the pipeline stage → rxPipe
	stRxStore   // pipeline latency elapsed → rxStore (the DMA stage)
	stRxDMA     // submitted to the DMA stage → PCIe flight
	stRxVisible // completion crossed PCIe → rxComplete
	stRxSlow    // unsteered frame leaves the pipeline → SlowPath

	stTxDrain  // fetch engine free → c's next descriptor
	stTxPaced  // c's token bucket refilled → resume its drain
	stTxFetch  // submitted to the DMA stage → txFetched
	stTxArrive // payload crossed PCIe → txArrive
	stTxPipe   // submitted to the pipeline stage → txPipe
	stTxEmit   // pipeline latency elapsed → sendToWire
	stTxInject // control-plane frame leaves the pipeline → transmit
	stTxWire   // serialized → release the staging slot if still held, OnTransmit

	stPump // qdisc dequeue instant → pump
)

// job is the NIC's one per-event record: everything a datapath continuation
// needs, in one flat struct that rides the engine as a sim.Handler, waits in
// a tenant DRR ring as the grant, and serves as the overlay.Env of a pipeline
// run — where the datapath used to build a closure (or box an env) per hop.
//
// Ownership: NIC.job takes one off the NIC's intrusive free list; arm (an
// engine event) or Stage.Request (a DRR ring slot) holds it; whoever resumes
// it — Fire, the DRR pump — runs one step and settles it: a step that armed
// the job again keeps it, any other return (delivered, dropped, handed on)
// frees it. Code that takes a job outside Fire settles it itself. held is what
// the job owns of the NIC's bounded resources; the three ways out of the
// datapath release it (ledger.go). The list is
// touched only from the NIC's engine goroutine, so parallel worlds share
// nothing; it holds as many records as were ever in flight at
// once. The frame a job carries is not the job's: a typed drop gives it back
// to the host's free list (drop, Config.Frames), every other exit hands it on.
type job struct {
	n     *NIC
	c     *Conn // steered / owning connection; nil for unsteered ingress
	p     *packet.Packet
	index uint64       // ring slot (DMA stages)
	frame int          // wire frame length
	prod  sim.Time     // TX descriptor Produced stamp
	est   sim.Duration // stage request: estimated server occupancy
	enq   sim.Time     // tenant DRR: when the request was queued
	share *tenantRx    // the FIFO share row an admitted rx frame occupies (heldFifo)
	stage stage
	armed bool  // held by an engine event or a DRR ring
	held  uint8 // heldFifo | heldTxSlot

	// The ingress frame's 5-tuple, extracted once at admission (rxAdmit):
	// steering, RSS and the flow cache all read it here. flow is false for a
	// frame that has none (ARP, ICMP) and for every job that is not an rx
	// frame. hash is flowHash(key), worked out by the first flow-cache probe
	// or install that needs it.
	key    packet.FlowKey
	flow   bool
	hashed bool
	hash   uint32

	next *job // free list
}

// job takes a record off the free list for connection c and packet p.
func (n *NIC) job(c *Conn, p *packet.Packet) *job {
	j := n.jobFree
	if j == nil {
		j = &job{n: n}
	} else {
		n.jobFree = j.next
	}
	j.c, j.p, j.stage = c, p, stHeld
	j.flow, j.hashed = false, false // a recycled record carries no stale key
	n.jobsOut++
	return j
}

// settle frees j unless its last step left it armed.
func (n *NIC) settle(j *job) {
	if j.armed {
		return
	}
	if j.stage == stFree {
		panic("nic: datapath job freed twice")
	}
	if j.held != 0 {
		panic("nic: datapath job freed while holding a FIFO, share or staging slot")
	}
	j.c, j.p, j.stage = nil, nil, stFree
	j.next, n.jobFree = n.jobFree, j
	n.jobsOut--
}

// JobsOutstanding returns the job records currently held by engine events or
// tenant DRR rings. It is zero whenever the engine has drained: every frame
// was delivered or dropped under a typed counter, and its record came back.
func (n *NIC) JobsOutstanding() int { return n.jobsOut }

// arm schedules j to resume at st when the engine reaches at.
func (j *job) arm(st stage, at sim.Time) {
	j.stage, j.armed = st, true
	j.n.eng.AtHandler(at, j)
}

// Fire implements sim.Handler: run the step j was waiting for, then settle.
func (j *job) Fire() {
	n := j.n
	j.armed = false
	switch j.stage {
	case stRxWire:
		n.rxFrame(j)
	case stRxStore:
		n.rxStore(j)
	case stRxVisible:
		n.rxComplete(j)
	case stRxSlow:
		n.punt(j)
	case stTxPaced:
		j.c.rlWaiting = false
		fallthrough
	case stTxDrain:
		n.drainTx(j.c)
	case stTxArrive:
		n.txArrive(j)
	case stTxEmit:
		n.sendToWire(j)
	case stTxInject:
		n.transmit(j, n.conns[j.p.Meta.ConnID], n.eng.Now())
	case stTxWire:
		n.release(j)
		if n.OnTransmit != nil {
			n.OnTransmit(j.p, n.eng.Now())
		}
	case stPump:
		n.pump()
	default:
		panic("nic: datapath job fired in a stage no event resumes")
	}
	n.settle(j)
}

// Now implements overlay.Env: a pipeline run happens at the engine's instant.
func (j *job) Now() sim.Time { return j.n.eng.Now() }

// Mirror implements overlay.Env by feeding the capture tap.
func (j *job) Mirror(p *packet.Packet) {
	if j.n.tap != nil {
		j.n.tap.Offer(p, j.n.eng.Now())
	}
}

// Notify implements overlay.Env by appending to the owning connection's
// notification queue.
func (j *job) Notify(p *packet.Packet) {
	if j.c != nil {
		j.n.pushNotify(j.c, mem.NotifyRxReady, j.n.eng.Now())
	}
}
