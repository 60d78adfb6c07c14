package nic

import (
	"fmt"

	"norman/internal/mem"
)

// This file is the one way out of the NIC datapath (DESIGN.md §8, "leaving
// the datapath"): a frame ends in drop, rxComplete or punt, and all three
// funnel into release. Nothing else in the package bumps a drop counter
// (scripts/check.sh greps for it) or frees a FIFO, share or staging slot.

// Reason is why a frame left the datapath without reaching a ring or the wire.
type Reason uint8

// Drop reasons: ingress first, egress last (Reason.Tx relies on the order).
const (
	RxLink Reason = iota
	RxPause
	RxFifo
	RxShed
	RxOutage
	RxVerdict
	RxNoSteer
	RxRing
	TxOutage
	TxVerdict
	NumReasons // the number of reasons: for r := Reason(0); r < NumReasons; r++
)

// reasons has one row per drop class: the reason= of drop spans and
// norman_nic_tenant_drops, the counter's metric name and help, and the
// exported field that stores the count. RxDropped, the metric rows, the tenant
// attribution, Balance and the exit test are derived from it; a new class is
// one row here plus its drop call.
var reasons = [NumReasons]struct {
	name, metric, help string
	ctr                func(*NIC) *uint64
}{
	RxLink:    {"link", "rx_link_drop", "ingress frames lost while the physical link was down", func(n *NIC) *uint64 { return &n.RxLinkDrop }},
	RxPause:   {"pause", "rx_pause_drop", "ingress frames dropped because the bounded cutover pause buffer overflowed", func(n *NIC) *uint64 { return &n.RxPauseDrop }},
	RxFifo:    {"fifo", "rx_fifo_drop", "frames dropped at the MAC FIFO under DMA backpressure", func(n *NIC) *uint64 { return &n.RxFifoDrop }},
	RxShed:    {"shed", "rx_shed", "ingress frames deliberately dropped by the priority-aware shed policy", func(n *NIC) *uint64 { return &n.RxShed }},
	RxOutage:  {"outage", "rx_outage_drop", "frames dropped while the dataplane was faulted down", func(n *NIC) *uint64 { return &n.RxOutageDrop }},
	RxVerdict: {"verdict", "rx_drop_verdict", "frames dropped by an ingress overlay verdict", func(n *NIC) *uint64 { return &n.RxDropVerdict }},
	RxNoSteer: {"nosteer", "rx_drop_nosteer", "frames dropped for lack of a steering rule (no default conn)", func(n *NIC) *uint64 { return &n.RxDropNoSteer }},
	RxRing:    {"ring", "rx_drop_ring", "frames dropped because the destination RX ring was full", func(n *NIC) *uint64 { return &n.RxDropRing }},
	TxOutage:  {"tx_outage", "tx_outage_drop", "egress frames lost to a bitstream-reload outage", func(n *NIC) *uint64 { return &n.TxOutageDrop }},
	TxVerdict: {"tx_verdict", "tx_drop_verdict", "frames dropped by an egress overlay verdict", func(n *NIC) *uint64 { return &n.TxDropVerdict }},
}

// String is the reason= an operator sees.
func (r Reason) String() string { return reasons[r].name }

// Tx reports whether r is an egress reason.
func (r Reason) Tx() bool { return r >= TxOutage }

// Metric is the reason's counter series, norman_nic_<Metric>.
func (r Reason) Metric() string { return reasons[r].metric }

// Help is the one-line meaning OBSERVABILITY.md documents for the series.
func (r Reason) Help() string { return reasons[r].help }

// Dropped returns the frames dropped under r.
func (n *NIC) Dropped(r Reason) uint64 { return *reasons[r].ctr(n) }

// RxDropped sums every ingress reason: the rx_drops an operator sees.
func (n *NIC) RxDropped() uint64 { return n.dropped(false) }

func (n *NIC) dropped(tx bool) (sum uint64) {
	for r := Reason(0); r < NumReasons; r++ {
		if r.Tx() == tx {
			sum += n.Dropped(r)
		}
	}
	return sum
}

// What a job holds of the NIC's bounded resources. Each bit is set where the
// resource is taken and cleared only by release.
const (
	heldFifo   uint8 = 1 << iota // a slot of the ingress FIFO: rxInflight and the share row job.share
	heldTxSlot                   // a slot of the tx staging buffer (txInflight)
)

// txAccept puts one more frame on the tx side of the ledger.
func (n *NIC) txAccept() {
	n.txAccepted++
	n.txAhead++
}

// txRefuse takes k accepted frames back off it under the qdisc-refused term.
func (n *NIC) txRefuse(k int) {
	n.txRefused += uint64(k)
	n.txAhead -= k
}

// release returns everything j holds. A stalled tx queue resumes inside it,
// at the instant the staging slot frees.
func (n *NIC) release(j *job) {
	h := j.held
	j.held = 0
	if h&heldFifo != 0 {
		n.rxInflight--
		j.share.inflight--
		j.share = nil
	}
	if h&heldTxSlot != 0 {
		n.txSlotFree()
	}
}

// txSlotFree releases one staging-buffer slot and resumes a stalled queue.
// The stall queue pops by copy+truncate so the backing array is reused and
// never retains pointers to connections already resumed.
func (n *NIC) txSlotFree() {
	n.txInflight--
	for len(n.txStalled) > 0 {
		c := n.txStalled[0]
		last := len(n.txStalled) - 1
		copy(n.txStalled, n.txStalled[1:])
		n.txStalled[last] = nil
		n.txStalled = n.txStalled[:last]
		c.txStalled = false
		if c.txDraining {
			n.drainTx(c)
			return
		}
	}
}

// drop ends j's frame under reason r: count it, charge it to the frame's row
// of the share table, trace it, release what the job held. The caller returns
// without arming j.
func (n *NIC) drop(j *job, r Reason) {
	*reasons[r].ctr(n)++
	if r.Tx() {
		n.txAhead--
	}
	p := j.p
	n.tsched.share(p.Meta.Tenant).drops[r]++
	if n.tracer != nil && p.Meta.Trace != 0 {
		conn := uint64(0)
		if j.c != nil {
			conn = j.c.ID
		}
		n.trace(p, n.eng.Now(), "nic", "drop", fmt.Sprintf("reason=%s conn=%d tenant=%d", r, conn, p.Meta.Tenant))
	}
	n.release(j)
}

// rxComplete finishes an RX DMA: the descriptor completion is host-visible,
// so the frame either lands in the ring or becomes a counted ring drop. The
// FIFO slot frees before the push, as the hardware's does.
func (n *NIC) rxComplete(j *job) {
	c, p, now := j.c, j.p, n.eng.Now()
	n.release(j)
	if err := c.RX.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
		c.RxDropped++
		n.drop(j, RxRing)
		return
	}
	c.RxDelivered++
	n.rxDelivered++
	if n.tracer != nil {
		n.trace(p, now, "ring", "rx_enqueue", fmt.Sprintf("conn=%d slot=%d", c.ID, j.index))
	}
	if c.NotifyRx {
		n.pushNotify(c, mem.NotifyRxReady, now)
	}
	if n.OnRxDeliver != nil {
		n.OnRxDeliver(c, now)
	}
}

// punt hands an unsteered frame that has left the pipeline to the software
// slow path. rxPunted, not RxSlowPath, is the ledger's term: RxSlowPath moves
// when the punt is armed, and for outage frames that are also outage drops.
func (n *NIC) punt(j *job) {
	n.release(j)
	n.rxPunted++
	n.SlowPath(j.p, n.eng.Now())
}

// ledgerTerms are the non-drop terms of the two conservation laws, exported
// as norman_nic_ledger_<name> gauges so an operator can redo the sum:
//
//	rx: RxWire     = delivered + punted + paused + rx_inflight + Σ rx reasons
//	tx: tx_accepted = TxFrames + qdisc_refused + tx_ahead      + Σ tx reasons
var ledgerTerms = []struct {
	name, help string
	read       func(*NIC) uint64
}{
	{"rx_delivered", "frames DMA'd into an RX ring", func(n *NIC) uint64 { return n.rxDelivered }},
	{"rx_punted", "unsteered frames handed to the software slow path", func(n *NIC) uint64 { return n.rxPunted }},
	{"rx_paused", "frames waiting in the cutover pause buffer", func(n *NIC) uint64 { return uint64(len(n.rxPauseBuf)) }},
	{"rx_inflight", "frames holding an ingress FIFO slot (pipeline, DMA)", func(n *NIC) uint64 { return uint64(n.rxInflight) }},
	{"tx_accepted", "frames taken for transmit: fetched descriptors and control-plane injects", func(n *NIC) uint64 { return n.txAccepted }},
	{"tx_qdisc_refused", "frames the egress qdisc refused at enqueue (its own per-class bound)", func(n *NIC) uint64 { return n.txRefused }},
	{"tx_ahead", "accepted frames not yet on the wire: in the egress pipeline or queued in the qdisc", func(n *NIC) uint64 { return uint64(n.txAhead) }},
}

// LedgerSeries names every norman_nic_ series that is a term of the two laws
// or their per-tenant breakdown: what nnetstat -ledger filters the dump for.
func LedgerSeries() []string {
	s := []string{"rx_wire", "tx_frames", "ledger_residual", "tenant_drops"}
	for _, row := range reasons {
		s = append(s, row.metric)
	}
	for _, term := range ledgerTerms {
		s = append(s, "ledger_"+term.name)
	}
	return s
}

// residuals evaluates both counter laws: 0, 0 on a NIC that has lost nothing.
func (n *NIC) residuals() (rx, tx int64) {
	rx = int64(n.RxWire) - int64(n.rxDelivered+n.rxPunted+n.dropped(false)) - int64(len(n.rxPauseBuf)+n.rxInflight)
	tx = int64(n.txAccepted) - int64(n.TxFrames+n.txRefused+n.dropped(true)) - int64(n.txAhead)
	return rx, tx
}

// Balance states the NIC's conservation law. At any instant between events
// every frame off the wire, and every frame accepted for transmit, is
// delivered, counted under exactly one Reason, punted, or in flight (the
// counter law). With no job record outstanding nothing is in flight: the
// FIFO, every tenant share, the staging buffer and the stall list are empty
// and only the qdisc's backlog is ahead of the wire (the occupancy law).
func (n *NIC) Balance() error {
	if rx, tx := n.residuals(); rx != 0 || tx != 0 {
		return fmt.Errorf("nic: ledger residual rx=%d tx=%d (rx_wire=%d tx_frames=%d rx_drops=%d tx_drops=%d)",
			rx, tx, n.RxWire, n.TxFrames, n.dropped(false), n.dropped(true))
	}
	queued, shares := 0, n.tsched.inflight()
	if n.sched != nil {
		queued = n.sched.Len()
	}
	if n.jobsOut == 0 && (n.rxInflight != 0 || shares != 0 || n.txInflight != 0 || len(n.txStalled) != 0 || n.txAhead != queued) {
		return fmt.Errorf("nic: idle datapath holds rx_inflight=%d tenant_shares=%d tx_inflight=%d stalled=%d tx_ahead=%d (qdisc backlog %d)",
			n.rxInflight, shares, n.txInflight, len(n.txStalled), n.txAhead, queued)
	}
	return nil
}
