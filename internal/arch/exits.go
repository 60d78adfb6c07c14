package arch

import (
	"fmt"

	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/telemetry"
)

// This file is the host's one way out above the NIC's rings (DESIGN.md §8,
// "leaving the datapath"), shaped like internal/nic/ledger.go: a packet the
// host gives up on ends in hostDrop, and nothing else in the package moves a
// host drop counter (scripts/check.sh greps for it).

// HostReason is why the host dropped a packet above the ring.
type HostReason uint8

// Host drop reasons: the way down first, the way up last (Tx relies on it).
const (
	HostTxRing HostReason = iota
	HostTxFilter
	HostTxQdisc
	HostTxOutage
	HostRxOutage
	HostRxFilter
	HostRxNoSocket
	HostRxAppRing
	NumHostReasons // for r := HostReason(0); r < NumHostReasons; r++
)

// hostReasons has one row per reason: the reason= of host/drop spans and of
// norman_host_drops, and the meaning OBSERVABILITY.md documents. The metric
// rows, the law and TestHostExits are derived from it; a new reason is one
// row here plus its hostDrop call.
var hostReasons = [NumHostReasons]struct{ name, help string }{
	HostTxRing:     {"tx_ring", "descriptor ring full on the way down: an application's TX ring, the app-to-sidecar ring or the kernel's NIC queue"},
	HostTxFilter:   {"tx_filter", "dropped by a software OUTPUT-chain verdict"},
	HostTxQdisc:    {"tx_qdisc", "refused by the software qdisc at enqueue (full, or larger than a tbf burst), or still queued in one that was replaced"},
	HostTxOutage:   {"tx_outage", "sent, or still queued, while the kernel stack's control plane (which is its dataplane) was down"},
	HostRxOutage:   {"rx_outage", "popped from a kernel queue while the kernel stack was down"},
	HostRxFilter:   {"rx_filter", "dropped by a software INPUT-chain verdict"},
	HostRxNoSocket: {"rx_nosocket", "no socket owns the flow"},
	HostRxAppRing:  {"rx_appring", "sidecar-to-application ring full"},
}

// String is the reason= an operator sees.
func (r HostReason) String() string { return hostReasons[r].name }

// Help is the one-line meaning OBSERVABILITY.md documents for the reason.
func (r HostReason) Help() string { return hostReasons[r].help }

// Tx reports whether r is a reason on the way down.
func (r HostReason) Tx() bool { return r < HostRxOutage }

// hostCtr is where r's count is stored.
func (b *base) hostCtr(r HostReason) *uint64 {
	if r == HostTxRing {
		return &b.TxAppDrops
	}
	return &b.drops[r]
}

// hostDropped returns the packets the host dropped under r.
func (b *base) hostDropped(r HostReason) uint64 { return *b.hostCtr(r) }

// hostDrop ends p above the ring under reason r: count it and close its
// journey — opened here if nothing had stamped p yet — with one host/drop
// span. conn is the owning socket, 0 when none is known. The frame goes back
// to the world's free list; the caller returns without passing p on.
func (b *base) hostDrop(p *packet.Packet, conn uint64, r HostReason) {
	*b.hostCtr(r)++
	if b.w.Tracer != nil {
		b.traceStamp(p)
		b.trace(p, b.w.Eng.Now(), "host", "drop", fmt.Sprintf("reason=%s conn=%d", r, conn))
	}
	b.w.Frames.Recycle(p)
}

// hostDropQueued counts what q still holds under r when q is discarded. The
// Qdisc interface cannot hand the packets back, so these leave without a span.
func (b *base) hostDropQueued(q qos.Qdisc, r HostReason) {
	if q != nil {
		*b.hostCtr(r) += uint64(q.Len())
	}
}

// hostTerms are the non-drop terms of the host's two conservation laws,
// exported as norman_host_ledger_<name> so an operator can redo the sum:
//
//	down: sent   = handed    + qdisc_backlog + Σ tx reasons
//	up:   popped = delivered + absorbed      + Σ rx reasons
//
// They hold on a drained engine; while events are pending the difference is
// what is in flight between two of the counters.
var hostTerms = []struct {
	name, help string
	read       func(*base) uint64
}{
	{"sent", "packets applications handed to Send or SendBatch", func(b *base) uint64 { return b.sent }},
	{"handed", "packets pushed into a NIC TX ring", func(b *base) uint64 { return b.handed }},
	{"qdisc_backlog", "packets waiting in the software qdisc", (*base).backlog},
	{"popped", "frames popped from NIC RX rings", func(b *base) uint64 { return b.popped }},
	{"delivered", "packets upcalled into applications", func(b *base) uint64 { return b.delivered }},
	{"absorbed", "frames the host consumed itself: ARP and echo requests it answered, ping replies", func(b *base) uint64 { return b.absorbed }},
}

// HostLedgerSeries names every norman_ series of the host ledger: what
// nnetstat -ledger filters the dump for, after the NIC's.
func HostLedgerSeries() []string {
	s := []string{"host_drops"}
	for _, term := range hostTerms {
		s = append(s, "host_ledger_"+term.name)
	}
	return s
}

// backlog is what the software qdisc holds.
func (b *base) backlog() uint64 {
	if b.sched == nil {
		return 0
	}
	return uint64(b.sched.Len())
}

// balance states the host's conservation law on a drained engine: every
// packet an application sent reached a NIC TX ring, waits in the software
// qdisc or was dropped under exactly one tx reason, and every frame popped
// from an RX ring was delivered, absorbed or dropped under one rx reason.
// On a drained engine nothing may wait in the qdisc (the idle law): no event
// is left that would ever move it.
func (b *base) balance() error {
	var rx, tx uint64
	for r := HostReason(0); r < NumHostReasons; r++ {
		if r.Tx() {
			tx += b.hostDropped(r)
		} else {
			rx += b.hostDropped(r)
		}
	}
	down := int64(b.sent) - int64(b.handed+b.backlog()+tx)
	up := int64(b.popped) - int64(b.delivered+b.absorbed+rx)
	if down != 0 || up != 0 {
		return fmt.Errorf("arch: host ledger residual down=%d up=%d (sent=%d handed=%d qdisc_backlog=%d tx_drops=%d; popped=%d delivered=%d absorbed=%d rx_drops=%d)",
			down, up, b.sent, b.handed, b.backlog(), tx, b.popped, b.delivered, b.absorbed, rx)
	}
	if q := b.backlog(); q != 0 {
		return fmt.Errorf("arch: drained engine leaves %d packets in the software qdisc", q)
	}
	return nil
}

// registerMetrics exports one norman_host_drops series per reason and the
// law's terms.
func (b *base) registerMetrics(reg *telemetry.Registry, labels telemetry.Labels) {
	byReason := telemetry.Labels{}
	for k, v := range labels {
		byReason[k] = v
	}
	for r := HostReason(0); r < NumHostReasons; r++ {
		byReason["reason"] = r.String()
		ctr := b.hostCtr(r)
		reg.Counter(telemetry.Desc{Layer: "host", Name: "drops", Help: "packets the host dropped above the NIC's rings, one series per reason", Unit: "packets"},
			byReason, func() uint64 { return *ctr })
	}
	for _, t := range hostTerms {
		read := t.read
		reg.Gauge(telemetry.Desc{Layer: "host", Name: "ledger_" + t.name, Help: t.help, Unit: "packets"},
			labels, func() float64 { return float64(read(b)) })
	}
}
