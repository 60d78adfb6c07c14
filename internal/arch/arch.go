// Package arch implements the five dataplane architectures the paper
// compares, over the shared substrates (sim, timing, cache, mem, nic,
// filter, qos, sniff, kernel):
//
//   - kernelstack — the traditional in-kernel dataplane: syscalls, copies,
//     software netfilter/qdisc. Two transfers, virtual data movement.
//   - bypass — DPDK/Arrakis-style raw kernel bypass: rings + doorbells, no
//     interposition point at all.
//   - sidecar — IX/Snap-style dedicated dataplane core: interposition in
//     software on another core. Two transfers, physical data movement,
//     burns a core.
//   - hypervisor — AccelNet-style NIC switch: on-NIC flow-table policies,
//     but no process view and no way to signal processes.
//   - kopi — the paper's proposal: on-NIC interposition configured by the
//     kernel, with trusted per-connection process metadata, notification
//     queues and loadable overlay programs.
//
// Each architecture exposes the same Arch interface so the experiments can
// sweep across them; operations an architecture cannot support return
// ErrUnsupported (or filter.ErrNeedsProcessView), which is itself the E2
// result. They are two families over one base: direct (bypass, hypervisor,
// kopi: applications own NIC rings) and soft (kernelstack, sidecar:
// interposition in host software — one filter/qdisc/tap core, with only the
// application↔core crossing left to each). Whatever the host drops above the
// NIC's rings leaves through base.hostDrop and one reason table (exits.go),
// and World.Drain returns the host's conservation law with the NIC's.
package arch

import (
	"errors"

	"norman/internal/filter"
	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// ErrUnsupported marks an administrative capability an architecture cannot
// provide at any price — the paper's manageability gap.
var ErrUnsupported = errors.New("arch: operation unsupported by this architecture")

// ControlPlaneCrasher is the optional crash-recovery surface (internal/
// recovery, E10). CrashControlPlane models the control plane dying: its
// in-memory policy state (filter chains, qdisc bindings) is wiped the way a
// process crash wipes a heap. What happens to the *dataplane* is the
// architectural contrast — on ring architectures the NIC keeps forwarding
// with the last-installed policies; on the kernel stack the control plane
// IS the dataplane, so traffic stops until restart. RestartControlPlane
// only revives the (now amnesiac) control plane; rebuilding its state is
// the reconciler's job.
type ControlPlaneCrasher interface {
	CrashControlPlane()
	RestartControlPlane()
	ControlPlaneDown() bool
}

// RxMode selects how the owning application learns about arrivals.
type RxMode uint8

// Receive modes.
const (
	RxPoll  RxMode = iota // spin on the ring (burns the core)
	RxBlock               // sleep; the kernel wakes the thread (needs arrival visibility)
)

func (m RxMode) String() string {
	if m == RxBlock {
		return "block"
	}
	return "poll"
}

// Caps describes what an architecture's interposition point can do; E2
// renders these (verified behaviorally, not just declared) as the paper's
// scenario matrix.
type Caps struct {
	OwnerFiltering     bool // iptables --uid-owner/--cmd-owner
	GlobalCapture      bool // tcpdump over all applications
	CaptureAttribution bool // captures carry pid/uid/cmd
	ProcessQoS         bool // per-process/user shaping (WFQ by uid)
	FlowQoS            bool // 5-tuple shaping only
	BlockingIO         bool // apps can sleep until arrival
	ARPVisibility      bool // kernel ARP cache sees dataplane ARP
	Transfers          int  // per-packet data transfers app->NIC
	BurnsCore          bool // a core is dedicated to the dataplane
}

// Conn is an application connection handle on some architecture.
type Conn struct {
	Info *kernel.ConnInfo
	NC   *nic.Conn // direct NIC rings, nil when the kernel owns the datapath
	Mode RxMode

	// Delivered counts packets handed to the application.
	Delivered uint64
	// LastDeliver is the virtual time of the most recent delivery.
	LastDeliver sim.Time
	// Deliver, when set, receives this connection's packets instead of the
	// architecture-wide DeliverFunc (host.Mux.Handle sets it). It lives and
	// dies with the handle: nothing keyed by connection id outlives Close.
	// Like every DeliverFunc it borrows the packet for the call only.
	Deliver DeliverFunc

	// core is the app core of the owning process, resolved once when the
	// connection is registered: World.Core is a create-on-miss map lookup and
	// the per-frame paths read it from here.
	core *sim.Server
}

// DeliverFunc is the application-receive upcall. It runs after all
// architecture-side receive costs have been charged. It borrows p for the
// duration of the call: the packet's journey ends when the upcall returns and
// the world recycles its frame, so a handler that keeps p — or schedules work
// that reads it later — keeps a Clone, as sniff.Tap does.
type DeliverFunc func(c *Conn, p *packet.Packet, at sim.Time)

// Arch is the uniform surface the experiments drive.
type Arch interface {
	Name() string
	Caps() Caps
	World() *World

	// Connect opens a connection for proc with the given local->remote
	// flow, allocating whatever the dataplane needs (§4.3).
	Connect(proc *kernel.Process, flow packet.FlowKey) (*Conn, error)
	// Close releases the connection.
	Close(c *Conn) error
	// Send transmits one packet on the connection, charging the full
	// architecture-specific TX path.
	Send(c *Conn, p *packet.Packet)
	// SendBatch transmits a burst, amortizing whatever the architecture
	// can amortize (one doorbell per burst on ring dataplanes, one
	// sendmmsg-style syscall on the kernel stack).
	SendBatch(c *Conn, pkts []*packet.Packet)
	// SetDeliver installs the application receive upcall.
	SetDeliver(fn DeliverFunc)
	// SetRxMode selects poll or block delivery; RxBlock fails where the
	// kernel cannot see arrivals.
	SetRxMode(c *Conn, mode RxMode) error

	// DeliverWire injects a frame arriving from the network.
	DeliverWire(p *packet.Packet)

	// InstallRule adds a firewall rule at the architecture's interposition
	// point, if it has one.
	InstallRule(h filter.Hook, r *filter.Rule) error
	// FlushRules removes all firewall rules.
	FlushRules() error
	// RuleHits returns how many packets matched the idx'th rule of a hook
	// (the `iptables -L -v` column); ok is false where the architecture
	// keeps no such state.
	RuleHits(h filter.Hook, idx int) (uint64, bool)
	// SetQdisc installs an egress scheduler with a classifier at the
	// interposition point.
	SetQdisc(q qos.Qdisc, classify func(*packet.Packet) uint32) error
	// AttachTap installs a capture tap with a filter expression.
	AttachTap(e *sniff.Expr) (*sniff.Tap, error)

	// Ping sends one kernel-originated ICMP echo to dst and reports the
	// round trip. It requires an architecture whose kernel can both send
	// management frames and *see the reply* — under raw bypass and the
	// hypervisor switch the reply lands in no one's queue, so Ping returns
	// ErrUnsupported (the admin's oldest tool, gone).
	Ping(dst packet.IPv4, payload int, done func(rtt sim.Duration, ok bool)) error
}
