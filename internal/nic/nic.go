// Package nic models the on-path programmable SmartNIC that Norman targets
// (§4.1): per-connection descriptor rings reached by DMA and MMIO doorbells,
// an ingress/egress pipeline with loadable overlay programs, flow steering,
// an egress scheduler (qdisc), a capture tap, notification generation, a
// bounded on-NIC SRAM budget with an optional software slow path, and a
// DDIO-aware DMA engine whose cost model reproduces the paper's
// connection-scaling cliff.
//
// The NIC is architecture-neutral: the same device backs the raw-bypass,
// hypervisor-switch and KOPI architectures — they differ only in which
// features the control plane programs, which is exactly the comparison the
// paper draws.
package nic

import (
	"errors"
	"fmt"
	"slices"

	"norman/internal/cache"
	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
	"norman/internal/telemetry"
	"norman/internal/timing"
)

// Errors.
var (
	ErrSRAMExhausted = errors.New("nic: on-NIC SRAM exhausted")
	ErrNoSuchConn    = errors.New("nic: no such connection")
)

// Config assembles a NIC over shared substrates.
type Config struct {
	Engine *sim.Engine
	Model  timing.Model
	LLC    *cache.LLC // host LLC shared with the host model; nil = no cache modeling
	Alloc  *mem.Alloc // host physical address allocator
	// Frames is the host's free list of frames: a typed drop gives the
	// frame back to it. nil leaves dropped frames to the GC.
	Frames *packet.Frames

	RingSize   int // descriptors per ring (power of two)
	SRAMBudget int // on-NIC memory budget; 0 = Model.NICSRAMBytes
}

// bufBytes is the host payload buffer behind each descriptor: one 2 KiB
// slot, enough for a standard frame.
const bufBytes = 2048

// Conn is one connection's NIC-side state: a TX and an RX ring pinned in
// host memory, the trusted metadata the kernel programmed for it (§4.3), and
// its notification configuration.
type Conn struct {
	ID   uint64
	TX   mem.Ring
	RX   mem.Ring
	Meta packet.Meta // stamped on every packet the NIC handles for this conn

	NotifyRx bool
	NotifyTx bool
	// The connection's one-bit states sit together so that they share a word.
	notifyArmed bool // a coalesced notification callback is pending
	txDraining  bool // a TX drain chain is in flight
	txStalled   bool // drain paused on the NIC TX admission window
	rlWaiting   bool // a paced drain is waiting for its token bucket
	// wide marks a connection SetDefaultConn or SetRSS named while it was
	// open: frames reach it under keys it was never steered by, so its close
	// scans the whole steering table and flow cache (steer.go).
	wide bool

	Queue *mem.NotifyQueue // owning process's notification queue
	// Host is the host side's own handle for this connection, opaque to the
	// NIC: whoever opened the connection sets it, and reads it back in
	// OnRxDeliver and OnNotify instead of looking the connection up by id.
	Host any
	// NotifyCoalesce batches notification interrupts: at most one OnNotify
	// callback per window (§4.3's interrupt moderation for low-activity
	// queues). Zero means immediate delivery.
	NotifyCoalesce sim.Duration
	lastNotifyAt   sim.Time

	bufBase uint64 // host buffer region base address: a TX half, then an RX half

	// keys are the steering keys SteerFlow ever pointed at this connection,
	// so that its close touches only those (steer.go); keyBuf holds the usual
	// one or two without an allocation of their own.
	keys   []packet.FlowKey
	keyBuf [2]packet.FlowKey

	// Per-connection egress rate limit (SENIC/PicNIC-style offload): the
	// TX drain paces descriptor fetches against a token bucket, so a
	// misbehaving sender is throttled before its traffic ever reaches the
	// shared scheduler. Nil = unlimited.
	pacer *qos.Bucket

	RxDelivered uint64
	RxDropped   uint64
	TxSent      uint64
}

// bufAddr maps a descriptor index to its payload buffer address. The region
// is split into a TX half and an RX half, each with ringSize slots of
// bufBytes each.
func (c *Conn) bufAddr(index uint64, rx bool, ringSize int) uint64 {
	off := (index % uint64(ringSize)) * uint64(bufBytes)
	if rx {
		off += uint64(ringSize) * uint64(bufBytes)
	}
	return c.bufBase + off
}

// NIC is the simulated SmartNIC.
type NIC struct {
	eng *sim.Engine
	// model is the NIC's own copy of the cost model, taken at New and never
	// written again: the price list below remembers what it computed from it.
	model  timing.Model
	llc    *cache.LLC
	alloc  *mem.Alloc
	frames *packet.Frames

	ringSize int

	// The price list (price.go): per-frame-length and per-cycle-count costs,
	// each filled by the model's own formula the first time it is asked for.
	prices      [priceRows + 1]framePrice
	cyclePrices [pricedCycles]sim.Duration

	// Resource servers.
	dma    *sim.Server // PCIe DMA engine
	wireTx *sim.Server // egress serialization
	wireRx *sim.Server // ingress serialization
	// The pipeline is fully pipelined: programs add latency, not occupancy;
	// occupancy is set by the internal datapath width.
	pipeline *sim.Server

	conns       map[uint64]*Conn
	steering    map[packet.FlowKey]steerRow // canonical flow -> open connections (steer.go)
	defaultConn uint64                      // conn id for unsteered traffic, 0 = none

	// RSS fallback steering (rss.go).
	rss       *rssTable // the key's hash table, set with the queues
	rssQueues []uint64

	// TX admission window: descriptors fetched from host rings but not yet
	// handed to the scheduler (or, with no scheduler, not yet transmitted).
	// A real NIC has a few KB of staging buffer, not an infinite FIFO; this
	// bound is what propagates wire backpressure into the host rings.
	txInflight int
	txWindow   int
	// txStalled[txStallHead:] are the queues waiting for a slot, oldest
	// first (ledger.go).
	txStalled   []*Conn
	txStallHead int

	// The conservation ledger's private terms (ledger.go).
	txAccepted, txRefused uint64
	txAhead               int
	rxDelivered, rxPunted uint64

	// RX ingress FIFO: frames in flight between the wire and their DMA
	// completion. When the DMA engine stalls (cold descriptors, DDIO
	// exhaustion) the FIFO overflows and the NIC drops on the floor, as
	// real MACs do — RxFifoDrop is the E3 cliff made visible.
	rxInflight int
	rxWindow   int

	ingress *overlay.Machine
	egress  *overlay.Machine

	// fc, when non-nil, is the exact-match flow cache in front of the
	// ingress pipeline (flowcache.go): established flows skip overlay
	// interpretation at single-lookup cost. ingressCacheable is recomputed
	// on every ingress program change — only flow-invariant programs are
	// memoized.
	fc               *FlowCache
	ingressCacheable bool
	// fcBypass, when set, disables flow-cache lookups and installs without
	// releasing the cache's SRAM: the health monitor's quarantine posture for
	// a cache serving corrupted entries. Every packet takes the slow path
	// until probation re-enables it.
	fcBypass bool

	// linkUp models the physical link state. A down link drops ingress frames
	// at the MAC (counted in RxLinkDrop); the fault layer flaps it and the
	// health monitor watches it.
	linkUp bool

	// lastGood remembers, per pipeline, the previously installed program —
	// the chain that was demonstrably processing traffic before the latest
	// online reload (§4.4). When the current program traps at runtime, the
	// NIC degrades by reinstalling a chain from here instead of wedging.
	lastGood [2]*overlay.Program

	// staged is the shadow pipeline generation (generation.go): a verified
	// overlay chain pair charged against the SRAM budget but not yet deciding
	// packets. prevGen retains the pre-flip pair from activation until the
	// canary commits or rolls back; generation counts epoch flips.
	staged     *pipelineGen
	prevGen    *pipelineGen
	generation uint64

	// rxPaused gates ingress admission during a generation cutover: frames
	// buffer in arrival order up to rxPauseCap and replay on resume; overflow
	// is the typed RxPauseDrop class, never silent loss.
	rxPaused   bool
	rxPauseCap int
	rxPauseBuf []*packet.Packet

	sched      qos.Qdisc // egress scheduler; nil = pure FIFO via wire server
	schedPump  bool
	classifier func(*packet.Packet) uint32 // egress class assignment; nil = Meta.Class as-is

	// tsched is the service discipline (tenant.go): the pipeline and DMA
	// stages every frame is submitted to and the ingress FIFO's share table —
	// plain FIFO until SetTenantScheduler installs weights, weighted DRR and
	// per-tenant shares after. Never nil.
	tsched *TenantSched

	// shedPolicy, when non-nil, is consulted for every steerable ingress
	// frame before it consumes FIFO or DMA resources; returning true sheds
	// the frame (counted in RxShed). The overload governor installs a
	// priority-aware policy here so low-QoS-class ingress is dropped first
	// under sustained pressure, before it can thrash the DDIO ways.
	shedPolicy func(c *Conn, p *packet.Packet) bool

	tap *sniff.Tap

	// jobFree is the intrusive free list of datapath job records (job.go);
	// jobsOut counts the records currently held by an event or a DRR ring.
	jobFree *job
	jobsOut int

	// tracer, when non-nil, receives packet-lifecycle span events from
	// every NIC interposition point (ring dequeue, pipeline verdicts, trap
	// fallbacks, wire TX, RX DMA). Nil keeps the hot path branch-only.
	tracer *telemetry.Tracer

	sramBudget int
	sramUsed   int

	// Bitstream reconfiguration outage (§4.4): until this instant the
	// dataplane is down and traffic is dropped or punted.
	outageUntil sim.Time

	// OnTransmit receives frames leaving on the wire.
	OnTransmit func(p *packet.Packet, at sim.Time)
	// OnRxDeliver fires when a packet has been DMA'd into a connection's RX
	// ring and is visible to the host.
	OnRxDeliver func(c *Conn, at sim.Time)
	// SlowPath, when non-nil, receives packets the NIC cannot handle
	// (unsteered traffic, SRAM overflow flows, outage traffic). Nil means
	// such packets are dropped.
	SlowPath func(p *packet.Packet, at sim.Time)
	// OnNotify fires when the NIC appends to a notification queue (the
	// kernel's cue to wake a blocked thread, §4.3).
	OnNotify func(c *Conn, kind mem.NotifyKind, at sim.Time)

	// Counters. The drop counters are the storage of the reason table in
	// ledger.go, which says what each one means and is the only code that
	// increments them.
	RxWire        uint64 // frames that arrived from the wire
	RxDropNoSteer uint64
	RxDropRing    uint64
	RxDropVerdict uint64
	RxSlowPath    uint64
	RxOutageDrop  uint64
	RxFifoDrop    uint64
	RxShed        uint64
	RxLinkDrop    uint64
	RxPauseDrop   uint64
	TxDropVerdict uint64
	TxOutageDrop  uint64
	// RxPauseBuffered counts frames held (and later replayed) by the cutover
	// pause buffer.
	RxPauseBuffered uint64
	TxFrames        uint64
	TxBytes         uint64
	DMADescMiss     uint64
	DMADescHit      uint64
	// TrapFallbacks counts overlay runtime traps absorbed by falling back to
	// the last-good chain (or failing open) instead of crashing — the
	// graceful-degradation metric E9 reports.
	TrapFallbacks uint64
	// TrapFailOpens counts the double-trap terminal case: the fallback chain
	// itself trapped, so the pipeline was unloaded and the packet passed
	// unfiltered. Distinct from TrapFallbacks — failing open is not a
	// fallback, and conflating them double-counts one fault.
	TrapFailOpens uint64
	// DMAStallNs accumulates injected DMA-engine stall time in nanoseconds —
	// the health monitor's latency signal for the dma component.
	DMAStallNs uint64
	// IngressProgCycles accumulates the overlay cycles the ingress pipeline
	// actually interpreted — flow-cache hits add nothing here, which is how
	// E14 shows the fast path's per-packet cost collapsing to one lookup.
	IngressProgCycles uint64
}

// Traps is the pipeline-fault signal the health monitor and the upgrade
// canary both sample: overlay traps absorbed (fallbacks) or terminal
// (fail-opens).
func (n *NIC) Traps() uint64 { return n.TrapFallbacks + n.TrapFailOpens }

// ChecksumFails is the flow-cache corruption signal the same two supervisors
// sample: entries whose checksum failed verification, 0 with no cache.
func (n *NIC) ChecksumFails() uint64 {
	if n.fc == nil {
		return 0
	}
	return n.fc.ChecksumFails
}

// New builds a NIC.
func New(cfg Config) *NIC {
	if cfg.Engine == nil {
		panic("nic: Config.Engine is required")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 512
	}
	if cfg.SRAMBudget <= 0 {
		cfg.SRAMBudget = cfg.Model.NICSRAMBytes
	}
	if cfg.Alloc == nil {
		cfg.Alloc = mem.NewAlloc()
	}
	n := &NIC{
		eng:        cfg.Engine,
		model:      cfg.Model,
		llc:        cfg.LLC,
		alloc:      cfg.Alloc,
		frames:     cfg.Frames,
		ringSize:   cfg.RingSize,
		dma:        sim.NewServer("nic.dma"),
		wireTx:     sim.NewServer("nic.wiretx"),
		wireRx:     sim.NewServer("nic.wirerx"),
		pipeline:   sim.NewServer("nic.pipeline"),
		conns:      make(map[uint64]*Conn),
		steering:   make(map[packet.FlowKey]steerRow),
		sramBudget: cfg.SRAMBudget,
		txWindow:   32,
		rxWindow:   128,
		linkUp:     true,
	}
	n.tsched = newTenantSched(n, nil)
	return n
}

// connSRAM is the on-NIC footprint of one connection: head/tail shadow
// registers for both rings plus scheduling and metadata context. The
// descriptor rings themselves are pinned *host* memory (that is the point of
// the design); only per-queue context lives on the NIC, which is what prior
// work found to be the scalability bottleneck (§5, [23,45]).
func (n *NIC) connSRAM() int {
	return 2*64 /* ring head/tail shadow + doorbell state */ + 128 /* conn context */
}

// OpenConn allocates rings and NIC state for a connection. Returns
// ErrSRAMExhausted when the budget cannot hold another connection — the
// caller (kernel control plane) then either fails the connect or arranges
// slow-path service, which experiment E5 exercises.
func (n *NIC) OpenConn(id uint64, meta packet.Meta, queue *mem.NotifyQueue) (*Conn, error) {
	if _, dup := n.conns[id]; dup {
		return nil, fmt.Errorf("nic: connection %d already open", id)
	}
	need := n.connSRAM()
	if n.sramUsed+need > n.sramBudget {
		return nil, fmt.Errorf("%w: %d conns, %d/%d bytes", ErrSRAMExhausted, len(n.conns), n.sramUsed, n.sramBudget)
	}
	ringBytes := n.ringSize * mem.DescSize
	bufRegion := n.ringSize * bufBytes
	// The record and one slot array shared by both rings are the
	// connection's only allocations.
	slots := make([]mem.Desc, 2*n.ringSize)
	c := &Conn{
		ID:      id,
		TX:      mem.MakeRing(slots[:n.ringSize:n.ringSize], n.alloc.Take(ringBytes, 4096)),
		RX:      mem.MakeRing(slots[n.ringSize:], n.alloc.Take(ringBytes, 4096)),
		Meta:    meta,
		Queue:   queue,
		bufBase: n.alloc.Take(2*bufRegion, 4096),
		wide:    id == n.defaultConn || slices.Contains(n.rssQueues, id),
	}
	c.keys = c.keyBuf[:0]
	n.conns[id] = c
	n.sramUsed += need
	return c, nil
}

// CloseConn releases a connection's NIC state, its steering entries and the
// flow-cache entries that point at it (unsteerConn says which it touches).
func (n *NIC) CloseConn(id uint64) error {
	c, ok := n.conns[id]
	if !ok {
		return ErrNoSuchConn
	}
	delete(n.conns, id)
	n.unsteerConn(c)
	n.sramUsed -= n.connSRAM()
	return nil
}

// Conn returns an open connection.
func (n *NIC) Conn(id uint64) (*Conn, bool) {
	c, ok := n.conns[id]
	return c, ok
}

// ConnCount returns the number of open connections.
func (n *NIC) ConnCount() int { return len(n.conns) }

// SetDefaultConn routes unsteered traffic to the given connection (e.g. the
// kernel-stack architecture's kernel-owned queue); 0 restores
// drop/slow-path behavior.
func (n *NIC) SetDefaultConn(id uint64) {
	n.defaultConn = id
	if c, ok := n.conns[id]; ok {
		c.wide = true
	}
}

// SetScheduler installs the egress qdisc (nil = plain FIFO at the wire). A
// qdisc that is replaced takes its backlog with it: the frames are counted
// under tx_qdisc_refused (count only — the Qdisc interface cannot hand them
// back for a span) and leave tx_ahead, as the host's replaced qdisc does.
func (n *NIC) SetScheduler(q qos.Qdisc) {
	if old := n.sched; old != nil && old != q {
		n.txRefuse(old.Len())
	}
	n.sched = q
}

// Scheduler returns the installed egress qdisc.
func (n *NIC) Scheduler() qos.Qdisc { return n.sched }

// SetClassifier installs the egress class assignment function used before
// the scheduler (the kernel compiles tc filters down to this).
func (n *NIC) SetClassifier(f func(*packet.Packet) uint32) { n.classifier = f }

// SetTap installs the capture tap fed by overlay mirror instructions and —
// when promiscuous — by every frame the pipeline sees.
func (n *NIC) SetTap(t *sniff.Tap) { n.tap = t }

// SetTracer installs (or, with nil, removes) the packet-lifecycle tracer
// the datapath records span events into.
func (n *NIC) SetTracer(t *telemetry.Tracer) { n.tracer = t }

// trace records one span event when tracing is enabled; a nil tracer or an
// unstamped packet costs exactly one branch.
func (n *NIC) trace(p *packet.Packet, at sim.Time, layer, point, note string) {
	if n.tracer == nil || p.Meta.Trace == 0 {
		return
	}
	n.tracer.Record(p.Meta.Trace, at, layer, point, note)
}

// SRAM returns used and budget bytes, including loaded programs.
func (n *NIC) SRAM() (used, budget int) {
	return n.sramUsed + genSRAM(n.program(Ingress), n.program(Egress)), n.sramBudget
}

// SetConnRate installs (or clears, with rate<=0) a per-connection egress
// rate limit in bytes/second with the given burst, starting full. A frame
// larger than the burst leaves from a full bucket and leaves it in debt.
// Programmed by the control plane through configuration registers (§4.4).
func (n *NIC) SetConnRate(id uint64, rate, burst float64) error {
	c, ok := n.conns[id]
	if !ok {
		return ErrNoSuchConn
	}
	c.pacer = nil
	if rate > 0 {
		c.pacer = qos.NewBucket(rate, burst)
	}
	return nil
}

// BufAddr exposes a connection's payload buffer address for a descriptor
// index so the host side can charge its own cache touches against the same
// lines the DMA engine uses.
func (n *NIC) BufAddr(c *Conn, index uint64, rx bool) uint64 {
	return c.bufAddr(index, rx, n.ringSize)
}

// Down reports whether the dataplane is inside a bitstream-reload outage.
func (n *NIC) Down(now sim.Time) bool { return now.Before(n.outageUntil) }

// RxWindow returns the ingress FIFO depth (frames in flight between the
// wire and DMA completion before the MAC drops on the floor).
func (n *NIC) RxWindow() int { return n.rxWindow }

// SetRxWindow resizes the ingress FIFO depth. The fault-injection layer uses
// it to model transient ring-overflow pressure (a misbehaving bus master or
// PCIe credit stall shrinking effective buffering); values < 1 clamp to 1.
// The share table's rows are fractions of this depth and follow it.
func (n *NIC) SetRxWindow(depth int) {
	n.rxWindow = max(depth, 1)
	n.tsched.resize()
}

// RxInflight returns the current ingress FIFO occupancy (frames between the
// wire and DMA completion).
func (n *NIC) RxInflight() int { return n.rxInflight }

// RingSize returns the per-connection descriptor ring depth.
func (n *NIC) RingSize() int { return n.ringSize }

// SetShedPolicy installs (or, with nil, removes) the ingress shed policy.
// The policy runs after steering resolves a destination connection and
// before the frame consumes FIFO or DMA resources; returning true drops the
// frame and counts it in RxShed. Nil keeps the hot path a single branch.
func (n *NIC) SetShedPolicy(f func(c *Conn, p *packet.Packet) bool) { n.shedPolicy = f }

// Shedding reports whether an ingress shed policy is installed.
func (n *NIC) Shedding() bool { return n.shedPolicy != nil }

// SetLink raises or lowers the physical link. While down, ingress frames are
// dropped at the MAC and counted in RxLinkDrop; egress is unaffected (the
// wire server still serializes, modeling a local fault, not a cut cable).
func (n *NIC) SetLink(up bool) { n.linkUp = up }

// LinkUp reports the physical link state.
func (n *NIC) LinkUp() bool { return n.linkUp }

// StallDMA occupies the DMA engine for the given duration starting now —
// a wedged PCIe credit exchange or a firmware hiccup. Every descriptor fetch
// and payload DMA queued behind it waits it out; the stall time accumulates
// in DMAStallNs for the health monitor to see.
func (n *NIC) StallDMA(d sim.Duration) {
	if d <= 0 {
		return
	}
	n.dma.Acquire(n.eng.Now(), d)
	n.DMAStallNs += uint64(d / sim.Nanosecond)
}

// SetFlowCacheBypass quarantines (true) or restores (false) the flow cache
// without releasing its SRAM: lookups and installs stop, every packet runs
// the full ingress chain. Entering bypass flushes the cache so nothing
// memoized under the corrupted SRAM survives restoration.
func (n *NIC) SetFlowCacheBypass(on bool) {
	if on && !n.fcBypass {
		n.fcFlush()
	}
	n.fcBypass = on
}

// FlowCacheBypassed reports whether the flow cache is quarantined.
func (n *NIC) FlowCacheBypassed() bool { return n.fcBypass }

// ReinstallLastGood swaps the given pipeline back to its last-good program —
// the health monitor's quarantine action for a trap-storming chain. Returns
// false when there is no last-good chain or it is already the one installed.
func (n *NIC) ReinstallLastGood(dir Direction) bool {
	prev := n.lastGood[dir]
	if prev == nil || n.program(dir) == prev {
		return false
	}
	n.install(dir, prev)
	return true
}

// RxOccupancy aggregates RX-ring pressure across every open connection:
// total occupied and total capacity in descriptors, plus how many rings sit
// at or above their high watermark. Sums and counts are order-independent,
// so iterating the conn map directly stays deterministic.
func (n *NIC) RxOccupancy() (used, capacity, overHigh int) {
	for _, c := range n.conns {
		used += c.RX.Len()
		capacity += c.RX.Cap()
		if c.RX.AboveHigh() {
			overHigh++
		}
	}
	return used, capacity, overHigh
}
