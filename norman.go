// Package norman is the public API of the Norman reproduction: a simulated
// operating system implementing Kernel On-Path Interposition (KOPI) as
// proposed in "We Need Kernel Interposition over the Network Dataplane"
// (HotOS '21), together with the four competing dataplane architectures the
// paper argues against.
//
// A System is one simulated host: users, processes, a kernel control plane,
// a 100 Gbps on-path SmartNIC, and a wire whose far end you script. All time
// is virtual (picosecond-resolution discrete-event simulation), so results
// are deterministic and independent of the Go runtime.
//
// Quick start:
//
//	sys := norman.New(norman.KOPI)
//	sys.UseEchoPeer()
//	alice := sys.AddUser(1000, "alice")
//	app := sys.Spawn(alice, "myapp")
//	conn, _ := sys.Dial(app, 40000, 7)
//	conn.OnReceive(func(p norman.Delivery) { ... })
//	conn.Send(512)
//	sys.Run()
//
// Administrative interposition — the paper's subject — is exposed through
// the same verbs an admin would use: IPTables (owner-aware filtering), TC
// (qdiscs/shaping), Tcpdump (attributed capture), Netstat and ARP views.
// Which of these work, and how well, depends on the architecture you chose;
// that difference is the reproduction's point.
package norman

import (
	"fmt"
	"maps"

	"norman/internal/arch"
	"norman/internal/health"
	"norman/internal/host"
	"norman/internal/kernel"
	"norman/internal/overload"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/recovery"
	"norman/internal/sim"
	"norman/internal/telemetry"
	"norman/internal/timing"
	"norman/internal/upgrade"
)

// Architecture selects the dataplane design a System simulates.
type Architecture string

// The five architectures of the comparison (§1 of the paper).
const (
	KernelStack Architecture = "kernelstack" // traditional in-kernel dataplane
	Bypass      Architecture = "bypass"      // DPDK/Arrakis-style raw kernel bypass
	Sidecar     Architecture = "sidecar"     // IX/Snap-style dedicated dataplane core
	Hypervisor  Architecture = "hypervisor"  // AccelNet-style NIC switch, no process view
	KOPI        Architecture = "kopi"        // the paper's proposal: Norman
)

// Architectures lists all five in canonical comparison order.
func Architectures() []Architecture {
	out := make([]Architecture, 0, 5)
	for _, n := range arch.Names() {
		out = append(out, Architecture(n))
	}
	return out
}

// Option customizes System construction.
type Option func(*config)

type config struct {
	world arch.WorldConfig
}

// WithModel overrides the cost model.
func WithModel(m timing.Model) Option {
	return func(c *config) { c.world.Model = m }
}

// WithRingSize sets per-connection descriptor ring depth (power of two).
func WithRingSize(n int) Option {
	return func(c *config) { c.world.RingSize = n }
}

// WithNICSRAM caps the on-NIC memory budget in bytes.
func WithNICSRAM(n int) Option {
	return func(c *config) { c.world.SRAMBudget = n }
}

// WithoutCacheModel disables LLC/DDIO modeling (the "ideal memory" ablation).
func WithoutCacheModel() Option {
	return func(c *config) { c.world.NoLLC = true }
}

// User is a system user handle.
type User struct {
	UID  uint32
	Name string
}

// Process is a running process handle.
type Process struct {
	p *kernel.Process
}

// PID returns the process id.
func (p *Process) PID() uint32 { return p.p.PID }

// UID returns the owning user id.
func (p *Process) UID() uint32 { return p.p.UID }

// Command returns the command name.
func (p *Process) Command() string { return p.p.Command }

// Delivery is one packet handed to an application.
type Delivery struct {
	Payload int      // payload bytes
	From    string   // source address "ip:port"
	At      Duration // virtual time of delivery
}

// Duration re-exports virtual time spans for API users.
type Duration = sim.Duration

// Common duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// System is one simulated host on one architecture.
type System struct {
	a   arch.Arch
	w   *arch.World
	mux *host.Mux
	reg *telemetry.Registry
	rec *recovery.Manager
	gov *overload.Governor
	hm  *health.Monitor
	up  *upgrade.Manager
	// parts lists the attached subsystems in the one order everything that
	// walks them uses: telemetry wiring, and — for the supervisors among them —
	// the pause and resume around a drain, hence the order coinciding sampler
	// ticks fire in.
	parts [numParts]component

	// What has been asked for that a subsystem enabled later must still pick
	// up; resolve links it. Which subsystems are on is the pointers above, and
	// the flow cache is the NIC's — neither is recorded twice.
	tenants map[uint32]int // EnableTenantIsolation's weights, nil = off
	// policy is the control plane's rules and standing qdisc, folded by
	// recovery.Policy.Apply from each verb that succeeded — the same fold
	// replay runs over the journal. A crash forgets the rules; a restart
	// reinstalls them from the journal.
	policy recovery.Policy
}

// The slots of System.parts.
const (
	partRecovery = iota
	partGovernor
	partHealth
	partCanary
	numParts
)

// component is a subsystem the facade attaches to a System: it traces
// through the world's tracer and exports its series on the registry.
type component interface {
	SetTracer(*telemetry.Tracer)
	RegisterMetrics(*telemetry.Registry, telemetry.Labels)
}

// supervisor is what the components that sample on a virtual-time timer —
// and so keep the engine non-quiescent while they run — implement besides.
type supervisor interface {
	Pause()
	Resume()
}

// attach records a freshly built component in its slot and resolves what it
// links to.
func (s *System) attach(slot int, c component) {
	s.parts[slot] = c
	_ = s.resolve() // cannot newly fail here: see resolve
}

// resolve makes every cross-link between what has been asked for so far, so
// the order of the Enable* and TCSet calls never matters: each of them builds
// its own subsystem, or records its ask, and ends here. The links are made in
// one fixed order — tenants (onto the NIC, the LLC and the flow cache),
// governor, health, live upgrade, telemetry — and only where absent
// or changed: a live tenant scheduler, DDIO partition or set of governor
// budgets is never rebuilt by an unrelated call, which would orphan the
// shares, counters and health machines it holds (DESIGN.md §13). The one link
// that can fail is the flow-cache partition (more tenants than entries): the
// ask stays recorded and the error goes to EnableTenantIsolation or
// EnableFlowCache, whichever completed the pair; every other caller drops it,
// having added nothing that could make it fail.
func (s *System) resolve() error {
	n, fc := s.w.NIC, s.w.NIC.FlowCache()
	// Tenants: the DDIO partition and the NIC scheduler move together, then
	// the flow cache (built by EnableFlowCache, before or after) is
	// partitioned by the same weights.
	var err error
	if s.tenants != nil {
		ts := n.TenantScheduler()
		changed := ts == nil || !maps.Equal(ts.Weights(), s.tenants)
		if changed {
			if shares, _ := s.ddioShares(s.tenants); shares != nil { // the split was checked when the ask was made
				err = s.w.LLC.PartitionDDIO(shares)
			}
			n.SetTenantScheduler(s.tenants)
		}
		if fc != nil && err == nil && (changed || fc.Quotas() == nil) {
			err = fc.SetQuotas(s.tenants)
		}
		// Governor: per-tenant budgets by the same weights.
		if s.gov != nil && !maps.Equal(s.gov.Weights(), s.tenants) {
			s.gov.ConfigureTenants(s.tenants)
		}
	}
	// Governor: ingress shedding by the standing qdisc's class weights, so
	// shedding and egress scheduling agree on who matters. The policy is a
	// pure function of the spec, so reinstalling it loses nothing.
	if q := s.policy.Qdisc; s.gov != nil && q != nil && len(q.Weights) > 0 {
		s.gov.InstallShedding(func(uid uint32) uint32 { return q.ClassOfUID[uid] }, q.Weights)
	}
	// Health: checksum verification covers the flow cache from its first packet.
	if s.hm != nil && fc != nil {
		fc.SetVerify(true)
	}
	// Live upgrade: upgrade intent is journaled.
	if s.up != nil && s.rec != nil {
		s.up.SetRecovery(s.rec)
	}
	// Telemetry: the world registers what it has now (flow-cache and tenant
	// series exist only once those do; the registry replaces duplicates), the
	// standing qdisc's series read whichever scheduler is live at render time,
	// and every part traces through the world's tracer.
	labels := telemetry.Labels{"arch": s.a.Name()}
	if s.reg != nil {
		s.w.RegisterMetrics(s.reg, labels)
		qos.RegisterMetrics(s.reg, labels, s.Qdisc)
	}
	for _, c := range s.parts {
		if c == nil {
			continue
		}
		c.SetTracer(s.w.Tracer)
		if s.reg != nil {
			c.RegisterMetrics(s.reg, labels)
		}
	}
	return err
}

// New builds a System on the given architecture.
func New(archName Architecture, opts ...Option) *System {
	cfg := &config{}
	for _, o := range opts {
		o(cfg)
	}
	a := arch.New(string(archName), cfg.world)
	if a == nil {
		panic(fmt.Sprintf("norman: unknown architecture %q", archName))
	}
	s := &System{a: a, w: a.World()}
	s.mux = host.NewMux(a)
	return s
}

// ArchitectureName returns the architecture the system runs.
func (s *System) ArchitectureName() Architecture { return Architecture(s.a.Name()) }

// Capabilities reports what this architecture's interposition point can do.
func (s *System) Capabilities() arch.Caps { return s.a.Caps() }

// AddUser registers a user.
func (s *System) AddUser(uid uint32, name string) *User {
	s.w.Kern.AddUser(uid, name)
	return &User{UID: uid, Name: name}
}

// Spawn starts a process owned by user running command.
func (s *System) Spawn(u *User, command string) *Process {
	return &Process{p: s.w.Kern.Spawn(u.UID, command)}
}

// Now returns the current virtual time since start.
func (s *System) Now() Duration { return sim.Duration(s.w.Eng.Now()) }

// Run executes queued events until the simulation drains and returns the
// final virtual time. Running supervisors are paused for the drain (their
// self-rescheduling timers would otherwise keep the engine busy forever) and
// resumed afterwards with the horizons they were started with; use RunFor for
// bounded stepping with them live.
func (s *System) Run() Duration {
	for _, p := range s.parts {
		if sv, ok := p.(supervisor); ok {
			sv.Pause()
		}
	}
	if err := s.w.Drain(); err != nil {
		panic(err) // the simulator lost a frame: no number it reports can be trusted
	}
	for _, p := range s.parts {
		if sv, ok := p.(supervisor); ok {
			sv.Resume()
		}
	}
	return sim.Duration(s.w.Now())
}

// RunFor executes events up to d of virtual time.
func (s *System) RunFor(d Duration) Duration {
	return sim.Duration(s.w.RunUntil(s.w.Now().Add(d)))
}

// At schedules fn at an absolute virtual time.
func (s *System) At(t Duration, fn func()) { s.w.Eng.At(sim.Time(t), fn) }

// After schedules fn after a virtual delay.
func (s *System) After(d Duration, fn func()) { s.w.Eng.After(d, fn) }

// UseEchoPeer installs a wire peer that echoes UDP datagrams back.
func (s *System) UseEchoPeer() {
	s.w.Peer = host.EchoPeer(s.a)
}

// UseSinkPeer installs a counting sink as the wire peer and returns it.
func (s *System) UseSinkPeer() *host.SinkPeer {
	sink := host.NewSinkPeer()
	s.w.Peer = sink.Recv
	return sink
}

// Ping sends a kernel-originated ICMP echo to dst (dotted quad) and calls
// done with the round-trip time. On architectures whose kernel cannot see
// the reply (bypass, hypervisor) it returns an error immediately — the
// paper's manageability gap includes ping.
func (s *System) Ping(dst string, done func(rtt Duration, ok bool)) error {
	var a, b, c, d byte
	if _, err := fmt.Sscanf(dst, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return fmt.Errorf("norman: bad address %q", dst)
	}
	return s.a.Ping(packet.MakeIP(a, b, c, d), 56, func(rtt sim.Duration, ok bool) {
		if done != nil {
			done(rtt, ok)
		}
	})
}

// InjectInbound delivers a UDP datagram from the peer toward the local
// (srcPort, dstPort) flow previously opened with Dial.
func (s *System) InjectInbound(c *Conn, payload int) {
	s.a.DeliverWire(s.w.UDPFrom(c.flow, payload))
}

// EnableTelemetry attaches the unified observability layer: a labeled
// metrics registry covering every layer of the world (host, sim, mem, nic,
// trace) and the standing qdisc (qos), and a packet-lifecycle tracer whose
// span depth comes from NORMAN_TRACE_DEPTH. Idempotent; returns the registry
// either way.
func (s *System) EnableTelemetry() *telemetry.Registry {
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
		s.w.EnableTracing(0)
		_ = s.resolve() // cannot newly fail here: see resolve
	}
	return s.reg
}

// Telemetry returns the metrics registry, nil before EnableTelemetry.
func (s *System) Telemetry() *telemetry.Registry { return s.reg }

// Tracer returns the packet-lifecycle tracer, nil before EnableTelemetry.
func (s *System) Tracer() *telemetry.Tracer { return s.w.Tracer }

// World exposes the underlying simulation world for advanced use (bench
// harnesses, custom peers). Most callers never need it.
func (s *System) World() *arch.World { return s.w }

// Arch exposes the underlying architecture implementation.
func (s *System) Arch() arch.Arch { return s.a }

// kernFlow builds the canonical local->peer UDP flow key.
func (s *System) kernFlow(localPort, remotePort uint16) packet.FlowKey {
	return s.w.Flow(localPort, remotePort)
}
