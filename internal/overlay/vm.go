package overlay

import (
	"errors"
	"fmt"
	"math"

	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// Runtime errors (verified programs cannot raise them except table capacity).
var (
	ErrTableFull = errors.New("overlay: table full")
)

// Trap is a typed runtime fault raised by Machine.Run: the overlay analogue
// of an eBPF program hitting a verifier-impossible state, a hardware stage
// fault, or an injected fault-model trap. Traps never panic the simulation —
// callers (the NIC pipeline) observe the error and degrade gracefully, e.g.
// by falling back to the last-good overlay chain.
type Trap struct {
	Prog   string // program name
	PC     int    // program counter at the fault, -1 for injected traps
	Reason string
}

// Error implements error.
func (t *Trap) Error() string {
	return fmt.Sprintf("overlay: trap in %q at pc %d: %s", t.Prog, t.PC, t.Reason)
}

// Env is what a program run may touch beyond the packet: the clock, the
// capture tap and the notification sink. The NIC provides one per pipeline.
type Env interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// Mirror delivers a copy of the packet to the capture tap.
	Mirror(pkt *packet.Packet)
	// Notify appends a notification for the packet's owning connection.
	Notify(pkt *packet.Packet)
}

// NopEnv is an Env that discards mirrors and notifications; useful in tests
// and for programs that use neither.
type NopEnv struct{ Time sim.Time }

// Now returns the fixed time carried by the env.
func (e NopEnv) Now() sim.Time { return e.Time }

// Mirror discards the packet copy.
func (NopEnv) Mirror(*packet.Packet) {}

// Notify discards the notification.
func (NopEnv) Notify(*packet.Packet) {}

// newMeters builds a full token bucket per declared meter.
func newMeters(specs []MeterSpec) []*qos.Bucket {
	meters := make([]*qos.Bucket, len(specs))
	for i, spec := range specs {
		meters[i] = qos.NewBucket(spec.Rate, spec.Burst)
	}
	return meters
}

// conforms is the meter instruction: bytes (whatever the register holds)
// conform when the bucket covers them now, and are then paid for.
func conforms(b *qos.Bucket, now sim.Time, bytes uint64) bool {
	return b.Conform(int(min(bytes, math.MaxInt)), now)
}

// Machine is a loaded program plus its runtime state (table contents, meter
// buckets, counters). One Machine corresponds to one occupied overlay slot
// on the NIC; swapping programs replaces the Machine.
type Machine struct {
	prog     *Program
	low      *lowered // what Run executes; see lower.go
	tables   []*table
	meters   []*qos.Bucket
	counters []uint64

	runs   uint64
	cycles uint64
	traps  uint64

	// pendingTrap, when non-empty, makes the next Run return an injected
	// Trap — the deterministic fault-injection hook (internal/faults).
	pendingTrap string
}

// NewMachine lowers a verified program and instantiates its runtime state.
func NewMachine(p *Program) *Machine {
	m := &Machine{
		prog:     p,
		low:      lower(p),
		tables:   make([]*table, len(p.Tables)),
		meters:   newMeters(p.Meters),
		counters: make([]uint64, len(p.Counters)),
	}
	for i := range m.tables {
		m.tables[i] = newTable(p.Tables[i].Capacity)
	}
	return m
}

// Program returns the loaded program.
func (m *Machine) Program() *Program { return m.prog }

// Cacheable reports whether the program's decision on a packet is a function
// of the packet's flow alone, so the NIC may memoize it by flow. Meters are
// rate-dependent, updates mutate shared table state, mirror/notify are
// per-packet side effects, and len, tcp_flags, tos and time_ns vary between
// packets of one 5-tuple: a program using any of them runs on every packet.
func (m *Machine) Cacheable() bool { return !m.low.perPacket }

// TableInsert populates a table from the control plane (how the kernel
// injects firewall rules or connection state via MMIO, §4.4). It fails when
// the declared capacity is exhausted — the resource-exhaustion experiment
// depends on tables genuinely filling up.
func (m *Machine) TableInsert(table string, key, val uint64) error {
	idx := m.tableIndex(table)
	if idx < 0 {
		return fmt.Errorf("overlay: no table %q", table)
	}
	t := m.tables[idx]
	switch i, found := t.probe(key); {
	case found:
		t.slots[i].val = val
	case t.full():
		return fmt.Errorf("%w: %s (cap %d)", ErrTableFull, table, t.capacity)
	default:
		t.insert(i, key, val)
	}
	return nil
}

// TableDelete removes a key; deleting an absent key is a no-op.
func (m *Machine) TableDelete(table string, key uint64) error {
	idx := m.tableIndex(table)
	if idx < 0 {
		return fmt.Errorf("overlay: no table %q", table)
	}
	m.tables[idx].del(key)
	return nil
}

// TableLen returns the number of entries in a table, or -1 if absent.
func (m *Machine) TableLen(table string) int {
	idx := m.tableIndex(table)
	if idx < 0 {
		return -1
	}
	return m.tables[idx].n
}

func (m *Machine) tableIndex(name string) int {
	for i, t := range m.prog.Tables {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Counter returns a counter's value, or 0 if absent.
func (m *Machine) Counter(name string) uint64 {
	for i, c := range m.prog.Counters {
		if c.Name == name {
			return m.counters[i]
		}
	}
	return 0
}

// CarryCounters copies each of from's counters into this machine's counter
// of the same index and name: a reload that renumbers no counter keeps their
// counts.
func (m *Machine) CarryCounters(from *Machine) {
	for i, c := range from.prog.Counters {
		if i < len(m.counters) && m.prog.Counters[i] == c {
			m.counters[i] = from.counters[i]
		}
	}
}

// Stats returns total runs and cycles executed.
func (m *Machine) Stats() (runs, cycles uint64) { return m.runs, m.cycles }

// Traps returns how many runs ended in a trap.
func (m *Machine) Traps() uint64 { return m.traps }

// InjectTrap arms a one-shot runtime trap: the next Run returns a Trap with
// the given reason instead of executing. Deterministic fault injection uses
// this to model transient stage faults without corrupting program state.
func (m *Machine) InjectTrap(reason string) {
	if reason == "" {
		reason = "injected trap"
	}
	m.pendingTrap = reason
}

// loadField reads a packet/metadata field.
func loadField(p *packet.Packet, f Field, now sim.Time) uint64 {
	switch f {
	case FSrcIP:
		if p.IP != nil {
			return uint64(p.IP.Src)
		}
	case FDstIP:
		if p.IP != nil {
			return uint64(p.IP.Dst)
		}
	case FSrcPort:
		if p.UDP != nil {
			return uint64(p.UDP.SrcPort)
		}
		if p.TCP != nil {
			return uint64(p.TCP.SrcPort)
		}
	case FDstPort:
		if p.UDP != nil {
			return uint64(p.UDP.DstPort)
		}
		if p.TCP != nil {
			return uint64(p.TCP.DstPort)
		}
	case FProto:
		if p.IP != nil {
			return uint64(p.IP.Proto)
		}
	case FLen:
		return uint64(p.FrameLen())
	case FEthType:
		return uint64(p.Eth.Type)
	case FARPOp:
		if p.ARP != nil {
			return uint64(p.ARP.Op)
		}
	case FTOS:
		if p.IP != nil {
			return uint64(p.IP.TOS)
		}
	case FTCPFlags:
		if p.TCP != nil {
			return uint64(p.TCP.Flags)
		}
	case FUID:
		if p.Meta.TrustedMeta {
			return uint64(p.Meta.UID)
		}
	case FPID:
		if p.Meta.TrustedMeta {
			return uint64(p.Meta.PID)
		}
	case FCmdID:
		if p.Meta.TrustedMeta {
			return uint64(p.Meta.CommandID)
		}
	case FConn:
		return p.Meta.ConnID
	case FMark:
		return uint64(p.Meta.Mark)
	case FClass:
		return uint64(p.Meta.Class)
	case FTimeNS:
		return uint64(now) / 1000
	}
	return 0
}

// Run executes the program on a packet and returns the verdict, the cost in
// overlay cycles, and a non-nil *Trap error if the run faulted. Verified
// programs always terminate; a structurally impossible state (which would
// indicate a verifier bug, bit-flipped program SRAM, or an injected fault)
// surfaces as a Trap rather than a panic, so one bad program can never wedge
// the whole dataplane — the caller decides how to degrade.
//
// Run steps through the lowered code (lower.go). The cycle charge is the
// modelled one — each source instruction's Inst.Cost(), a compare ladder
// charging one cycle per compare it reaches — whatever the host work is.
func (m *Machine) Run(p *packet.Packet, env Env) (verdict Verdict, cost int, err error) {
	if m.pendingTrap != "" {
		reason := m.pendingTrap
		m.pendingTrap = ""
		m.traps++
		return VerdictPass, 0, &Trap{Prog: m.prog.Name, PC: -1, Reason: reason}
	}
	var regs [NumRegs]uint64
	now := env.Now()
	pc := 0
	code, ladders := m.low.code, m.low.ladders
	// Safety net for states the verifier is supposed to exclude (bad table
	// index, register overflow in an unexpected place): convert any runtime
	// panic below into a typed Trap so the run path never crashes callers.
	defer func() {
		if r := recover(); r != nil {
			m.traps++
			verdict = VerdictPass
			err = &Trap{Prog: m.prog.Name, PC: pc, Reason: fmt.Sprint(r)}
		}
	}()
	for {
		if pc >= len(code) {
			m.traps++
			return VerdictPass, cost, &Trap{Prog: m.prog.Name, PC: pc, Reason: "program fell off end"}
		}
		// By reference: where a stack copy and the code array agree modulo
		// 4 KiB the copy's loads alias its stores and a run takes 3× as long.
		in := &code[pc]
		cost += int(in.cost)

		switch in.kind {
		case lNop:
		case lLdf:
			regs[in.a] = loadField(p, in.f, now)
		case lLdi:
			regs[in.a] = in.val
		case lMov:
			regs[in.a] = regs[in.b]
		case lAdd:
			regs[in.a] += in.val | regs[in.b]&in.mask
		case lSub:
			regs[in.a] -= in.val | regs[in.b]&in.mask
		case lAnd:
			regs[in.a] &= in.val | regs[in.b]&in.mask
		case lOr:
			regs[in.a] |= in.val | regs[in.b]&in.mask
		case lXor:
			regs[in.a] ^= in.val | regs[in.b]&in.mask
		case lShl:
			regs[in.a] <<= (in.val | regs[in.b]&in.mask) & 63
		case lShr:
			regs[in.a] >>= (in.val | regs[in.b]&in.mask) & 63
		case lJmp:
			pc = in.target
			continue
		case lJeq:
			if regs[in.a] == regs[in.b] {
				pc = in.target
				continue
			}
		case lJne:
			if regs[in.a] != regs[in.b] {
				pc = in.target
				continue
			}
		case lJlt:
			if regs[in.a] < regs[in.b] {
				pc = in.target
				continue
			}
		case lJle:
			if regs[in.a] <= regs[in.b] {
				pc = in.target
				continue
			}
		case lJgt:
			if regs[in.a] > regs[in.b] {
				pc = in.target
				continue
			}
		case lJge:
			if regs[in.a] >= regs[in.b] {
				pc = in.target
				continue
			}
		case lCmp:
			// The first compare of the ladder that holds is taken, and every
			// compare reached — it and the ones before it — costs a cycle
			// (the first is in.cost, charged above).
			ld := ladders[in.idx]
			a := regs[in.a]
			i, n := 0, len(ld)
			for i < n && !ld[i].has(a) {
				i++
			}
			if i < n {
				cost += i
				pc = ld[i].target
				continue
			}
			cost += n - 1
			pc += n
			continue
		case lLookup:
			v, ok := m.tables[in.idx].get(regs[in.b])
			if !ok {
				pc = in.target
				continue
			}
			regs[in.a] = v
		case lUpdate:
			t := m.tables[in.idx]
			key := regs[in.a]
			if i, found := t.probe(key); found {
				t.slots[i].val = regs[in.b]
			} else if !t.full() {
				t.insert(i, key, regs[in.b])
			}
			// A full table silently refuses dataplane inserts, as
			// hardware match-action tables do.
		case lMeter:
			if conforms(m.meters[in.idx], now, regs[in.b]) {
				regs[in.a] = 1
			} else {
				regs[in.a] = 0
			}
		case lSetMark:
			p.Meta.Mark = uint32(regs[in.b])
		case lSetClass:
			p.Meta.Class = uint32(regs[in.b])
		case lCount:
			m.counters[in.idx]++
		case lMirror:
			env.Mirror(p)
		case lNotify:
			env.Notify(p)
		case lPass:
			m.runs++
			m.cycles += uint64(cost)
			return VerdictPass, cost, nil
		case lDrop:
			m.runs++
			m.cycles += uint64(cost)
			return VerdictDrop, cost, nil
		}
		pc++
	}
}
