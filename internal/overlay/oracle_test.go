package overlay

import (
	"fmt"

	"norman/internal/packet"
	"norman/internal/qos"
)

// refMachine is the overlay machine as it was before lowering: Go maps for
// tables and an instruction-at-a-time Run that decodes each Inst as it goes
// (Cost() per step, a nested opcode switch for compares, an operand closure).
// It is moved here verbatim — only the type's name changed — as the oracle
// FuzzOverlayLowering holds Machine to; the meters (newMeters, conforms),
// loadField, Trap and Env are the product's, which the lowered executor shares unchanged.

// refMachine is a loaded program plus its runtime state (table contents, meter
// buckets, counters). One refMachine corresponds to one occupied overlay slot
// on the NIC; swapping programs replaces the refMachine.
type refMachine struct {
	prog     *Program
	tables   []map[uint64]uint64
	meters   []*qos.Bucket
	counters []uint64

	runs   uint64
	cycles uint64
	traps  uint64

	// pendingTrap, when non-empty, makes the next Run return an injected
	// Trap — the deterministic fault-injection hook (internal/faults).
	pendingTrap string
}

// newRefMachine instantiates runtime state for a verified program.
func newRefMachine(p *Program) *refMachine {
	m := &refMachine{
		prog:     p,
		tables:   make([]map[uint64]uint64, len(p.Tables)),
		meters:   newMeters(p.Meters),
		counters: make([]uint64, len(p.Counters)),
	}
	for i := range m.tables {
		m.tables[i] = make(map[uint64]uint64, p.Tables[i].Capacity)
	}
	return m
}

// Program returns the loaded program.
func (m *refMachine) Program() *Program { return m.prog }

// TableInsert populates a table from the control plane (how the kernel
// injects firewall rules or connection state via MMIO, §4.4). It fails when
// the declared capacity is exhausted — the resource-exhaustion experiment
// depends on tables genuinely filling up.
func (m *refMachine) TableInsert(table string, key, val uint64) error {
	idx := m.tableIndex(table)
	if idx < 0 {
		return fmt.Errorf("overlay: no table %q", table)
	}
	t := m.tables[idx]
	if _, exists := t[key]; !exists && len(t) >= m.prog.Tables[idx].Capacity {
		return fmt.Errorf("%w: %s (cap %d)", ErrTableFull, table, m.prog.Tables[idx].Capacity)
	}
	t[key] = val
	return nil
}

// TableDelete removes a key; deleting an absent key is a no-op.
func (m *refMachine) TableDelete(table string, key uint64) error {
	idx := m.tableIndex(table)
	if idx < 0 {
		return fmt.Errorf("overlay: no table %q", table)
	}
	delete(m.tables[idx], key)
	return nil
}

// TableLen returns the number of entries in a table, or -1 if absent.
func (m *refMachine) TableLen(table string) int {
	idx := m.tableIndex(table)
	if idx < 0 {
		return -1
	}
	return len(m.tables[idx])
}

func (m *refMachine) tableIndex(name string) int {
	for i, t := range m.prog.Tables {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Counter returns a counter's value, or 0 if absent.
func (m *refMachine) Counter(name string) uint64 {
	for i, c := range m.prog.Counters {
		if c.Name == name {
			return m.counters[i]
		}
	}
	return 0
}

// Stats returns total runs and cycles executed.
func (m *refMachine) Stats() (runs, cycles uint64) { return m.runs, m.cycles }

// Traps returns how many runs ended in a trap.
func (m *refMachine) Traps() uint64 { return m.traps }

// InjectTrap arms a one-shot runtime trap: the next Run returns a Trap with
// the given reason instead of executing. Deterministic fault injection uses
// this to model transient stage faults without corrupting program state.
func (m *refMachine) InjectTrap(reason string) {
	if reason == "" {
		reason = "injected trap"
	}
	m.pendingTrap = reason
}

// Run executes the program on a packet and returns the verdict, the cost in
// overlay cycles, and a non-nil *Trap error if the run faulted. Verified
// programs always terminate; a structurally impossible state (which would
// indicate a verifier bug, bit-flipped program SRAM, or an injected fault)
// surfaces as a Trap rather than a panic, so one bad program can never wedge
// the whole dataplane — the caller decides how to degrade.
func (m *refMachine) Run(p *packet.Packet, env Env) (verdict Verdict, cost int, err error) {
	if m.pendingTrap != "" {
		reason := m.pendingTrap
		m.pendingTrap = ""
		m.traps++
		return VerdictPass, 0, &Trap{Prog: m.prog.Name, PC: -1, Reason: reason}
	}
	var regs [NumRegs]uint64
	now := env.Now()
	pc := 0
	code := m.prog.Code
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
		cost += in.Cost()

		operand := func() uint64 {
			if in.Imm {
				return in.Val
			}
			return regs[in.B]
		}

		switch in.Op {
		case OpNop:
		case OpLdf:
			regs[in.A] = loadField(p, in.F, now)
		case OpLdi:
			regs[in.A] = in.Val
		case OpMov:
			regs[in.A] = regs[in.B]
		case OpAdd:
			regs[in.A] += operand()
		case OpSub:
			regs[in.A] -= operand()
		case OpAnd:
			regs[in.A] &= operand()
		case OpOr:
			regs[in.A] |= operand()
		case OpXor:
			regs[in.A] ^= operand()
		case OpShl:
			regs[in.A] <<= operand() & 63
		case OpShr:
			regs[in.A] >>= operand() & 63
		case OpJmp:
			pc = in.Target
			continue
		case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge:
			a, b := regs[in.A], operand()
			take := false
			switch in.Op {
			case OpJeq:
				take = a == b
			case OpJne:
				take = a != b
			case OpJlt:
				take = a < b
			case OpJle:
				take = a <= b
			case OpJgt:
				take = a > b
			case OpJge:
				take = a >= b
			}
			if take {
				pc = in.Target
				continue
			}
		case OpLookup:
			v, ok := m.tables[in.Index][regs[in.B]]
			if !ok {
				pc = in.Target
				continue
			}
			regs[in.A] = v
		case OpUpdate:
			t := m.tables[in.Index]
			key := regs[in.A]
			if _, exists := t[key]; exists || len(t) < m.prog.Tables[in.Index].Capacity {
				t[key] = regs[in.B]
			}
			// A full table silently refuses dataplane inserts, as
			// hardware match-action tables do.
		case OpMeter:
			if conforms(m.meters[in.Index], now, regs[in.B]) {
				regs[in.A] = 1
			} else {
				regs[in.A] = 0
			}
		case OpSetf:
			switch in.F {
			case FMark:
				p.Meta.Mark = uint32(regs[in.B])
			case FClass:
				p.Meta.Class = uint32(regs[in.B])
			}
		case OpCount:
			m.counters[in.Index]++
		case OpMirror:
			env.Mirror(p)
		case OpNotify:
			env.Notify(p)
		case OpPass:
			m.runs++
			m.cycles += uint64(cost)
			return VerdictPass, cost, nil
		case OpDrop:
			m.runs++
			m.cycles += uint64(cost)
			return VerdictDrop, cost, nil
		}
		pc++
	}
}
