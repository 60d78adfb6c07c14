package overlay

import "math"

// lkind is a lowered opcode: what Machine.Run dispatches on. Immediate
// compares have no kind of their own per relation — they all lower to lCmp.
type lkind uint8

const (
	lNop lkind = iota // also: unknown opcodes and setf of a read-only field
	lLdf
	lLdi
	lMov
	lAdd
	lSub
	lAnd
	lOr
	lXor
	lShl
	lShr
	lJmp
	lJeq // lJeq..lJge compare two registers
	lJne
	lJlt
	lJle
	lJgt
	lJge
	lCmp // immediate compare: the head of a ladder
	lLookup
	lUpdate
	lMeter
	lSetMark
	lSetClass
	lCount
	lMirror
	lNotify
	lPass
	lDrop
)

// lop is one pre-decoded instruction. Lowered code is index-aligned with the
// source: code[i] lowers Program.Code[i], so jump targets and the PC a Trap
// reports need no translation, and registers, indices and targets are copied
// unchecked — an out-of-range one faults in Run exactly where the
// instruction-at-a-time loop faulted, and is recovered into the same Trap.
type lop struct {
	kind lkind
	a, b uint8 // registers; b is 0 in an immediate form
	f    Field
	cost uint8 // Inst.Cost()

	target int
	idx    int // table, meter or counter; lCmp: its ladder

	// The second ALU operand is val | regs[b]&mask: an immediate form has
	// mask 0 (and b 0), a register form val 0 and mask ^0.
	val, mask uint64
}

// window is a set of register values in the one form Run tests, which covers
// all six relations of `jcc rA, imm` without a branch per relation: v is in
// it iff v lies inside [lo, lo+span] or, negated, outside.
type window struct {
	lo, span uint64
	neg      bool
}

var (
	everything = window{span: ^uint64(0)}
	nothing    = window{span: ^uint64(0), neg: true}
)

func (w window) has(v uint64) bool { return (v-w.lo <= w.span) != w.neg }

// windowOf is the set of rA values for which `op rA, v` jumps.
func windowOf(op Op, v uint64) window {
	switch op {
	case OpJeq:
		return window{lo: v}
	case OpJne:
		return window{lo: v, neg: true}
	case OpJle:
		return window{span: v}
	case OpJgt:
		return window{span: v, neg: true}
	case OpJlt: // rA <= v-1; nothing is below 0
		if v == 0 {
			return nothing
		}
		return window{span: v - 1}
	default: // OpJge: not rA <= v-1; everything is at least 0
		if v == 0 {
			return everything
		}
		return window{span: v - 1, neg: true}
	}
}

// rung is one immediate compare: jump to target when the register is in the
// window.
type rung struct {
	window
	target int
}

// ladder is what an lCmp op executes: the run of consecutive immediate
// compares on one register that starts at that op. The first rung that holds
// is taken, charging one cycle per rung reached; if none holds the whole run
// is charged and control falls through past it. Every position of a run has
// its own ladder over the rest of the run (the rungs are shared), so a jump
// into the middle of a run needs no special case.
type ladder []rung

// lowered is everything one pass over a program yields: the executable form
// and the two static facts the control plane asks of a chain.
type lowered struct {
	code    []lop
	ladders []ladder
	// bound is the worst-case cycle charge of one run (Program.CycleBound).
	bound int
	// perPacket: the verdict or a side effect depends on more than the flow
	// the packet belongs to, so it must not be memoized by flow.
	perPacket bool
}

// unbounded is the cycle bound of a program that can loop (a backward jump;
// Verify rejects those, NewMachine does not see Verify's answer).
const unbounded = math.MaxInt

var aluKinds = [...]lkind{OpAdd: lAdd, OpSub: lSub, OpAnd: lAnd, OpOr: lOr, OpXor: lXor, OpShl: lShl, OpShr: lShr}

// lower pre-decodes p. It walks the code backwards so that, at each
// instruction, the rest of its ladder and the worst-case cost of everything
// after it are already known (control flow is forward-only).
func lower(p *Program) *lowered {
	n := len(p.Code)
	l := &lowered{code: make([]lop, n)}
	// Ladders and their rungs are filled back to front, as the walk goes.
	nc := 0
	for i := range p.Code {
		if in := &p.Code[i]; in.Imm && in.Op >= OpJeq && in.Op <= OpJge {
			nc++
		}
	}
	rungs := make([]rung, nc)
	l.ladders = make([]ladder, nc)
	worst := make([]int, n+1) // worst[n] = 0: running off the end traps
	// from is the worst-case cost from a jump target: leaving the program
	// (past the end, negative) traps and charges nothing more.
	from := func(i, target int) int {
		switch {
		case target > n || target < 0:
			return 0
		case target <= i:
			return unbounded
		}
		return worst[target]
	}
	for i := n - 1; i >= 0; i-- {
		in := &p.Code[i]
		op := &l.code[i]
		*op = lop{a: in.A, b: in.B, f: in.F, cost: uint8(in.Cost()), target: in.Target, idx: in.Index}
		rest := worst[i+1]
		switch in.Op {
		case OpLdf:
			op.kind = lLdf
			switch in.F {
			case FLen, FTCPFlags, FTOS, FTimeNS:
				l.perPacket = true
			}
		case OpLdi:
			op.kind, op.val = lLdi, in.Val
		case OpMov:
			op.kind = lMov
		case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr:
			op.kind = aluKinds[in.Op]
			if in.Imm {
				op.b, op.val = 0, in.Val
			} else {
				op.mask = ^uint64(0)
			}
		case OpJmp:
			op.kind = lJmp
			rest = from(i, in.Target)
		case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge:
			rest = max(rest, from(i, in.Target))
			if !in.Imm {
				op.kind = lJeq + lkind(in.Op-OpJeq)
				break
			}
			nc--
			rungs[nc] = rung{window: windowOf(in.Op, in.Val), target: in.Target}
			run := 1
			if i+1 < n && l.code[i+1].kind == lCmp && l.code[i+1].a == in.A {
				run += len(l.ladders[nc+1])
			}
			l.ladders[nc] = rungs[nc : nc+run]
			op.kind, op.idx = lCmp, nc
		case OpLookup:
			op.kind = lLookup
			rest = max(rest, from(i, in.Target))
		case OpUpdate:
			op.kind, l.perPacket = lUpdate, true
		case OpMeter:
			op.kind, l.perPacket = lMeter, true
		case OpSetf:
			switch in.F {
			case FMark:
				op.kind = lSetMark
			case FClass:
				op.kind = lSetClass
			}
		case OpCount:
			op.kind = lCount
		case OpMirror:
			op.kind, l.perPacket = lMirror, true
		case OpNotify:
			op.kind, l.perPacket = lNotify, true
		case OpPass:
			op.kind, rest = lPass, 0
		case OpDrop:
			op.kind, rest = lDrop, 0
		}
		if rest != unbounded {
			rest += int(op.cost)
		}
		worst[i] = rest
	}
	l.bound = worst[0]
	return l
}

// table is one exact-match SRAM block: a uint64 → uint64 open-addressed hash
// table (linear probing, at most half full, deletion by backward shift) that
// holds at most `capacity` keys. It is sized to its contents, doubling up to
// what the declared capacity needs, so an empty 4096-entry declaration costs
// eight slots of host memory.
type table struct {
	slots    []slot // power-of-two length
	shift    uint   // 64 - log2(len(slots))
	n        int
	capacity int
}

type slot struct {
	key, val uint64
	used     bool
}

const minTableSlots = 8

func newTable(capacity int) *table {
	t := &table{capacity: capacity}
	t.resize(minTableSlots)
	return t
}

func (t *table) resize(slots int) {
	old := t.slots
	t.slots = make([]slot, slots)
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
	for i := range old {
		if old[i].used {
			j, _ := t.probe(old[i].key)
			t.slots[j] = old[i]
		}
	}
}

func (t *table) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// probe returns the slot that holds key or, when absent, the empty slot it
// would take. At most half the slots are ever used, so the scan ends.
func (t *table) probe(key uint64) (i int, found bool) {
	mask := len(t.slots) - 1
	for i = t.home(key); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].key == key {
			return i, true
		}
	}
	return i, false
}

func (t *table) get(key uint64) (uint64, bool) {
	i, found := t.probe(key)
	return t.slots[i].val, found
}

// full reports whether the declared capacity is used up: new keys are
// refused, existing ones can still be overwritten.
func (t *table) full() bool { return t.n >= t.capacity }

// insert stores a new key in the empty slot probe returned for it. The
// caller has checked full().
func (t *table) insert(i int, key, val uint64) {
	if (t.n+1)*2 > len(t.slots) {
		t.resize(len(t.slots) * 2)
		i, _ = t.probe(key)
	}
	t.slots[i] = slot{key: key, val: val, used: true}
	t.n++
}

// del removes key, then closes the gap: every entry after it in the cluster
// moves back unless that would put it before its home slot.
func (t *table) del(key uint64) {
	i, found := t.probe(key)
	if !found {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// Movable iff the gap i lies cyclically within [home, j).
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
}
