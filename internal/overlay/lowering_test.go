package overlay_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"norman/internal/core"
	"norman/internal/filter"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// corpusEntry is one named program of the differential corpus.
type corpusEntry struct {
	name string
	prog *overlay.Program
}

func mustAssemble(tb testing.TB, name, src string) *overlay.Program {
	tb.Helper()
	p, err := overlay.Assemble(name, src)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return p
}

// corpus is the fixed set of programs the lowered executor is held to the
// oracle on under plain `go test`: every chain the repo deploys or measures,
// the ladder shapes the lowering treats specially, and programs Verify would
// have refused that NewMachine accepts anyway. Table capacities are small so
// the scripts below drive them full.
func corpus(tb testing.TB) []corpusEntry {
	tb.Helper()
	u8 := func(v uint8) *uint8 { return &v }
	u32 := func(v uint32) *uint32 { return &v }
	rules := &filter.Chain{Policy: filter.ActAccept, Rules: []*filter.Rule{
		{SrcNet: &filter.Prefix{Net: packet.MakeIP(10, 1, 0, 0), Bits: 16}, Action: filter.ActDrop},
		{Proto: u8(packet.ProtoUDP), DstPorts: &filter.PortRange{Lo: 1000, Hi: 2000}, Action: filter.ActCount},
		{DstPorts: &filter.PortRange{Lo: 5432, Hi: 5432}, OwnerUID: u32(1001), Action: filter.ActDrop},
		{OwnerCmd: "postgres", Action: filter.ActMark, MarkVal: 9},
	}}
	compiled, err := filter.CompileOverlay("rules", rules, func(string) uint64 { return 1 })
	if err != nil {
		tb.Fatal(err)
	}
	ingress := mustAssemble(tb, "stateful-ingress", core.StatefulIngressProgram(4))
	sampler := mustAssemble(tb, "sampler", core.SamplingMirrorProgram(1))
	chained, err := overlay.Chain("ingress+sampler", ingress, sampler)
	if err != nil {
		tb.Fatal(err)
	}
	return []corpusEntry{
		{"stateful-egress", mustAssemble(tb, "stateful-egress", core.StatefulEgressProgram(4))},
		{"stateful-ingress", ingress},
		{"sampler", sampler},
		{"port-meter", mustAssemble(tb, "port-meter", core.PortMeterProgram(5432, 1e6, 3000))},
		{"compiled-rules", compiled},
		{"acl", mustAssemble(tb, "acl", overlay.ACLSource(false))},
		{"acl-per-flow", mustAssemble(tb, "acl-per-flow", overlay.ACLSource(true))},
		{"chain", chained},
		// The first of two equal immediates wins, and its target differs.
		{"ladder-duplicates", mustAssemble(tb, "ladder-duplicates", `
.counter first
.counter second
ldf r0, dst_port
jeq r0, 80, a
jeq r0, 443, b
jeq r0, 80, b
jeq r0, 443, a
pass
a:
count first
pass
b:
count second
drop
`)},
		// A jump lands inside the run: from there only the rest of it runs.
		{"ladder-interior-target", mustAssemble(tb, "ladder-interior-target", `
ldf r0, dst_port
ldf r1, proto
jeq r1, 6, inside
jeq r0, 80, hit
jeq r0, 443, hit
inside:
jeq r0, 9000, hit
jeq r0, 5432, hit
pass
hit:
drop
`)},
		// Every relation, the edge immediates, two registers back to back.
		{"ladder-relations", mustAssemble(tb, "ladder-relations", `
ldf r0, dst_port
ldf r1, len
jlt r0, 0, never
jge r0, 0x10000, never
jgt r0, 0xffffffffffffffff, never
jne r0, 5432, on
jle r1, 100, small
jgt r1, 1000, big
on:
jlt r0, 1000, small
jle r0, 0xffffffffffffffff, big
never:
drop
small:
ldi r2, 1
setf class, r2
pass
big:
ldi r2, 2
setf mark, r2
pass
`)},
		{"mirror-chain", mirrorChain(tb)},
		// What Verify refuses and NewMachine does not see refused.
		{"bad-register", &overlay.Program{Name: "bad-register", Code: []overlay.Inst{
			{Op: overlay.OpLdf, A: 0, F: overlay.FDstPort, Target: -1},
			{Op: overlay.OpJeq, A: 0, Imm: true, Val: 80, Target: 3},
			{Op: overlay.OpLdi, A: 40, Val: 1, Target: -1},
			{Op: overlay.OpJeq, A: 33, Imm: true, Val: 1, Target: 5},
			{Op: overlay.OpJne, A: 33, Imm: true, Val: 1, Target: 5},
			{Op: overlay.OpPass, Target: -1},
		}}},
		{"bad-index", &overlay.Program{Name: "bad-index",
			Tables: []overlay.TableSpec{{Name: "t", Capacity: 2}},
			Code: []overlay.Inst{
				{Op: overlay.OpLdf, A: 0, F: overlay.FConn, Target: -1},
				{Op: overlay.OpLdi, A: 1, Val: 9, Target: -1},
				{Op: overlay.OpUpdate, A: 0, B: 1, Index: 0, Target: -1},
				{Op: overlay.OpJeq, A: 0, Imm: true, Val: 1, Target: 6},
				{Op: overlay.OpJeq, A: 0, Imm: true, Val: 2, Target: 7},
				{Op: overlay.OpLookup, A: 2, B: 0, Index: 3, Target: 8},
				{Op: overlay.OpCount, Index: -1, Target: -1},
				{Op: overlay.OpMeter, A: 2, B: 0, Index: 1, Target: -1},
				{Op: overlay.OpPass, Target: -1},
			}}},
		{"bad-target", &overlay.Program{Name: "bad-target", Code: []overlay.Inst{
			{Op: overlay.OpLdf, A: 0, F: overlay.FConn, Target: -1},
			{Op: overlay.OpJeq, A: 0, Imm: true, Val: 1, Target: 40},
			{Op: overlay.OpJeq, A: 0, Imm: true, Val: 2, Target: -7},
			{Op: overlay.OpJeq, A: 0, Imm: true, Val: 3, Target: 5},
			{Op: overlay.Op(200), Target: -1},
		}}},
	}
}

// mirrorChain is 59 mirrors and a pass: 60 instructions, 473 cycles.
func mirrorChain(tb testing.TB) *overlay.Program {
	return mustAssemble(tb, "mirror-chain", strings.Repeat("mirror\n", 59)+"pass\n")
}

// machine is what the driver needs of both executors.
type machine interface {
	Run(*packet.Packet, overlay.Env) (overlay.Verdict, int, error)
	TableInsert(string, uint64, uint64) error
	TableDelete(string, uint64) error
	TableLen(string) int
	TableContents(int) map[uint64]uint64
	Counter(string) uint64
	Stats() (uint64, uint64)
	Traps() uint64
	InjectTrap(string)
}

// tapeEnv records what a run did to the world outside the machine.
type tapeEnv struct {
	now  sim.Time
	tape []string
}

func (e *tapeEnv) Now() sim.Time { return e.now }
func (e *tapeEnv) Mirror(p *packet.Packet) {
	e.tape = append(e.tape, fmt.Sprintf("mirror mark=%d class=%d", p.Meta.Mark, p.Meta.Class))
}
func (e *tapeEnv) Notify(p *packet.Packet) {
	e.tape = append(e.tape, fmt.Sprintf("notify mark=%d class=%d", p.Meta.Mark, p.Meta.Class))
}

// forwardOnly reports whether every jump of p goes forward (or out of the
// program, which traps): the programs the oracle is sure to finish.
func forwardOnly(p *overlay.Program) bool {
	for i, in := range p.Code {
		switch in.Op {
		case overlay.OpJmp, overlay.OpJeq, overlay.OpJne, overlay.OpJlt, overlay.OpJle,
			overlay.OpJgt, overlay.OpJge, overlay.OpLookup:
			if in.Target >= 0 && in.Target <= i {
				return false
			}
		}
	}
	return true
}

var (
	scriptPorts = []uint16{0, 1, 80, 99, 443, 999, 1000, 1500, 2000, 2001, 5432, 8999, 9000, 9014, 9030, 9031, 65535}
	scriptIPs   = []packet.IPv4{packet.MakeIP(10, 0, 0, 2), packet.MakeIP(10, 1, 2, 3), packet.MakeIP(192, 168, 1, 9)}
	scriptUIDs  = []uint32{0, 1000, 1001, 7}
)

// drive plays a script against two lowered machines and two oracle machines
// of p (a pair each, so ShareTable has something to alias) and fails on the
// first difference in anything a caller can observe. The script is bytes: an
// opcode, then that opcode's operands, until it runs out. It also holds every
// run to the program's cycle bound.
func drive(t *testing.T, p *overlay.Program, script []byte) {
	t.Helper()
	low := [2]machine{overlay.NewMachine(p), overlay.NewMachine(p)}
	ref := [2]machine{overlay.NewRefMachine(p), overlay.NewRefMachine(p)}
	lowEnv, refEnv := &tapeEnv{}, &tapeEnv{}
	bound := p.CycleBound()

	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	tableName := func() string {
		if len(p.Tables) == 0 {
			return "absent" // both sides must refuse it alike
		}
		return p.Tables[int(next())%len(p.Tables)].Name
	}
	key := func() uint64 {
		if b := next(); b&1 == 0 {
			return uint64(b>>1) % 8 // conn ids, small constants
		}
		sport := scriptPorts[int(next())%len(scriptPorts)]
		dport := scriptPorts[int(next())%len(scriptPorts)]
		return uint64(sport)<<16 | uint64(dport) // the ACL chain's per-flow key
	}
	sameErr := func(step int, what string, a, b error) {
		t.Helper()
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) ||
			errors.Is(a, overlay.ErrTableFull) != errors.Is(b, overlay.ErrTableFull) {
			t.Fatalf("step %d: %s: lowered %v, oracle %v", step, what, a, b)
		}
	}

	for step := 0; len(script) > 0 && step < 256; step++ {
		op := next()
		side := int(op>>3) & 1
		switch op % 8 {
		default: // a packet through one machine of each pair
			lp := buildPacket(next)
			rp := lp.Clone()
			advance := sim.Duration(next()) * 37 * sim.Microsecond
			lowEnv.now = lowEnv.now.Add(advance)
			refEnv.now = refEnv.now.Add(advance)

			lv, lc, lerr := low[side].Run(lp, lowEnv)
			rv, rc, rerr := ref[side].Run(rp, refEnv)
			if lv != rv || lc != rc {
				t.Fatalf("step %d: verdict/cycles: lowered %v/%d, oracle %v/%d", step, lv, lc, rv, rc)
			}
			var lt, rt *overlay.Trap
			if errors.As(lerr, &lt) != errors.As(rerr, &rt) || (lt != nil && trapClass(lt) != trapClass(rt)) {
				t.Fatalf("step %d: trap: lowered %v, oracle %v", step, lerr, rerr)
			}
			if lp.Meta != rp.Meta {
				t.Fatalf("step %d: meta: lowered %+v, oracle %+v", step, lp.Meta, rp.Meta)
			}
			if lc > bound {
				t.Fatalf("step %d: run charged %d cycles, CycleBound() = %d", step, lc, bound)
			}
		case 4:
			name, k, v := tableName(), key(), uint64(next())
			sameErr(step, "TableInsert", low[side].TableInsert(name, k, v), ref[side].TableInsert(name, k, v))
		case 5:
			name, k := tableName(), key()
			sameErr(step, "TableDelete", low[side].TableDelete(name, k), ref[side].TableDelete(name, k))
		case 6:
			reason := fmt.Sprintf("fault %d", next()%3)
			low[side].InjectTrap(reason)
			ref[side].InjectTrap(reason)
		case 7:
			name := tableName()
			sameErr(step, "ShareTable",
				low[1].(*overlay.Machine).ShareTable(name, low[0].(*overlay.Machine), name),
				ref[1].(*overlay.RefMachine).ShareTable(name, ref[0].(*overlay.RefMachine), name))
		}

		if !reflect.DeepEqual(lowEnv.tape, refEnv.tape) {
			t.Fatalf("step %d: mirror/notify: lowered %v, oracle %v", step, lowEnv.tape, refEnv.tape)
		}
		for s := range low {
			l, r := low[s], ref[s]
			lr, lcy := l.Stats()
			rr, rcy := r.Stats()
			if lr != rr || lcy != rcy || l.Traps() != r.Traps() {
				t.Fatalf("step %d: machine %d stats: lowered %d/%d/%d, oracle %d/%d/%d",
					step, s, lr, lcy, l.Traps(), rr, rcy, r.Traps())
			}
			for i, ts := range p.Tables {
				if l.TableLen(ts.Name) != r.TableLen(ts.Name) ||
					!reflect.DeepEqual(l.TableContents(i), r.TableContents(i)) {
					t.Fatalf("step %d: machine %d table %d: lowered %v, oracle %v",
						step, s, i, l.TableContents(i), r.TableContents(i))
				}
			}
			for _, c := range p.Counters {
				if l.Counter(c.Name) != r.Counter(c.Name) {
					t.Fatalf("step %d: machine %d counter %s: lowered %d, oracle %d",
						step, s, c.Name, l.Counter(c.Name), r.Counter(c.Name))
				}
			}
		}
	}
}

// trapClass is a trap with the operands cut off a recovered runtime error:
// when two indices of one instruction are both out of range, which of them
// the runtime names depends on the order the compiler evaluated them in.
func trapClass(t *overlay.Trap) overlay.Trap {
	c := *t
	c.Reason, _, _ = strings.Cut(c.Reason, " [")
	return c
}

// buildPacket draws one packet from the script: UDP, TCP or ARP, ports and
// addresses from small sets the corpus programs discriminate on, a length,
// and metadata that is sometimes trusted.
func buildPacket(next func() byte) *packet.Packet {
	kind := next()
	src := scriptIPs[int(next())%len(scriptIPs)]
	dst := scriptIPs[int(next())%len(scriptIPs)]
	sport := scriptPorts[int(next())%len(scriptPorts)]
	dport := scriptPorts[int(next())%len(scriptPorts)]
	payload := int(next()) * 6
	meta := next()
	var p *packet.Packet
	switch kind % 4 {
	case 0, 1:
		p = packet.NewUDP(packet.MAC{1}, packet.MAC{2}, src, dst, sport, dport, payload)
	case 2:
		p = packet.NewTCP(packet.MAC{1}, packet.MAC{2}, src, dst, sport, dport, kind>>2, payload)
	case 3:
		p = packet.NewARPRequest(packet.MAC{1}, src, dst)
	}
	if p.IP != nil {
		p.IP.TOS = kind >> 4
	}
	p.Meta = packet.Meta{
		TrustedMeta: meta&1 == 1,
		UID:         scriptUIDs[int(meta>>1)%len(scriptUIDs)],
		PID:         uint32(meta >> 3 & 3),
		CommandID:   uint32(meta >> 5 & 1),
		ConnID:      uint64(meta >> 6),
		Mark:        uint32(meta >> 2 & 1),
	}
	return p
}

// seedScripts are the scripts every corpus program runs under plain `go
// test`. The first fills table 0 past a capacity of four from both planes
// (keys 0 and 5 share a home slot, so deleting 0 must pull 5 back through the
// probe chain), aliases the pair's tables and arms a trap on each machine,
// with packets of every kind in between; the second is long and random.
func seedScripts() [][]byte {
	var fill []byte
	pkt := func(side, kind, sport, dport, length, meta byte) {
		fill = append(fill, side<<3, kind, 0, 1, sport, dport, length, meta, 3)
	}
	insert := func(key, val byte) { fill = append(fill, 4, 0, key<<1, val) }
	remove := func(key byte) { fill = append(fill, 5, 0, key<<1) }
	conns := func(side byte) {
		for conn := byte(0); conn < 4; conn++ {
			pkt(side, 0, 3, 10, 20, conn<<6|1)
			pkt(side, 2|0x12<<2, 3, 2, 200, conn<<6)
		}
	}
	for i, key := range []byte{0, 5, 1, 2, 3, 4} { // the last two are refused
		insert(key, 10+byte(i))
	}
	insert(5, 99) // a full table still overwrites
	conns(0)      // conn 3 is not in the table and cannot enter it
	remove(0)
	insert(5, 55) // found again behind the slot 0 left
	remove(1)
	conns(0) // now conn 3 fits
	insert(7, 70)
	fill = append(fill, 7, 0) // machine 1's table becomes machine 0's
	conns(1)
	pkt(0, 3, 0, 0, 0, 0)                // ARP
	fill = append(fill, 6, 1, 6|1<<3, 2) // a trap armed on each machine
	for i := byte(0); i < 17; i++ {
		pkt(i&1, i, i, 16-i, i*15, i*37)
	}

	random := make([]byte, 1536)
	rand.New(rand.NewSource(18)).Read(random)
	return [][]byte{fill, random}
}

// FuzzOverlayLowering holds Machine.Run — the lowered executor — to the
// instruction-at-a-time loop it replaced (oracle_test.go), on a sequence of
// packets with control-plane table edits, table sharing and injected traps in
// between. sel picks a corpus program; 0 (or past the end) decodes prog the
// way FuzzVerify does. Programs Verify rejects run too, for trap parity, as
// long as no jump goes backward (the oracle would not return).
func FuzzOverlayLowering(f *testing.F) {
	progs := corpus(f)
	scripts := seedScripts()
	for i := range progs {
		for _, s := range scripts {
			f.Add(uint8(i+1), []byte(nil), s)
		}
	}
	for _, seed := range [][]byte{
		{1, 1, 1, byte(overlay.OpPass), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{
			0, 0, 0,
			byte(overlay.OpLdi), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
			byte(overlay.OpJeq), 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0,
			byte(overlay.OpDrop), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		},
		{
			1, 0, 0,
			byte(overlay.OpLdi), 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0,
			byte(overlay.OpLookup), 0, 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0,
		},
	} {
		f.Add(uint8(0), seed, scripts[0])
	}

	f.Fuzz(func(t *testing.T, sel uint8, prog, script []byte) {
		var p *overlay.Program
		if sel >= 1 && int(sel) <= len(progs) {
			p = progs[sel-1].prog
		} else if p = overlay.DecodeProgram(prog); p == nil {
			return
		}
		if overlay.Verify(p) != nil && !forwardOnly(p) {
			return
		}
		drive(t, p, script)
	})
}

// TestCycleBoundIsSound: CycleBound() is the worst path's charge, not the
// instruction count, and no run of any corpus program exceeds it.
func TestCycleBoundIsSound(t *testing.T) {
	for _, c := range []struct {
		name string
		prog *overlay.Program
		want int
	}{
		// 59 × 8 + 1; the instruction count would say 60.
		{"mirror chain", mirrorChain(t), 473},
		// E13's adversary: all ALU, so the count and the charge agree.
		{"e13 adversary", mustAssemble(t, "adv", "ldi r0, 0\n"+strings.Repeat("add r0, 1\n", 200)+"pass\n"), 202},
		// rx_slowpath: ldf, 31 compares, the 3-op key, lookup 4, then the
		// hit arm (add, update 4, jmp) over the miss arm (ldi, update 4),
		// ldi, setf, pass.
		{"acl per flow", mustAssemble(t, "acl", overlay.ACLSource(true)), 1 + 31 + 3 + 4 + 6 + 3},
		// Branchy and all-ALU: only one arm is ever paid for.
		{"two arms", mustAssemble(t, "arms", "ldf r0, proto\njeq r0, 6, tcp\nldi r1, 1\nldi r1, 2\nldi r1, 3\npass\ntcp:\npass\n"), 6},
	} {
		if got := c.prog.CycleBound(); got != c.want {
			t.Errorf("%s: CycleBound() = %d, want %d", c.name, got, c.want)
		}
	}
	scripts := seedScripts()
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range scripts {
				drive(t, c.prog, s)
			}
		})
	}
}
