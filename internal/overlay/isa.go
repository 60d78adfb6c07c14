// Package overlay implements the paper's FPGA "overlay" (§4.4): a custom,
// non-Turing-complete processor with a domain-specific instruction set for
// dataplane policy. Policies — filters, meters, marking, capture taps,
// notification triggers — are expressed as small programs, assembled from
// text, statically verified (forward-only jumps, so every program
// terminates; registers provably initialized before use), and run with a
// per-instruction cycle cost charged at the NIC clock.
//
// What executes is a lowered form of the verified program, built once per
// Machine (lower.go): operands and costs pre-decoded, runs of immediate
// compares on one register fused into ladders, tables bound to fixed-capacity
// open-addressed blocks. Lowering changes host time only — the modelled cycle
// charge is still Inst.Cost() per source instruction executed, and the
// instruction-at-a-time loop it replaced is the tests' differential oracle.
//
// Loading a new program is a runtime operation measured in microseconds,
// versus a full "bitstream" reconfiguration measured in seconds; experiment
// E4 quantifies exactly this gap.
package overlay

import "fmt"

// Op is an overlay opcode.
type Op uint8

// Opcodes. Arithmetic ops have register and immediate forms distinguished by
// the Imm flag on the instruction, not separate opcodes.
const (
	OpNop    Op = iota
	OpLdf       // rD = packet field
	OpLdi       // rD = imm
	OpMov       // rD = rS
	OpAdd       // rD += rS/imm
	OpSub       // rD -= rS/imm
	OpAnd       // rD &= rS/imm
	OpOr        // rD |= rS/imm
	OpXor       // rD ^= rS/imm
	OpShl       // rD <<= rS/imm (mod 64)
	OpShr       // rD >>= rS/imm (mod 64)
	OpJmp       // unconditional forward jump
	OpJeq       // if rA == rB/imm jump
	OpJne       // if rA != rB/imm jump
	OpJlt       // if rA <  rB/imm jump
	OpJle       // if rA <= rB/imm jump
	OpJgt       // if rA >  rB/imm jump
	OpJge       // if rA >= rB/imm jump
	OpLookup    // rD = table[rKey]; jump to target on miss
	OpUpdate    // table[rKey] = rV
	OpMeter     // rD = 1 if meter conforms for rLen bytes else 0
	OpSetf      // writable packet field = rS
	OpCount     // counter++
	OpMirror    // copy packet to the capture tap
	OpNotify    // append a notification for the owning connection
	OpPass      // terminal: accept packet
	OpDrop      // terminal: drop packet
	numOps
)

// opNames and fieldNames are indexed by value; the assembler reads them
// backwards with slices.Index.
var opNames = [numOps]string{
	OpNop: "nop", OpLdf: "ldf", OpLdi: "ldi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr",
	OpJmp: "jmp", OpJeq: "jeq", OpJne: "jne", OpJlt: "jlt", OpJle: "jle",
	OpJgt: "jgt", OpJge: "jge",
	OpLookup: "lookup", OpUpdate: "update", OpMeter: "meter",
	OpSetf: "setf", OpCount: "count", OpMirror: "mirror", OpNotify: "notify",
	OpPass: "pass", OpDrop: "drop",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Field identifies a packet or metadata field readable with ldf (and, for
// the writable subset, settable with setf).
type Field uint8

// Fields.
const (
	FSrcIP Field = iota
	FDstIP
	FSrcPort
	FDstPort
	FProto
	FLen      // frame length in bytes
	FEthType  // EtherType
	FARPOp    // ARP opcode, 0 for non-ARP
	FTOS      // IPv4 TOS
	FTCPFlags // TCP flags, 0 for non-TCP
	FUID      // owning user id (trusted metadata; 0 off-host)
	FPID      // owning process id (trusted metadata; 0 off-host)
	FCmdID    // interned command id (trusted metadata; 0 off-host)
	FConn     // owning connection id
	FMark     // firewall mark (writable)
	FClass    // qdisc class (writable)
	FTimeNS   // current virtual time, nanoseconds
	numFields
)

var fieldNames = [numFields]string{
	FSrcIP: "src_ip", FDstIP: "dst_ip", FSrcPort: "src_port", FDstPort: "dst_port",
	FProto: "proto", FLen: "len", FEthType: "eth_type", FARPOp: "arp_op",
	FTOS: "tos", FTCPFlags: "tcp_flags", FUID: "uid", FPID: "pid",
	FCmdID: "cmd_id", FConn: "conn", FMark: "mark", FClass: "class",
	FTimeNS: "time_ns",
}

func (f Field) String() string {
	if f < numFields {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// Writable reports whether setf may assign the field.
func (f Field) Writable() bool { return f == FMark || f == FClass }

// NumRegs is the register file size.
const NumRegs = 16

// Inst is one decoded instruction. Operand meaning varies by opcode:
//
//	ldf   rD=A Field=F
//	ldi   rD=A Imm
//	mov   rD=A rS=B
//	alu   rD=A rS=B (Imm form: Imm flag + Val)
//	jcc   rA=A rB=B (or Imm) Target
//	lookup rD=A rKey=B Table Target(miss)
//	update rKey=A rV=B Table
//	meter  rD=A rLen=B Meter
//	setf   Field=F rS=B
//	count  Counter
type Inst struct {
	Op     Op
	A, B   uint8
	F      Field
	Imm    bool
	Val    uint64
	Target int // resolved jump target (instruction index)
	Index  int // table/meter/counter index
}

// Terminal reports whether executing the instruction ends the program.
func (in Inst) Terminal() bool { return in.Op == OpPass || in.Op == OpDrop }

// Cost returns the instruction's cost in overlay cycles. Table and meter
// operations touch SRAM and cost more than register ALU ops, matching how a
// pipelined match-action stage budgets its clock.
func (in Inst) Cost() int {
	switch in.Op {
	case OpLookup, OpUpdate:
		return 4
	case OpMeter:
		return 6
	case OpMirror, OpNotify:
		return 8
	case OpNop:
		return 1
	default:
		return 1
	}
}

// TableSpec declares an exact-match table used by a program.
type TableSpec struct {
	Name     string
	Capacity int
}

// MeterSpec declares a token-bucket meter: Rate bytes/second replenishment,
// Burst bytes of bucket depth.
type MeterSpec struct {
	Name  string
	Rate  float64
	Burst float64
}

// CounterSpec declares a named counter.
type CounterSpec struct {
	Name string
}

// Program is a verified overlay program plus its resource declarations.
type Program struct {
	Name     string
	Code     []Inst
	Tables   []TableSpec
	Meters   []MeterSpec
	Counters []CounterSpec
}

// NewProgram verifies p and returns it, or the verifier's error prefixed
// with the program's name. Assemble ends here, and so does a compiler that
// emits Inst values directly (filter.CompileOverlay): one verification tail
// for every program the product builds.
func NewProgram(p Program) (*Program, error) {
	if err := Verify(&p); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return &p, nil
}

// Verdict is the terminal decision of a program run.
type Verdict uint8

// Verdicts.
const (
	VerdictPass Verdict = iota
	VerdictDrop
)

func (v Verdict) String() string {
	if v == VerdictDrop {
		return "drop"
	}
	return "pass"
}

// CycleBound returns the program's worst-case per-packet cycle charge: the
// most expensive path through it, each instruction at its Cost(). The
// verifier enforces forward-only control flow, so the paths are those of a
// DAG and the lowering pass finds the maximum in one backward walk; no run
// of the program can be charged more. A program that can loop (Verify
// rejects it) has no bound and reports the largest int. The overload
// governor's AdmitProgram gates installation on it; each call lowers the
// program afresh, a control-plane cost paid once per admission.
func (p *Program) CycleBound() int { return lower(p).bound }

// SRAMBytes estimates the on-NIC memory the program's state consumes:
// 16 bytes per exact-match table slot, 32 per meter, 8 per counter, plus
// 8 bytes per instruction of program store. Experiment E5 uses this to model
// resource exhaustion.
func (p *Program) SRAMBytes() int {
	n := len(p.Code) * 8
	for _, t := range p.Tables {
		n += t.Capacity * 16
	}
	n += len(p.Meters) * 32
	n += len(p.Counters) * 8
	return n
}
