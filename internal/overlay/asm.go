package overlay

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Assemble parses overlay assembly text into a verified Program.
//
// Syntax, one statement per line; '#' starts a comment:
//
//	.table  <name> <capacity>          declare exact-match table
//	.meter  <name> <rate_Bps> <burst_B> declare token-bucket meter
//	.counter <name>                    declare counter
//	<label>:                           define jump label
//	ldf   rD, <field>                  load packet field
//	ldi   rD, <imm>                    load immediate (0x.. or decimal)
//	mov   rD, rS
//	add|sub|and|or|xor|shl|shr rD, rS|imm
//	jmp   <label>
//	jeq|jne|jlt|jle|jgt|jge rA, rB|imm, <label>
//	lookup rD, <table>, rKey, <miss-label>
//	update <table>, rKey, rV
//	meter  rD, <meter>, rLen
//	setf  <field>, rS
//	count <counter>
//	mirror | notify | pass | drop | nop
//
// Labels must be defined after every jump that references them (forward-only
// control flow); Assemble enforces this and ends in NewProgram, the full
// verifier.
func Assemble(name, src string) (*Program, error) {
	p := &Program{Name: name}
	labels := map[string]int{}
	tables := map[string]int{}
	meters := map[string]int{}
	counters := map[string]int{}

	type fixup struct {
		inst  int
		label string
		line  int
	}
	var fixups []fixup

	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		// Directives.
		if strings.HasPrefix(line, ".") {
			f := strings.Fields(line)
			switch f[0] {
			case ".table":
				if len(f) != 3 {
					return nil, asmErr(lineNo, ".table wants <name> <capacity>")
				}
				capacity, err := strconv.Atoi(f[2])
				if err != nil || capacity <= 0 {
					return nil, asmErr(lineNo, "bad table capacity %q", f[2])
				}
				if _, dup := tables[f[1]]; dup {
					return nil, asmErr(lineNo, "duplicate table %q", f[1])
				}
				tables[f[1]] = len(p.Tables)
				p.Tables = append(p.Tables, TableSpec{Name: f[1], Capacity: capacity})
			case ".meter":
				if len(f) != 4 {
					return nil, asmErr(lineNo, ".meter wants <name> <rate_Bps> <burst_B>")
				}
				rate, err1 := strconv.ParseFloat(f[2], 64)
				burst, err2 := strconv.ParseFloat(f[3], 64)
				if err1 != nil || err2 != nil || rate <= 0 || burst <= 0 {
					return nil, asmErr(lineNo, "bad meter parameters")
				}
				if _, dup := meters[f[1]]; dup {
					return nil, asmErr(lineNo, "duplicate meter %q", f[1])
				}
				meters[f[1]] = len(p.Meters)
				p.Meters = append(p.Meters, MeterSpec{Name: f[1], Rate: rate, Burst: burst})
			case ".counter":
				if len(f) != 2 {
					return nil, asmErr(lineNo, ".counter wants <name>")
				}
				if _, dup := counters[f[1]]; dup {
					return nil, asmErr(lineNo, "duplicate counter %q", f[1])
				}
				counters[f[1]] = len(p.Counters)
				p.Counters = append(p.Counters, CounterSpec{Name: f[1]})
			default:
				return nil, asmErr(lineNo, "unknown directive %q", f[0])
			}
			continue
		}

		// Label definitions.
		if strings.HasSuffix(line, ":") {
			label := strings.TrimSuffix(line, ":")
			if !validIdent(label) {
				return nil, asmErr(lineNo, "bad label %q", label)
			}
			if _, dup := labels[label]; dup {
				return nil, asmErr(lineNo, "duplicate label %q", label)
			}
			labels[label] = len(p.Code)
			continue
		}

		// Instructions.
		mn, rest, _ := strings.Cut(line, " ")
		args := splitArgs(rest)
		// An unknown mnemonic is index -1: an Op the switch below refuses.
		in := Inst{Op: Op(slices.Index(opNames[:], mn)), Target: -1}

		regOf := func(s string) (uint8, error) {
			if !strings.HasPrefix(s, "r") {
				return 0, fmt.Errorf("expected register, got %q", s)
			}
			n, err := strconv.Atoi(s[1:])
			if err != nil || n < 0 || n >= NumRegs {
				return 0, fmt.Errorf("bad register %q", s)
			}
			return uint8(n), nil
		}
		immOf := func(s string) (uint64, error) {
			return strconv.ParseUint(strings.TrimPrefix(s, "0x"), base(s), 64)
		}
		fieldOf := func(s string) (Field, error) {
			if f := slices.Index(fieldNames[:], s); f >= 0 {
				return Field(f), nil
			}
			return 0, fmt.Errorf("unknown field %q", s)
		}
		// regOrImm fills B or Imm+Val from an operand.
		regOrImm := func(s string) error {
			if strings.HasPrefix(s, "r") {
				if r, err := regOf(s); err == nil {
					in.B = r
					return nil
				}
			}
			v, err := immOf(s)
			if err != nil {
				return fmt.Errorf("operand %q is neither register nor immediate", s)
			}
			in.Imm = true
			in.Val = v
			return nil
		}

		var err error
		switch in.Op {
		case OpNop, OpPass, OpDrop, OpMirror, OpNotify:
			// no operands
		case OpLdf:
			if len(args) != 2 {
				return nil, asmErr(lineNo, "ldf wants rD, <field>")
			}
			if in.A, err = regOf(args[0]); err == nil {
				in.F, err = fieldOf(args[1])
			}
		case OpLdi:
			if len(args) != 2 {
				return nil, asmErr(lineNo, "ldi wants rD, <imm>")
			}
			if in.A, err = regOf(args[0]); err == nil {
				in.Val, err = immOf(args[1])
			}
		case OpMov:
			if len(args) != 2 {
				return nil, asmErr(lineNo, "mov wants rD, rS")
			}
			if in.A, err = regOf(args[0]); err == nil {
				in.B, err = regOf(args[1])
			}
		case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr:
			if len(args) != 2 {
				return nil, asmErr(lineNo, "%s wants rD, rS|imm", mn)
			}
			if in.A, err = regOf(args[0]); err == nil {
				err = regOrImm(args[1])
			}
		case OpJmp:
			if len(args) != 1 {
				return nil, asmErr(lineNo, "jmp wants <label>")
			}
			fixups = append(fixups, fixup{len(p.Code), args[0], lineNo})
		case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge:
			if len(args) != 3 {
				return nil, asmErr(lineNo, "%s wants rA, rB|imm, <label>", mn)
			}
			if in.A, err = regOf(args[0]); err == nil {
				err = regOrImm(args[1])
			}
			fixups = append(fixups, fixup{len(p.Code), args[2], lineNo})
		case OpLookup:
			if len(args) != 4 {
				return nil, asmErr(lineNo, "lookup wants rD, <table>, rKey, <miss-label>")
			}
			if in.A, err = regOf(args[0]); err == nil {
				idx, ok := tables[args[1]]
				if !ok {
					return nil, asmErr(lineNo, "unknown table %q", args[1])
				}
				in.Index = idx
				in.B, err = regOf(args[2])
			}
			fixups = append(fixups, fixup{len(p.Code), args[3], lineNo})
		case OpUpdate:
			if len(args) != 3 {
				return nil, asmErr(lineNo, "update wants <table>, rKey, rV")
			}
			idx, ok := tables[args[0]]
			if !ok {
				return nil, asmErr(lineNo, "unknown table %q", args[0])
			}
			in.Index = idx
			if in.A, err = regOf(args[1]); err == nil {
				in.B, err = regOf(args[2])
			}
		case OpMeter:
			if len(args) != 3 {
				return nil, asmErr(lineNo, "meter wants rD, <meter>, rLen")
			}
			if in.A, err = regOf(args[0]); err == nil {
				idx, ok := meters[args[1]]
				if !ok {
					return nil, asmErr(lineNo, "unknown meter %q", args[1])
				}
				in.Index = idx
				in.B, err = regOf(args[2])
			}
		case OpSetf:
			if len(args) != 2 {
				return nil, asmErr(lineNo, "setf wants <field>, rS")
			}
			if in.F, err = fieldOf(args[0]); err == nil {
				if !in.F.Writable() {
					return nil, asmErr(lineNo, "field %s is read-only", in.F)
				}
				in.B, err = regOf(args[1])
			}
		case OpCount:
			if len(args) != 1 {
				return nil, asmErr(lineNo, "count wants <counter>")
			}
			idx, ok := counters[args[0]]
			if !ok {
				return nil, asmErr(lineNo, "unknown counter %q", args[0])
			}
			in.Index = idx
		default:
			return nil, asmErr(lineNo, "unknown mnemonic %q", mn)
		}
		if err != nil {
			return nil, asmErr(lineNo, "%v", err)
		}
		p.Code = append(p.Code, in)
	}

	// Resolve jump targets.
	for _, fx := range fixups {
		target, ok := labels[fx.label]
		if !ok {
			return nil, asmErr(fx.line, "undefined label %q", fx.label)
		}
		p.Code[fx.inst].Target = target
	}

	return NewProgram(*p)
}

func asmErr(line int, format string, args ...interface{}) error {
	return fmt.Errorf("overlay asm line %d: %s", line, fmt.Sprintf(format, args...))
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Disassemble renders the program back to assembly (labels synthesized from
// target indices). Round-tripping through Assemble yields an equivalent
// program; the tests rely on this.
func Disassemble(p *Program) string {
	var b strings.Builder
	for _, t := range p.Tables {
		fmt.Fprintf(&b, ".table %s %d\n", t.Name, t.Capacity)
	}
	for _, m := range p.Meters {
		fmt.Fprintf(&b, ".meter %s %g %g\n", m.Name, m.Rate, m.Burst)
	}
	for _, c := range p.Counters {
		fmt.Fprintf(&b, ".counter %s\n", c.Name)
	}
	// Collect jump targets needing labels.
	targets := map[int]string{}
	for _, in := range p.Code {
		if in.Target >= 0 {
			if _, ok := targets[in.Target]; !ok {
				targets[in.Target] = fmt.Sprintf("L%d", in.Target)
			}
		}
	}
	for i, in := range p.Code {
		if lbl, ok := targets[i]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		b.WriteString("\t")
		b.WriteString(disasmInst(p, in, targets))
		b.WriteString("\n")
	}
	// A trailing label (jump to end).
	if lbl, ok := targets[len(p.Code)]; ok {
		fmt.Fprintf(&b, "%s:\n\tpass\n", lbl)
	}
	return b.String()
}

func disasmInst(p *Program, in Inst, targets map[int]string) string {
	reg := func(r uint8) string { return fmt.Sprintf("r%d", r) }
	bOrImm := func() string {
		if in.Imm {
			return strconv.FormatUint(in.Val, 10)
		}
		return reg(in.B)
	}
	switch in.Op {
	case OpNop, OpPass, OpDrop, OpMirror, OpNotify:
		return in.Op.String()
	case OpLdf:
		return fmt.Sprintf("ldf %s, %s", reg(in.A), in.F)
	case OpLdi:
		return fmt.Sprintf("ldi %s, %d", reg(in.A), in.Val)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", reg(in.A), reg(in.B))
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return fmt.Sprintf("%s %s, %s", in.Op, reg(in.A), bOrImm())
	case OpJmp:
		return fmt.Sprintf("jmp %s", targets[in.Target])
	case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, reg(in.A), bOrImm(), targets[in.Target])
	case OpLookup:
		return fmt.Sprintf("lookup %s, %s, %s, %s", reg(in.A), p.Tables[in.Index].Name, reg(in.B), targets[in.Target])
	case OpUpdate:
		return fmt.Sprintf("update %s, %s, %s", p.Tables[in.Index].Name, reg(in.A), reg(in.B))
	case OpMeter:
		return fmt.Sprintf("meter %s, %s, %s", reg(in.A), p.Meters[in.Index].Name, reg(in.B))
	case OpSetf:
		return fmt.Sprintf("setf %s, %s", in.F, reg(in.B))
	case OpCount:
		return fmt.Sprintf("count %s", p.Counters[in.Index].Name)
	default:
		return in.Op.String()
	}
}
