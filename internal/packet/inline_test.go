package packet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// sink keeps constructor results alive so the measured allocation is real.
var sink *Packet

// TestConstructorAllocs pins the per-frame constructors at one allocation:
// the IP/UDP/TCP headers live inside the Packet. It also pins the size class
// that makes that a saving — 208 bytes is an allocator class boundary, one
// more word would round every frame up to 224.
func TestConstructorAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(Packet{}); sz > 208 {
		t.Fatalf("Packet is %d bytes, over the 208-byte allocator size class", sz)
	}
	udp := NewUDP(MAC{1}, MAC{2}, 1, 2, 3, 4, 64)
	tcp := NewTCP(MAC{1}, MAC{2}, 1, 2, 3, 4, TCPAck, 64)
	carrying := udp.Clone()
	carrying.Payload = make([]byte, 64)
	for _, tc := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"NewUDP", func() { sink = NewUDP(MAC{1}, MAC{2}, 1, 2, 3, 4, 64) }, 1},
		{"NewTCP", func() { sink = NewTCP(MAC{1}, MAC{2}, 1, 2, 3, 4, TCPAck, 64) }, 1},
		{"Clone(udp)", func() { sink = udp.Clone() }, 1},
		{"Clone(tcp)", func() { sink = tcp.Clone() }, 1},
		{"Clone(payload)", func() { sink = carrying.Clone() }, 2},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s allocates %.1f, want %.0f", tc.name, got, tc.want)
		}
	}
}

// TestFramesRecycle pins the free list's contract: only a frame it lent comes
// back, once, with its header pointers cleared; the next frame built is that
// one, exactly as the GC constructors would build it, without allocating; and
// the list keeps at most framesKept.
func TestFramesRecycle(t *testing.T) {
	var f Frames
	lent := f.UDP(MAC{1}, MAC{2}, 1, 2, 3, 4, 64)
	f.Recycle(NewUDP(MAC{1}, MAC{2}, 1, 2, 3, 4, 64))
	f.Recycle(lent.Clone())
	if f.Len() != 0 {
		t.Fatalf("the list took %d frames it never lent", f.Len())
	}
	f.Recycle(lent)
	if f.Len() != 1 || lent.IP != nil || lent.UDP != nil || lent.TCP != nil {
		t.Fatalf("recycled frame: list holds %d, headers IP=%v UDP=%v TCP=%v", f.Len(), lent.IP, lent.UDP, lent.TCP)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("recycling a frame twice did not panic")
			}
		}()
		f.Recycle(lent)
	}()
	reused := f.TCP(MAC{5}, MAC{6}, 7, 8, 9, 10, TCPAck, 100)
	fresh := NewTCP(MAC{5}, MAC{6}, 7, 8, 9, 10, TCPAck, 100)
	if reused != lent || reused.UDP != nil || *reused.IP != *fresh.IP || *reused.TCP != *fresh.TCP ||
		reused.Eth != fresh.Eth || reused.Meta != fresh.Meta || reused.PayloadLen != fresh.PayloadLen {
		t.Fatalf("the rebuilt frame differs from a fresh one: %+v vs %+v", reused, fresh)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Recycle(f.UDP(MAC{1}, MAC{2}, 1, 2, 3, 4, 64)) }); allocs != 0 {
		t.Errorf("a frame off the list allocates %.1f, want 0", allocs)
	}
	burst := make([]*Packet, framesKept+10)
	for i := range burst {
		burst[i] = f.UDP(MAC{}, MAC{}, 1, 2, 3, 4, 0)
	}
	for _, p := range burst {
		f.Recycle(p)
	}
	if f.Len() != framesKept {
		t.Errorf("the list holds %d frames, bound %d", f.Len(), framesKept)
	}
}

// TestCloneOwnsItsHeaders is the aliasing half of single-allocation packets:
// a clone's header pointers must aim at the clone's own storage, so header
// rewrites on sibling copies never show through the origin or each other —
// whether the origin's headers were inline (NewTCP) or separately allocated
// (a literal, Unmarshal).
func TestCloneOwnsItsHeaders(t *testing.T) {
	inline := NewTCP(MAC{1}, MAC{2}, 10, 20, 30, 40, TCPAck, 3000)
	inline.TCP.Seq = 1000
	literal := &Packet{IP: &IP{Src: 10, Dst: 20, Proto: ProtoTCP}, TCP: &TCP{SrcPort: 30, DstPort: 40, Seq: 1000}, PayloadLen: 3000}
	udp := NewUDP(MAC{1}, MAC{2}, 10, 20, 30, 40, 64)
	for name, origin := range map[string]*Packet{"inline": inline, "literal": literal, "udp": udp} {
		segs := []*Packet{origin.Clone(), origin.Clone(), origin.Clone().Clone()}
		for i, s := range segs {
			if s.IP != &s.ip || (s.TCP != nil && s.TCP != &s.tcp) || (s.UDP != nil && s.UDP != &s.udp) {
				t.Fatalf("%s: segment %d's headers are not its own storage", name, i)
			}
			s.IP.Src, s.IP.Dst = IPv4(100+i), IPv4(200+i)
			if s.TCP != nil {
				s.TCP.Seq += uint32(1000 * (i + 1))
				s.TCP.SrcPort = uint16(i)
			} else {
				s.UDP.SrcPort = uint16(i)
			}
		}
		if origin.IP.Src != 10 || origin.IP.Dst != 20 {
			t.Fatalf("%s: a clone's IP rewrite shows through the origin: %v->%v", name, origin.IP.Src, origin.IP.Dst)
		}
		if origin.TCP != nil && (origin.TCP.Seq != 1000 || origin.TCP.SrcPort != 30) {
			t.Fatalf("%s: a clone's TCP rewrite shows through the origin: %+v", name, *origin.TCP)
		}
		if origin.UDP != nil && origin.UDP.SrcPort != 30 {
			t.Fatalf("%s: a clone's UDP rewrite shows through the origin: %+v", name, *origin.UDP)
		}
		for i, s := range segs {
			if s.IP.Src != IPv4(100+i) || (s.TCP != nil && s.TCP.Seq != 1000+uint32(1000*(i+1))) {
				t.Fatalf("%s: segment %d saw a sibling's rewrite", name, i)
			}
			if k, _ := s.Flow(); k.SrcPort != uint16(i) {
				t.Fatalf("%s: segment %d flow key %v", name, i, k)
			}
		}
	}
}

// module is a tolerant importer for TestNoPacketValueCopies: the module's own
// packages are type-checked from source, anything else (the standard library)
// is an empty stub — its uses fail to type, which is fine, because a Packet
// never flows through one.
type module struct {
	root  string
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package
	funcs []*ast.FuncDecl // every function declaration parsed, to name a position's enclosing one
}

// enclosing names the function declaration that contains pos, or "".
func (m *module) enclosing(pos token.Pos) string {
	for _, fn := range m.funcs {
		if fn.Pos() <= pos && pos < fn.End() {
			return fn.Name.Name
		}
	}
	return ""
}

func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if !strings.HasPrefix(path, "norman") {
		p := types.NewPackage(path, filepath.Base(path))
		p.MarkComplete()
		m.pkgs[path] = p
		return p, nil
	}
	return m.check(path, filepath.Join(m.root, strings.TrimPrefix(path, "norman")), false), nil
}

// check type-checks the package in dir, with its in-package tests when asked.
func (m *module) check(path, dir string, tests bool) *types.Package {
	parsed, _ := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		return tests || !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	var files []*ast.File
	for name, p := range parsed {
		if !strings.HasSuffix(name, "_test") {
			for _, f := range p.Files {
				files = append(files, f)
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok {
						m.funcs = append(m.funcs, fn)
					}
				}
			}
		}
	}
	cfg := types.Config{Importer: m, Error: func(error) {}}
	pkg, _ := cfg.Check(path, m.fset, files, m.info)
	if !tests {
		m.pkgs[path] = pkg
	}
	return pkg
}

// holdsPacket reports whether a value of type t contains a Packet by value.
func holdsPacket(t types.Type) bool {
	switch t := t.(type) {
	case *types.Named:
		o := t.Obj()
		return o.Name() == "Packet" && o.Pkg() != nil && o.Pkg().Path() == "norman/internal/packet"
	case *types.Array:
		return holdsPacket(t.Elem())
	case *types.Slice:
		return holdsPacket(t.Elem())
	case *types.Map:
		return holdsPacket(t.Elem()) || holdsPacket(t.Key())
	case *types.Chan:
		return holdsPacket(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsPacket(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// TestNoPacketValueCopies walks every package of the module and fails on a
// by-value Packet: a dereferenced *Packet used as a value, or a variable,
// field, parameter or element declared Packet rather than *Packet. Such a
// copy's IP/UDP/TCP pointers still aim at the origin's embedded storage —
// two "packets" sharing one set of headers. Two places write a whole Packet
// through a pointer, both in packet.go: Clone copies the struct and re-aims
// the pointers, and initIPv4 — the one in-place init every IPv4 constructor
// and the free list build on — overwrites a frame with a fresh literal.
func TestNoPacketValueCopies(t *testing.T) {
	m := &module{root: filepath.Join("..", ".."), fset: token.NewFileSet(), pkgs: map[string]*types.Package{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}}}
	err := filepath.WalkDir(m.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && path != m.root {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) > 0 {
			rel, _ := filepath.Rel(m.root, path)
			m.check(filepath.ToSlash(filepath.Join("norman", rel)), path, true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	where := func(pos token.Pos) string {
		p := m.fset.Position(pos)
		rel, _ := filepath.Rel(m.root, p.Filename)
		return filepath.ToSlash(rel)
	}
	admitted, pointers := map[string]int{}, 0
	for e, tv := range m.info.Types {
		if ptr, ok := tv.Type.(*types.Pointer); ok && holdsPacket(ptr.Elem()) && !strings.Contains(where(e.Pos()), "internal/packet/") {
			pointers++
		}
		if _, deref := e.(*ast.StarExpr); !deref || !tv.IsValue() || !holdsPacket(tv.Type) {
			continue
		}
		if fn := m.enclosing(e.Pos()); where(e.Pos()) == "internal/packet/packet.go" && (fn == "Clone" || fn == "initIPv4") {
			admitted[fn]++ // `*q = *p`, which Clone then repairs; `*p = Packet{…}`
			continue
		}
		t.Errorf("%s: *Packet dereferenced as a value; the copy shares the origin's headers — use Clone", m.fset.Position(e.Pos()))
	}
	for id, obj := range m.info.Defs {
		if v, ok := obj.(*types.Var); ok && holdsPacket(v.Type()) {
			t.Errorf("%s: %s holds a Packet by value; hold a *Packet", m.fset.Position(id.Pos()), id.Name)
		}
	}
	// Positive controls: the checker saw Clone's copy and the in-place init,
	// and resolved the type across package boundaries (the datapath is full
	// of *Packet).
	if admitted["Clone"] == 0 || admitted["initIPv4"] == 0 || pointers < 100 {
		t.Fatalf("checker is blind: %d derefs seen in Clone, %d in initIPv4, %d *Packet expressions outside the package",
			admitted["Clone"], admitted["initIPv4"], pointers)
	}
}
