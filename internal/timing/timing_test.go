package timing

import (
	"reflect"
	"testing"

	"norman/internal/sim"
)

func TestCycles(t *testing.T) {
	m := Default()
	// 3 GHz: 3 cycles = 1 ns.
	if got := m.Cycles(3); got != sim.Nanosecond {
		t.Fatalf("3 cycles = %v", got)
	}
	if m.Cycles(0) != 0 || m.Cycles(-5) != 0 {
		t.Fatal("non-positive cycles are free")
	}
}

func TestNICCycles(t *testing.T) {
	m := Default()
	// 250 MHz: 1 cycle = 4 ns.
	if got := m.NICCycles(1); got != 4*sim.Nanosecond {
		t.Fatalf("1 NIC cycle = %v", got)
	}
}

func TestCopyScalesWithSize(t *testing.T) {
	m := Default()
	small := m.Copy(64)
	big := m.Copy(64 << 10)
	if small <= m.CopyFixed {
		t.Fatal("copy includes per-byte time")
	}
	if big <= small*10 {
		t.Fatalf("64KB copy (%v) should dwarf 64B (%v)", big, small)
	}
}

func TestCrossCore(t *testing.T) {
	m := Default()
	if m.CrossCore(0) != 0 {
		t.Fatal("zero bytes free")
	}
	one := m.CrossCore(64)
	if one < m.CachelineXfer {
		t.Fatal("cross-core includes the line-transfer latency")
	}
	big := m.CrossCore(64 << 10)
	if big <= one {
		t.Fatal("bandwidth term must grow with size")
	}
}

func TestWireAndDMA(t *testing.T) {
	m := Default()
	// 1538B at 100G ≈ 123 ns.
	w := m.Wire(1538)
	if w < 122*sim.Nanosecond || w > 124*sim.Nanosecond {
		t.Fatalf("wire = %v", w)
	}
	// DMA is faster than the wire at PCIe 4.0 x16.
	if m.DMA(1538) >= w {
		t.Fatal("PCIe must outrun the 100G wire")
	}
}

func TestDDIOBytes(t *testing.T) {
	m := Default()
	want := m.LLCBytes * m.DDIOWays / m.LLCWays
	if m.DDIOBytes() != want {
		t.Fatalf("DDIOBytes = %d, want %d", m.DDIOBytes(), want)
	}
	m.LLCWays = 0
	if m.DDIOBytes() != 0 {
		t.Fatal("zero ways -> zero bytes")
	}
}

// TestFrameCostMethodsNeverCopyModel: every method is declared on *Model, so
// the value type's method set is empty and pricing a frame cannot copy the
// struct (scripts/check.sh greps for the same thing).
func TestFrameCostMethodsNeverCopyModel(t *testing.T) {
	if n := reflect.TypeOf(Model{}).NumMethod(); n != 0 {
		t.Fatalf("%d methods have a value receiver: each call copies the %d-byte Model", n, reflect.TypeOf(Model{}).Size())
	}
	if n := reflect.TypeOf(&Model{}).NumMethod(); n == 0 {
		t.Fatal("*Model has no methods: the check above proves nothing")
	}
}
