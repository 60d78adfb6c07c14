package cache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

var (
	fuzzWays  = []int{1, 2, 8, 11, 12, 13, 20}
	fuzzLines = []int{64, 48} // the shift path and the divide path
	// the mask path, the modulo path, and more sets than a seed has
	// accesses, so sets are first touched late or never
	fuzzSets = []int{4, 3, 1024}
)

// FuzzLLCEquivalence drives the set-record LLC and the stamp/tag oracle with
// the same access stream and requires the same answer at every step. prog is
// read two bytes at a time as (opcode, operand); geom picks the associativity,
// the DDIO share, the line size and the set count. Few sets and a 256-line
// address space keep every set over capacity, so replacement decides most
// answers; 1024 sets leave most of them untouched until late, or for good.
func FuzzLLCEquivalence(f *testing.F) {
	g := rand.New(rand.NewSource(15))
	for geom := 0; geom < len(fuzzWays)*3*2*len(fuzzSets); geom++ {
		prog := make([]byte, 4096)
		g.Read(prog)
		f.Add(uint8(geom), prog)
	}
	// Over 1024 sets at 1 and 2 ways, every DDIO share and line size: sets
	// first touched late, inside tenant windows, and again after a Reset.
	for geom := 2 * len(fuzzWays) * 3 * 2; geom < len(fuzzWays)*3*2*len(fuzzSets); geom++ {
		if fuzzWays[geom%len(fuzzWays)] <= 2 {
			f.Add(uint8(geom), lateTouchProg())
		}
	}
	f.Fuzz(func(t *testing.T, geom uint8, prog []byte) {
		sel := int(geom)
		ways := fuzzWays[sel%len(fuzzWays)]
		sel /= len(fuzzWays)
		ddio := []int{0, min(2, ways), ways}[sel%3]
		sel /= 3
		line := fuzzLines[sel%2]
		sets := fuzzSets[sel/2%len(fuzzSets)]
		cfg := Config{TotalBytes: sets * ways * line, Ways: ways, DDIOWays: ddio, LineBytes: line}
		got, want := New(cfg), newStampLLC(cfg)

		check := func(step int, what string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%+v step %d %s: set record %v, stamp oracle %v", cfg, step, what, g, w)
			}
		}
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i], prog[i+1]
			addr := uint64(arg)*uint64(line) + uint64(op>>4) // any byte of the line
			tenant := uint32(op >> 6)
			switch op % 8 {
			case 0, 1:
				check(i, "CPUAccess", got.CPUAccess(addr), want.CPUAccess(addr))
			case 2, 3:
				check(i, "DMAAccess", got.DMAAccess(addr), want.DMAAccess(addr))
			case 4, 5:
				check(i, "DMAAccessTenant", got.DMAAccessTenant(addr, tenant), want.DMAAccessTenant(addr, tenant))
			case 6:
				n, dma := int(op>>3)*line/4, arg&1 == 0
				gh, gl := got.Touch(addr, n, dma)
				wh, wl := want.Touch(addr, n, dma)
				check(i, "Touch", [2]int{gh, gl}, [2]int{wh, wl})
			case 7: // rare: a new partition (possibly rejected), none, or a reset
				switch {
				case arg < 12:
					shares := map[uint32]int{}
					for id := uint32(0); id < uint32(arg%4); id++ {
						shares[id+1] = int(op>>3+arg)%3 + int(id)%2 // 0 is an error, as is overflowing DDIO
					}
					check(i, "PartitionDDIO accepted", got.PartitionDDIO(shares) == nil, want.PartitionDDIO(shares) == nil)
				case arg < 16:
					got.ClearPartition()
					want.ClearPartition()
				case arg < 20:
					got.Reset()
					want.Reset()
				}
			}
		}
		gh, gm, gdh, gdm := got.Stats()
		wh, wm, wdh, wdm := want.Stats()
		check(len(prog), "Stats", [4]uint64{gh, gm, gdh, gdm}, [4]uint64{wh, wm, wdh, wdm})
		check(len(prog), "TenantDMAStats", got.TenantDMAStats(), want.TenantDMAStats())
	})
}

// lateTouchProg is a FuzzLLCEquivalence stream in the fuzzer's two-byte
// encoding: one line over and over, then a partition giving tenant 1 one DDIO
// way and device accesses from tenants 1 and 2 (outside the partition) to
// lines never seen before, then a Reset and device and CPU accesses to more
// new lines.
func lateTouchProg() []byte {
	var b []byte
	for i := 0; i < 20; i++ {
		b = append(b, 0x00, 1) // CPUAccess, line 1
	}
	b = append(b, 0x07, 1) // PartitionDDIO{1: 1}
	for l := byte(2); l < 40; l++ {
		b = append(b, 0x44, l, 0x84, l) // DMAAccessTenant, tenants 1 and 2
	}
	b = append(b, 0x07, 16) // Reset
	for l := byte(40); l < 80; l++ {
		b = append(b, 0x02, l, 0x44, l, 0x01, l+40) // DMAAccess, tenant 1, CPUAccess
	}
	return b
}

// TestSetRecordIsOneHostLine pins the layout the set record exists for: the
// default 11-way set is one 64-byte host line and the 22 MiB model costs
// 2 MiB of host memory; a wider set takes a whole number of lines.
func TestSetRecordIsOneHostLine(t *testing.T) {
	c := New(Config{TotalBytes: 22 << 20, Ways: 11, DDIOWays: 2, LineBytes: 64})
	if got := c.stride * 4; got != 64 {
		t.Fatalf("11-way set record strides %d bytes, want 64", got)
	}
	if got := len(c.data) * 4; got != 2<<20 {
		t.Fatalf("22 MiB / 11-way model holds %d bytes of host memory, want 2 MiB", got)
	}
	for ways, want := range map[int]int{1: 64, 12: 64, 13: 128, 20: 128, 128: 640} {
		if got := New(Config{TotalBytes: 1 << 20, Ways: ways}).stride * 4; got != want {
			t.Errorf("%d-way set record strides %d bytes, want %d", ways, got, want)
		}
	}
}

// TestAddressBeyondTagPanics: a line number that does not fit the 32-bit tag
// must not alias a lower line.
func TestAddressBeyondTagPanics(t *testing.T) {
	c := small()
	last := uint64(math.MaxUint32-1) * 64 // line MaxUint32-1, tag MaxUint32
	c.CPUAccess(last)
	if !c.CPUAccess(last + 63) {
		t.Fatal("the highest taggable line must cache like any other")
	}
	for _, access := range []func(){
		func() { c.CPUAccess(last + 64) },
		func() { c.DMAAccess(1 << 40) },
		func() { c.DMAAccessTenant(math.MaxUint64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an address beyond the tag range must panic")
				}
			}()
			access()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("more ways than a rank byte orders must panic")
		}
	}()
	New(Config{TotalBytes: 1 << 20, Ways: 129})
}
