package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *LLC {
	// 64 sets × 4 ways × 64B lines = 16 KiB, 2 DDIO ways.
	return New(Config{TotalBytes: 16 << 10, Ways: 4, DDIOWays: 2, LineBytes: 64})
}

func TestCPUHitAfterFill(t *testing.T) {
	c := small()
	if c.CPUAccess(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.CPUAccess(0x1000) {
		t.Fatal("second access must hit")
	}
	if !c.CPUAccess(0x1010) {
		t.Fatal("same line (different offset) must hit")
	}
	if c.CPUAccess(0x1040) {
		t.Fatal("next line must miss")
	}
}

func TestDMAConfinedToDDIOWays(t *testing.T) {
	c := New(Config{TotalBytes: 64 * 4 * 64, Ways: 4, DDIOWays: 2, LineBytes: 64})
	// Find four addresses in the same set by probing: with hashing we just
	// collect addresses whose repeated DMA insertion evicts each other.
	// Insert 3 distinct lines via DMA: only 2 ways available, so re-access
	// of the first must eventually miss once two newer lines displaced it.
	// Use addresses crafted to be distinct lines.
	addrs := []uint64{}
	base := uint64(0)
	set0, _ := c.lineOf(0)
	for a := uint64(64); len(addrs) < 3; a += 64 {
		if s, _ := c.lineOf(a); s == set0 {
			addrs = append(addrs, a)
		}
	}
	_ = base
	c.DMAAccess(0)
	c.DMAAccess(addrs[0])
	c.DMAAccess(addrs[1]) // evicts line 0 (LRU of the 2 DDIO ways)
	if c.DMAAccess(0) {
		t.Fatal("line 0 should have been evicted from the 2-way DDIO partition")
	}
}

func TestCPURefreshesDDIOLineInPlace(t *testing.T) {
	c := small()
	c.DMAAccess(0x2000) // allocates in a DDIO way
	if !c.CPUAccess(0x2000) {
		t.Fatal("CPU should hit the DMA-allocated line")
	}
	if !c.DMAAccess(0x2000) {
		t.Fatal("DMA must still see the line after a CPU refresh (no migration)")
	}
}

func TestDDIODisabledNeverCaches(t *testing.T) {
	c := New(Config{TotalBytes: 16 << 10, Ways: 4, DDIOWays: 0, LineBytes: 64})
	for i := 0; i < 4; i++ {
		if c.DMAAccess(0x3000) {
			t.Fatal("with DDIO off, DMA must always miss")
		}
	}
	_, _, _, misses := c.Stats()
	if misses != 4 {
		t.Fatalf("dma misses = %d", misses)
	}
}

func TestTouchCountsLines(t *testing.T) {
	c := small()
	hits, lines := c.Touch(0x100, 200, false) // spans 0x100..0x1c7 -> 4 lines
	if lines != 4 || hits != 0 {
		t.Fatalf("first touch: hits=%d lines=%d", hits, lines)
	}
	hits, lines = c.Touch(0x100, 200, false)
	if hits != 4 {
		t.Fatalf("second touch should hit all: hits=%d/%d", hits, lines)
	}
}

// TestTouchLineSizes: Touch covers the same lines whether the line size is a
// power of two (masked) or not (divided), and leaves exactly those cached.
func TestTouchLineSizes(t *testing.T) {
	for _, tc := range []struct {
		line        int
		addr        uint64
		n           int
		lines       int
		first, past uint64 // first byte of the first line, first byte past the last
	}{
		{64, 100, 50, 2, 64, 192},
		{64, 128, 64, 1, 128, 192},
		{48, 100, 50, 2, 96, 192},
		{48, 96, 1, 1, 96, 144},
		{48, 95, 2, 2, 48, 144},
	} {
		c := New(Config{TotalBytes: 64 * tc.line, Ways: 16, DDIOWays: 2, LineBytes: tc.line})
		if hits, lines := c.Touch(tc.addr, tc.n, false); hits != 0 || lines != tc.lines {
			t.Fatalf("%d-byte lines, Touch(%d, %d): %d hits over %d lines, want 0 over %d", tc.line, tc.addr, tc.n, hits, lines, tc.lines)
		}
		for _, probe := range []struct {
			addr uint64
			hit  bool
		}{{tc.first - 1, false}, {tc.first, true}, {tc.past - 1, true}, {tc.past, false}} {
			if got := c.CPUAccess(probe.addr); got != probe.hit {
				t.Errorf("%d-byte lines, after Touch(%d, %d): byte %d hit=%v, want %v", tc.line, tc.addr, tc.n, probe.addr, got, probe.hit)
			}
		}
	}
}

func TestDDIOBytes(t *testing.T) {
	c := small()
	if got := c.DDIOBytes(); got != 16<<10/2 {
		t.Fatalf("DDIOBytes = %d", got)
	}
}

func TestReset(t *testing.T) {
	c := small()
	c.CPUAccess(0x99)
	c.Reset()
	if c.CPUAccess(0x99) {
		t.Fatal("reset must invalidate")
	}
	h, m, dh, dm := c.Stats()
	if h != 0 || m != 1 || dh != 0 || dm != 0 {
		t.Fatalf("stats after reset+1 access: %d %d %d %d", h, m, dh, dm)
	}

	// A used cache, once Reset, answers a stream exactly as a new one does:
	// every set is back to its never-touched state, whatever its ranks were.
	used, fresh := small(), small()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		used.CPUAccess(uint64(rng.Intn(1 << 16)))
		used.DMAAccess(uint64(rng.Intn(1 << 16)))
	}
	used.Reset()
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 16))
		if rng.Intn(2) == 0 {
			if u, f := used.CPUAccess(addr), fresh.CPUAccess(addr); u != f {
				t.Fatalf("access %d, CPU %#x: reset cache hit=%v, new cache hit=%v", i, addr, u, f)
			}
		} else if u, f := used.DMAAccess(addr), fresh.DMAAccess(addr); u != f {
			t.Fatalf("access %d, DMA %#x: reset cache hit=%v, new cache hit=%v", i, addr, u, f)
		}
	}
}

// Property: hit/miss counters always sum to the access count, and a
// working set smaller than the DDIO partition eventually stops missing.
func TestStatsConsistencyQuick(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := small()
		var accesses uint64
		for _, a := range addrs {
			c.DMAAccess(uint64(a))
			c.CPUAccess(uint64(a) + 1<<20)
			accesses++
		}
		ch, cm, dh, dm := c.Stats()
		return ch+cm == accesses && dh+dm == accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWorkingSetConverges(t *testing.T) {
	c := small() // DDIO capacity 8 KiB = 128 lines over 64 sets × 2 ways
	// A 16-line working set cycled repeatedly should become mostly hits
	// after the cold lap (a few set conflicts under the hashed index are
	// tolerated — cyclic access over a conflicted set thrashes LRU).
	const lines, laps = 16, 10
	for lap := 0; lap < laps; lap++ {
		for i := 0; i < lines; i++ {
			c.DMAAccess(uint64(i) * 64)
		}
	}
	_, _, dh, dm := c.Stats()
	total := uint64(lines * laps)
	if dh+dm != total {
		t.Fatalf("accounting: %d+%d != %d", dh, dm, total)
	}
	if float64(dh)/float64(total) < 0.7 {
		t.Fatalf("steady-state hit rate too low: %d/%d", dh, total)
	}
}
