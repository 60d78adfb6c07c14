// Package timing defines the cost model shared by every dataplane
// architecture in the reproduction.
//
// The paper's argument is about data movement: virtual movement (syscalls,
// copies across the user/kernel boundary) and physical movement (cacheline
// transfers to a dedicated dataplane core) carry costs that kernel bypass
// removes, and KOPI must not reintroduce. The constants below are drawn from
// the literature the paper cites (FlexSC, TAS, NetBricks, PRESTO'10) and from
// common microarchitectural figures; each experiment may override them, and
// the defaults are chosen so the *relative* shape of results — who wins and
// by roughly what factor — matches the published systems, which is the
// standard this reproduction targets (see DESIGN.md §6).
package timing

import "norman/internal/sim"

// Model is the set of cost parameters for one simulated host + SmartNIC.
// The zero value is unusable; start from Default().
//
// A Model is read-only after construction: set its fields before handing it to
// a world, a NIC or a kernel, which keep their own copy and remember costs
// they computed from it (DESIGN.md §8). Its methods take a pointer so that
// pricing a packet never copies the struct; call them on the copy you hold.
type Model struct {
	// Host CPU.
	CPUHz         float64      // host core clock, cycles/second
	Syscall       sim.Duration // syscall entry+exit (trap, KPTI, return)
	ContextSwitch sim.Duration // involuntary context switch / wake-to-run
	Interrupt     sim.Duration // interrupt delivery + handler entry
	CopyBW        float64      // memcpy bandwidth, bytes/second (single core)
	CopyFixed     sim.Duration // per-copy fixed cost (call, cache fills)
	CachelineXfer sim.Duration // cross-core dirty cacheline transfer (64B)
	CrossCoreBW   float64      // pipelined cross-core payload bandwidth, bytes/second
	DRAMAccess    sim.Duration // DRAM access latency
	MMIOWrite     sim.Duration // posted MMIO write (doorbell)
	PollIteration sim.Duration // one empty poll-loop iteration

	// PCIe / DMA.
	DMALatency sim.Duration // one-way PCIe DMA initiation latency
	PCIeBW     float64      // usable PCIe bandwidth, bytes/second

	// NIC.
	NICPipeline  sim.Duration // base ingress/egress pipeline latency
	NICClockHz   float64      // overlay/embedded processing clock
	WireBW       float64      // link rate, bytes/second
	WireLatency  sim.Duration // propagation to the peer (one way)
	NICSRAMBytes int          // on-NIC memory budget for state (rings, tables)
	DDIOWays     int          // LLC ways reserved for DDIO
	LLCWays      int          // total LLC ways
	LLCBytes     int          // total LLC capacity

	// Software interposition (kernel stack / sidecar) per-packet costs.
	KernelStackFixed sim.Duration // protocol + skb bookkeeping per packet
}

// Default returns the calibrated default model: a 3 GHz host, PCIe 3.0 x16,
// a 100 Gbps on-path SmartNIC with a 250 MHz overlay clock, and an LLC with
// an Intel-style 2-of-11-way DDIO partition.
func Default() Model {
	return Model{
		CPUHz:         3.0e9,
		Syscall:       600 * sim.Nanosecond,
		ContextSwitch: 1500 * sim.Nanosecond,
		Interrupt:     3 * sim.Microsecond,
		CopyBW:        16e9, // 16 GB/s sustained single-core memcpy
		CopyFixed:     30 * sim.Nanosecond,
		CachelineXfer: 60 * sim.Nanosecond,
		CrossCoreBW:   30e9, // pipelined coherence traffic between cores
		DRAMAccess:    90 * sim.Nanosecond,
		MMIOWrite:     100 * sim.Nanosecond,
		PollIteration: 20 * sim.Nanosecond,

		DMALatency: 450 * sim.Nanosecond,
		PCIeBW:     sim.Gbps(252), // PCIe 4.0 x16 effective — 100G NICs need full-duplex headroom

		NICPipeline:  500 * sim.Nanosecond,
		NICClockHz:   250e6,
		WireBW:       sim.Gbps(100),
		WireLatency:  2 * sim.Microsecond,
		NICSRAMBytes: 16 << 20, // 16 MiB of usable on-NIC SRAM
		DDIOWays:     2,
		LLCWays:      11,
		LLCBytes:     22 << 20, // 22 MiB LLC => 4 MiB DDIO share (2/11 ways)

		KernelStackFixed: 900 * sim.Nanosecond,
	}
}

// Cycles converts a host-CPU cycle count to a duration.
func (m *Model) Cycles(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / m.CPUHz * float64(sim.Second))
}

// NICCycles converts an overlay-clock cycle count to a duration.
func (m *Model) NICCycles(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / m.NICClockHz * float64(sim.Second))
}

// Copy returns the cost of a software copy of n bytes.
func (m *Model) Copy(n int) sim.Duration {
	return m.CopyFixed + sim.PerByte(n, m.CopyBW)
}

// CrossCore returns the cost of moving n bytes between cores through the
// coherence fabric: one cacheline-transfer latency to start, then pipelined
// line transfers at the coherence bandwidth.
func (m *Model) CrossCore(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return m.CachelineXfer + sim.PerByte(n, m.CrossCoreBW)
}

// DMA returns the PCIe transfer time for n bytes (latency added separately
// by callers that need it, since batching amortizes it).
func (m *Model) DMA(n int) sim.Duration {
	return sim.PerByte(n, m.PCIeBW)
}

// Wire returns the serialization time of an n-byte frame on the link.
func (m *Model) Wire(n int) sim.Duration {
	return sim.PerByte(n, m.WireBW)
}

// DDIOBytes returns the LLC capacity available to DMA traffic under the
// DDIO way partition.
func (m *Model) DDIOBytes() int {
	if m.LLCWays <= 0 {
		return 0
	}
	return m.LLCBytes * m.DDIOWays / m.LLCWays
}
