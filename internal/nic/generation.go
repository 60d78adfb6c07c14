package nic

import (
	"errors"
	"fmt"

	"norman/internal/overlay"
	"norman/internal/sim"
)

// This file is the NIC half of the live-upgrade subsystem (DESIGN.md §12):
// A/B pipeline generations. A new overlay chain is *staged* into a shadow
// generation — verified, charged against the same SRAM budget as everything
// else on the NIC, but not yet deciding packets — then *activated* at a
// packet boundary while ingress is briefly paused-and-buffered, with the old
// generation retained for rollback until the canary window *commits* it.
// ReloadBitstream is the outage this machinery exists to avoid: the staged
// swap costs MMIO writes (microseconds), not a respin (seconds).

// Generation-lifecycle errors.
var (
	ErrNothingStaged  = errors.New("nic: no staged generation")
	ErrNoPrevGen      = errors.New("nic: no previous generation to roll back to")
	ErrRxPaused       = errors.New("nic: ingress already paused")
	ErrRxNotPaused    = errors.New("nic: ingress not paused")
	ErrUpgradeOutage  = errors.New("nic: dataplane is down (bitstream reload in progress)")
	ErrStagedNotValid = errors.New("nic: staged program failed verification")
)

// pipelineGen is one retained pipeline generation: both programs plus the
// SRAM bytes charged for holding them resident alongside the live pair.
type pipelineGen struct {
	ingress *overlay.Program
	egress  *overlay.Program
	sram    int
}

func genSRAM(ing, eg *overlay.Program) int {
	b := 0
	if ing != nil {
		b += ing.SRAMBytes()
	}
	if eg != nil {
		b += eg.SRAMBytes()
	}
	return b
}

// StageGeneration verifies and stages a shadow pipeline generation (ingress
// and/or egress chain; nil means "no program on that pipeline in the new
// generation"). The shadow copy is charged against the SRAM budget on top of
// the live generation — double residency is the price of a hitless swap —
// and rejected with ErrSRAMExhausted when the budget cannot hold both.
// Restaging replaces a previously staged generation, releasing its charge.
// Staging while the dataplane is down is refused: there is no live traffic
// to protect and LoadProgram after the outage is strictly cheaper.
func (n *NIC) StageGeneration(now sim.Time, ing, eg *overlay.Program) error {
	if n.Down(now) {
		return ErrUpgradeOutage
	}
	for _, p := range []*overlay.Program{ing, eg} {
		if p == nil {
			continue
		}
		if err := overlay.Verify(p); err != nil {
			return fmt.Errorf("%w: %q: %v", ErrStagedNotValid, p.Name, err)
		}
	}
	g := &pipelineGen{ingress: ing, egress: eg, sram: genSRAM(ing, eg)}
	old := 0
	if n.staged != nil {
		old = n.staged.sram
	}
	used, budget := n.SRAM()
	if used-old+g.sram > budget {
		return fmt.Errorf("%w: staged generation needs %d bytes, %d free",
			ErrSRAMExhausted, g.sram, budget-(used-old))
	}
	n.sramUsed += g.sram - old
	n.staged = g
	return nil
}

// StagedGeneration reports whether a shadow generation is staged.
func (n *NIC) StagedGeneration() bool { return n.staged != nil }

// AbortStaged discards the staged generation and releases its SRAM charge.
func (n *NIC) AbortStaged() {
	if n.staged == nil {
		return
	}
	n.sramUsed -= n.staged.sram
	n.staged = nil
}

// ActivateStaged flips the epoch: the staged generation becomes the live
// pipeline pair and the old generation is retained (still charged against
// SRAM) for rollback until CommitGeneration or RollbackGeneration resolves
// the canary. Returns the activation latency — the MMIO traffic to program
// the shadow bank, which the caller must cover with a paused ingress so the
// flip lands at a packet boundary. The flow cache is flushed: nothing
// memoized under the old chain may decide a packet under the new one.
func (n *NIC) ActivateStaged(now sim.Time) (sim.Duration, error) {
	if n.staged == nil {
		return 0, ErrNothingStaged
	}
	if n.prevGen != nil {
		// An unresolved canary: the caller must commit or roll back first.
		return 0, fmt.Errorf("nic: generation %d still in canary", n.generation)
	}
	g := n.staged
	n.staged = nil

	// Retain the old live pair for rollback. Its programs were counted live
	// by SRAM(); now they are counted via prevGen.sram instead, while the new
	// pair moves from the staged charge to the live-program accounting — the
	// total double-residency footprint is unchanged by the flip.
	prev := &pipelineGen{ingress: n.program(Ingress), egress: n.program(Egress)}
	prev.sram = genSRAM(prev.ingress, prev.egress)
	n.sramUsed += prev.sram - g.sram
	n.prevGen = prev

	if g.ingress != nil {
		n.lastGood[Ingress] = prev.ingress
	}
	if g.egress != nil {
		n.lastGood[Egress] = prev.egress
	}
	n.install(Ingress, g.ingress)
	n.install(Egress, g.egress)
	n.generation++
	// The shadow bank is programmed like any pipeline: same cost model as
	// LoadProgram, both chains.
	return n.loadCost(g.ingress) + n.loadCost(g.egress), nil
}

// CommitGeneration resolves the canary in favor of the new generation: the
// retained old pair is discarded and its SRAM charge released.
func (n *NIC) CommitGeneration(now sim.Time) error {
	if n.prevGen == nil {
		return ErrNoPrevGen
	}
	n.sramUsed -= n.prevGen.sram
	n.prevGen = nil
	return nil
}

// RollbackGeneration reverts the canary: the retained old generation becomes
// live again, the rolled-back pair is discarded entirely, and the epoch
// advances (a rollback is a flip too — the generation counter never moves
// backwards). The flow cache is flushed for the same reason as activation.
func (n *NIC) RollbackGeneration(now sim.Time) error {
	if n.prevGen == nil {
		return ErrNoPrevGen
	}
	prev := n.prevGen
	n.prevGen = nil
	n.sramUsed -= prev.sram // the pair becomes the live charge again
	n.install(Ingress, prev.ingress)
	n.install(Egress, prev.egress)
	n.generation++
	return nil
}

// Generation returns the live pipeline generation number. It bumps on every
// epoch flip — activation and rollback alike — so two observers that agree on
// the number agree on the exact decision procedure deciding packets.
func (n *NIC) Generation() uint64 { return n.generation }

// InCanary reports whether an activated generation still retains its
// predecessor for rollback.
func (n *NIC) InCanary() bool { return n.prevGen != nil }

// IngressCacheable reports whether the live ingress chain's decisions are
// flow-memoizable (the flow cache's install gate) — the upgrade manager uses
// it to decide whether warm-transferred entries are admissible under the new
// generation.
func (n *NIC) IngressCacheable() bool { return n.ingressCacheable }

// PauseRx pauses ingress admission: frames that clear the MAC are buffered
// in arrival order up to capFrames (≤0 means DefaultPauseFrames); overflow
// becomes RxPauseDrop — a typed, conservation-ledger drop class, never a
// silent loss. This is the "brief pause, bounded budget" half of the hitless
// cutover: the wire keeps delivering while the epoch flips.
func (n *NIC) PauseRx(capFrames int) error {
	if n.rxPaused {
		return ErrRxPaused
	}
	if capFrames <= 0 {
		capFrames = DefaultPauseFrames
	}
	n.rxPaused = true
	n.rxPauseCap = capFrames
	return nil
}

// DefaultPauseFrames bounds the cutover pause buffer: at 100 Gbps line rate
// and minimum frames, 256 slots cover several microseconds of pause — an
// order of magnitude more than a staged activation's MMIO cost.
const DefaultPauseFrames = 256

// ResumeRx reopens ingress admission and replays the buffered frames in
// arrival order through the normal admission path at the current instant.
// The replayed frames see the *new* generation — that is the point: they
// waited out the flip instead of being blackholed by it.
func (n *NIC) ResumeRx() error {
	if !n.rxPaused {
		return ErrRxNotPaused
	}
	n.rxPaused = false
	n.rxPauseCap = 0
	buf := n.rxPauseBuf
	n.rxPauseBuf = nil
	now := n.eng.Now()
	for _, p := range buf {
		j := n.job(nil, p)
		j.frame = p.FrameLen()
		n.rxAdmit(j, now)
		n.settle(j)
	}
	return nil
}

// RxPaused reports whether ingress admission is paused.
func (n *NIC) RxPaused() bool { return n.rxPaused }

// RxPauseQueue returns the number of frames currently held in the pause
// buffer.
func (n *NIC) RxPauseQueue() int { return len(n.rxPauseBuf) }

// pauseIntake buffers (or, over budget, drops) j's frame while ingress is
// paused. Returns true when the frame was consumed by the pause path.
func (n *NIC) pauseIntake(j *job, now sim.Time) bool {
	if !n.rxPaused {
		return false
	}
	if len(n.rxPauseBuf) >= n.rxPauseCap {
		n.drop(j, RxPause)
		return true
	}
	n.rxPauseBuf = append(n.rxPauseBuf, j.p)
	n.RxPauseBuffered++
	if n.tracer != nil {
		n.trace(j.p, now, "nic", "rx_pause_buffer", fmt.Sprintf("depth=%d", len(n.rxPauseBuf)))
	}
	return true
}
