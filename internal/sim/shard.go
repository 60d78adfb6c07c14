package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the sharded engine: conservative parallel
// discrete-event simulation with a deterministic cross-shard merge
// (DESIGN.md §8).
//
// The unit of determinism is the *bucket* — a fixed logical partition of the
// world (in arch worlds, the RSS hash bucket a flow steers to). The unit of
// parallelism is the *shard* — one Engine driven on its own goroutine.
// Buckets map onto shards by bucket % N, so the bucket space never changes
// when the shard count does; everything observable per bucket, and therefore
// every table aggregated in bucket order, is byte-identical at any N,
// including N=1.
//
// Shards advance in lockstep epochs under a virtual-time barrier. Within an
// epoch a shard may only touch its own buckets' state; communication between
// buckets goes through Send, which stages the event in the source shard's
// mailbox stamped (time, srcBucket, per-bucket seq). At each barrier the
// coordinator drains all mailboxes in one sorted pass — ordered by exactly
// that stamp — and schedules the events into the destination engines before
// the next epoch runs. Because the stamp does not mention shards, the drain
// order (the merge journal) is invariant under resharding.
//
// Causality is kept by a lookahead rule: a send fired inside the epoch
// [start, end) must target a time >= end, so no shard can receive an event
// in its own past. Send panics otherwise — a lookahead violation is always a
// model bug, the cross-bucket latency (wire, fabric) must be at least one
// epoch long.

// MailStamp identifies one cross-shard delivery in merge order: the triple
// the barrier drain sorts by, plus the destination bucket. The journal of
// stamps is the protocol's determinism witness — it must be byte-identical
// at any shard count (TestShardMergeProperty).
type MailStamp struct {
	At  Time
	Src int    // source bucket
	Seq uint64 // per-source-bucket send sequence
	Dst int    // destination bucket
}

// crossEvent is one staged cross-bucket event awaiting a barrier.
type crossEvent struct {
	at  Time
	src int
	seq uint64
	dst int
	fn  func()
}

// shardState is one shard: its engine, its outbound mailbox, and its
// barrier accounting. The engine and outbox are touched only by the shard's
// goroutine during an epoch and only by the coordinator between epochs.
type shardState struct {
	eng      *Engine
	out      []crossEvent // staged sends, drained at the next barrier
	epochEnd Time         // exclusive bound of the epoch being run (lookahead floor)
	mailSent uint64
	mailRecv uint64
	work     chan Time
}

// Sharded coordinates N engines advancing in lockstep epochs with a
// deterministic cross-shard merge. Construct with NewSharded; schedule
// bucket-local work directly on EngineFor(bucket) and cross-bucket work with
// Send. Not safe for concurrent use except where noted: Send may be called
// from model code running inside any shard's epoch, everything else belongs
// to the single driving goroutine.
type Sharded struct {
	shards   []*shardState
	buckets  int
	epoch    Duration
	seqOf    []uint64   // per-bucket send sequence counters
	pairSent [][]uint64 // [srcShard][dstShard] cumulative mailbox traffic

	frontier  Time // exclusive virtual-time bound every shard has completed
	last      Time // virtual time reported by Now (deadline of the last run)
	epochs    uint64
	delivered uint64

	scratch   []crossEvent
	journal   []MailStamp
	journalOn bool
	stopReq   atomic.Bool
	wg        sync.WaitGroup
}

// NewSharded builds a coordinator over `shards` fresh engines and a fixed
// logical space of `buckets` (buckets >= shards; keep buckets constant while
// varying shards to get identical results). epoch is the barrier quantum:
// every cross-bucket latency in the model must be >= epoch.
func NewSharded(shards, buckets int, epoch Duration) *Sharded {
	if shards < 1 {
		panic("sim: sharded engine needs at least one shard")
	}
	if buckets < shards {
		panic(fmt.Sprintf("sim: %d buckets cannot cover %d shards", buckets, shards))
	}
	if epoch <= 0 {
		panic("sim: barrier epoch must be positive")
	}
	s := &Sharded{
		buckets:  buckets,
		epoch:    epoch,
		seqOf:    make([]uint64, buckets),
		shards:   make([]*shardState, shards),
		pairSent: make([][]uint64, shards),
	}
	for i := range s.shards {
		s.shards[i] = &shardState{eng: NewEngine()}
		s.pairSent[i] = make([]uint64, shards)
	}
	return s
}

// Shards returns the shard (engine) count.
func (s *Sharded) Shards() int { return len(s.shards) }

// ShardOf returns the shard that owns a bucket.
func (s *Sharded) ShardOf(bucket int) int { return bucket % len(s.shards) }

// Engine returns shard i's engine.
func (s *Sharded) Engine(i int) *Engine { return s.shards[i].eng }

// EngineFor returns the engine owning a bucket — where that bucket's local
// events must be scheduled.
func (s *Sharded) EngineFor(bucket int) *Engine { return s.shards[s.ShardOf(bucket)].eng }

// Now returns the virtual time of the last completed run.
func (s *Sharded) Now() Time { return s.last }

// Send stages fn to run at time t on dstBucket's shard, stamped with
// srcBucket's next sequence number. It must be called from srcBucket's own
// shard (model code running inside an event, or setup code before any run).
// t must be at or after the next barrier — the lookahead rule — or Send
// panics.
func (s *Sharded) Send(srcBucket, dstBucket int, t Time, fn func()) {
	if srcBucket < 0 || srcBucket >= s.buckets || dstBucket < 0 || dstBucket >= s.buckets {
		panic(fmt.Sprintf("sim: send %d->%d outside bucket space [0,%d)", srcBucket, dstBucket, s.buckets))
	}
	st := s.shards[s.ShardOf(srcBucket)]
	if t < st.epochEnd {
		panic(fmt.Sprintf("sim: cross-shard send targeting %v violates lookahead (current epoch ends at %v; cross-bucket latency must be >= the %v barrier epoch)",
			t, st.epochEnd, s.epoch))
	}
	s.seqOf[srcBucket]++
	st.out = append(st.out, crossEvent{at: t, src: srcBucket, seq: s.seqOf[srcBucket], dst: dstBucket, fn: fn})
	st.mailSent++
}

// Stop makes the current Run/RunUntil return at the next barrier. Pending
// events and staged mail survive; a subsequent run continues. Safe to call
// from model code inside any shard.
func (s *Sharded) Stop() { s.stopReq.Store(true) }

// RunUntil advances all shards in lockstep epochs through deadline
// (inclusive, like Engine.RunUntil) and returns the deadline. Mail staged in
// the final epoch necessarily targets times beyond the deadline and is
// delivered at the start of the next run.
func (s *Sharded) RunUntil(deadline Time) Time {
	if bound := deadline + 1; bound > s.frontier {
		s.runLoop(bound, false)
	}
	if deadline > s.last {
		s.last = deadline
	}
	return s.last
}

// Run executes epochs until every shard's queue drains and no mail is
// staged (or Stop is called), then returns the final virtual time: the
// latest engine clock or, when drained, timer horizon — Engine.Run's
// convention.
func (s *Sharded) Run() Time {
	const bound = Time(1) << 62
	s.runLoop(bound, true)
	stopped := s.stopReq.Load()
	var end Time
	for _, st := range s.shards {
		end = max(end, st.eng.now)
		if !stopped {
			end = max(end, st.eng.horizon)
		}
	}
	if end > s.last {
		s.last = end
	}
	return s.last
}

// runLoop is the barrier loop shared by Run and RunUntil: deliver staged
// mail, pick the next epoch bound, run all shards to it in parallel, repeat.
// bound is exclusive. With drain set the loop ends when nothing is pending
// anywhere; otherwise idle spans fast-forward to the next event (or to
// bound), so sparse workloads do not pay for empty barriers.
func (s *Sharded) runLoop(bound Time, drain bool) {
	s.stopReq.Store(false)
	stop := s.startWorkers()
	defer stop()
	for s.frontier < bound && !s.stopReq.Load() {
		s.deliver()
		next, ok := s.nextEvent()
		if !ok {
			if !drain {
				s.frontier = bound
			}
			return
		}
		if next >= bound {
			s.frontier = bound
			return
		}
		end := s.frontier + Time(s.epoch)
		if next >= end {
			// Dead air: jump the barrier grid to the next event's instant.
			// The choice depends only on the global minimum event time, so
			// it is identical at any shard count.
			end = next + 1
		}
		if end > bound {
			end = bound
		}
		s.runEpoch(end)
		s.frontier = end
		s.epochs++
	}
}

// startWorkers launches one goroutine per shard for the duration of a run
// (none for a single shard) and returns the teardown.
func (s *Sharded) startWorkers() func() {
	if len(s.shards) == 1 {
		return func() {}
	}
	for _, st := range s.shards {
		st.work = make(chan Time)
		go func(st *shardState) {
			for end := range st.work {
				st.eng.RunUntil(end - 1)
				s.wg.Done()
			}
		}(st)
	}
	return func() {
		for _, st := range s.shards {
			close(st.work)
		}
	}
}

// runEpoch runs every shard through [frontier, end) and blocks until all
// reach the barrier. Engine.RunUntil flushes each shard's fired-event count
// on return, so FiredTotal is exact at every barrier, not only at run end.
func (s *Sharded) runEpoch(end Time) {
	for _, st := range s.shards {
		st.epochEnd = end
	}
	if len(s.shards) == 1 {
		s.shards[0].eng.RunUntil(end - 1)
		return
	}
	s.wg.Add(len(s.shards))
	for _, st := range s.shards {
		st.work <- end
	}
	s.wg.Wait()
}

// deliver drains every shard's mailbox in one sorted pass — (time,
// srcBucket, seq), a total order since each bucket's sequence is unique —
// and schedules the events into their destination engines in exactly that
// order, so destination-local tie-breaking (engine seq) inherits it.
func (s *Sharded) deliver() {
	s.scratch = s.scratch[:0]
	for _, st := range s.shards {
		s.scratch = append(s.scratch, st.out...)
		for i := range st.out {
			st.out[i].fn = nil // the copy in scratch owns the closure now
		}
		st.out = st.out[:0]
	}
	if len(s.scratch) == 0 {
		return
	}
	slices.SortFunc(s.scratch, func(a, b crossEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.src != b.src {
			return a.src - b.src
		}
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
	for i := range s.scratch {
		ev := s.scratch[i]
		dst := s.shards[s.ShardOf(ev.dst)]
		dst.mailRecv++
		s.pairSent[s.ShardOf(ev.src)][s.ShardOf(ev.dst)]++
		dst.eng.At(ev.at, ev.fn)
		if s.journalOn {
			s.journal = append(s.journal, MailStamp{At: ev.at, Src: ev.src, Seq: ev.seq, Dst: ev.dst})
		}
		s.scratch[i].fn = nil
	}
	s.delivered += uint64(len(s.scratch))
}

// nextEvent returns the earliest pending event time across all shards.
// Staged mail never matters here: deliver ran first, so mailboxes are empty.
func (s *Sharded) nextEvent() (Time, bool) {
	var min Time
	ok := false
	for _, st := range s.shards {
		if t, has := st.eng.NextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// Fired returns the aggregate event count across all shards, including
// batched sub-events credited with Engine.AddFired.
func (s *Sharded) Fired() uint64 {
	var n uint64
	for _, st := range s.shards {
		n += st.eng.Fired()
	}
	return n
}

// MailSent returns the cumulative cross-shard events staged by shard i.
func (s *Sharded) MailSent(i int) uint64 { return s.shards[i].mailSent }

// MailRecv returns the cumulative cross-shard events delivered to shard i.
func (s *Sharded) MailRecv(i int) uint64 { return s.shards[i].mailRecv }

// Epochs returns the number of barrier rounds completed.
func (s *Sharded) Epochs() uint64 { return s.epochs }

// Delivered returns the total cross-shard events merged through barriers.
func (s *Sharded) Delivered() uint64 { return s.delivered }

// PairSent returns the cumulative mailbox traffic from shard src to shard
// dst, counted at delivery.
func (s *Sharded) PairSent(src, dst int) uint64 { return s.pairSent[src][dst] }

// EnableJournal starts recording the merge journal (for determinism tests).
func (s *Sharded) EnableJournal() { s.journalOn = true }

// Journal returns the recorded merge journal: every cross-shard delivery in
// drain order.
func (s *Sharded) Journal() []MailStamp { return s.journal }
