package sim

import (
	"fmt"
	"sync"
)

// Sharded runs N engines in lockstep epochs under a virtual-time barrier,
// one goroutine per engine. It is bench-only: bench/probe.go times its
// batched drain (probe.sim.sharded_ns_per_event), and nothing else in the
// tree runs it. It stays, with that one caller, until the ROADMAP item
// "Unfreeze the benchmark" retires the probe. The engines share nothing: an
// engine's events schedule only on that engine.
type Sharded struct {
	engs     []*Engine
	epoch    Duration
	frontier Time // exclusive virtual-time bound every engine has completed
	wg       sync.WaitGroup
}

// NewSharded builds a coordinator over `shards` fresh engines. buckets (at
// least shards) is the size of the caller's fixed logical partition;
// epoch is the barrier quantum.
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
	s := &Sharded{epoch: epoch, engs: make([]*Engine, shards)}
	for i := range s.engs {
		s.engs[i] = NewEngine()
	}
	return s
}

// Engine returns shard i's engine.
func (s *Sharded) Engine(i int) *Engine { return s.engs[i] }

// Run executes epochs until every engine's queue drains, then returns the
// final virtual time: the latest engine clock or timer horizon —
// Engine.Run's convention. An epoch with nothing due fast-forwards the
// barrier to the next event, so sparse work pays no empty barriers.
func (s *Sharded) Run() Time {
	work, stop := s.startWorkers()
	defer stop()
	for {
		next, ok := s.nextEvent()
		if !ok {
			break
		}
		end := max(s.frontier+Time(s.epoch), next+1)
		if work == nil {
			s.engs[0].RunUntil(end - 1)
		} else {
			s.wg.Add(len(s.engs))
			for _, c := range work {
				c <- end
			}
			s.wg.Wait()
		}
		s.frontier = end
	}
	var end Time
	for _, e := range s.engs {
		end = max(end, e.now, e.horizon)
	}
	return end
}

// startWorkers launches one goroutine per engine for the duration of a run
// (none for a single engine) and returns their work channels and the
// teardown. Engine.RunUntil flushes each engine's fired-event count on
// return, so FiredTotal is exact at every barrier.
func (s *Sharded) startWorkers() ([]chan Time, func()) {
	if len(s.engs) == 1 {
		return nil, func() {}
	}
	work := make([]chan Time, len(s.engs))
	for i, e := range s.engs {
		work[i] = make(chan Time)
		go func(e *Engine, c chan Time) {
			for end := range c {
				e.RunUntil(end - 1)
				s.wg.Done()
			}
		}(e, work[i])
	}
	return work, func() {
		for _, c := range work {
			close(c)
		}
	}
}

// nextEvent returns the earliest pending event time across all engines.
func (s *Sharded) nextEvent() (Time, bool) {
	var min Time
	ok := false
	for _, e := range s.engs {
		if t, has := e.NextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}
