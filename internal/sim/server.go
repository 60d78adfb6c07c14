package sim

// Server models a FIFO resource with a single service channel: a CPU core, a
// PCIe link, a NIC pipeline stage, or the wire itself. Work submitted to a
// busy server queues behind in-flight work; queueing delay is captured by the
// difference between submission time and service start.
//
// Server tracks cumulative busy time so experiments can report utilization
// (e.g. the core a sidecar dataplane burns even at low load).
type Server struct {
	name string
	free Time     // earliest instant new work can start
	busy Duration // cumulative service time
	jobs uint64
}

// NewServer returns an idle server with the given diagnostic name.
func NewServer(name string) *Server {
	return &Server{name: name}
}

// Name returns the diagnostic name given at construction.
func (s *Server) Name() string { return s.name }

// Acquire submits work of the given duration at time now and returns the
// interval [start, done] during which the server performs it. start is
// max(now, previous completion); done-start is always d.
func (s *Server) Acquire(now Time, d Duration) (start, done Time) {
	if d < 0 {
		panic("sim: negative service time")
	}
	start = now
	if s.free > start {
		start = s.free
	}
	done = start.Add(d)
	s.free = done
	s.busy += d
	s.jobs++
	return start, done
}

// FreeAt returns the earliest time new work could begin service.
func (s *Server) FreeAt() Time { return s.free }

// BusyTime returns cumulative service time performed.
func (s *Server) BusyTime() Duration { return s.busy }

// Jobs returns the number of Acquire calls.
func (s *Server) Jobs() uint64 { return s.jobs }

// Utilization returns busy time divided by elapsed time up to now.
func (s *Server) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return s.busy.Seconds() / Duration(now).Seconds()
}
