package filter

import (
	"norman/internal/packet"
	"norman/internal/sim"
)

// ConnState is a tracked connection's lifecycle state.
type ConnState uint8

// States, in the netfilter sense.
const (
	StateNew ConnState = iota
	StateEstablished
	StateClosing
)

func (s ConnState) String() string {
	switch s {
	case StateNew:
		return "NEW"
	case StateEstablished:
		return "ESTABLISHED"
	case StateClosing:
		return "CLOSING"
	}
	return "?"
}

// connEntry is one tracked flow (both directions share an entry keyed by the
// originating direction).
type connEntry struct {
	state    ConnState
	lastSeen sim.Time
	packets  uint64
	bytes    uint64
}

// Conntrack is a flow-state tracker with idle expiry. It gives the filter
// stateful semantics (match ESTABLISHED).
type Conntrack struct {
	entries map[packet.FlowKey]*connEntry
	maxSize int
	timeout sim.Duration

	inserted uint64
	evicted  uint64
}

// NewConntrack creates a tracker bounded to maxSize flows with the given
// idle timeout.
func NewConntrack(maxSize int, timeout sim.Duration) *Conntrack {
	if maxSize <= 0 {
		maxSize = 1 << 20
	}
	if timeout <= 0 {
		timeout = 120 * sim.Second
	}
	return &Conntrack{
		entries: make(map[packet.FlowKey]*connEntry),
		maxSize: maxSize,
		timeout: timeout,
	}
}

// normalize returns the originating-direction key for a packet's flow: the
// stored key is whichever direction was seen first.
func (ct *Conntrack) normalize(k packet.FlowKey) (packet.FlowKey, *connEntry) {
	if e, ok := ct.entries[k]; ok {
		return k, e
	}
	rk := k.Reverse()
	if e, ok := ct.entries[rk]; ok {
		return rk, e
	}
	return k, nil
}

// Observe updates tracking for a packet at the given time and returns the
// flow's state as seen by a rule evaluated on this packet (a first packet
// observes NEW). Non-transport packets return NEW, false.
func (ct *Conntrack) Observe(p *packet.Packet, now sim.Time) (ConnState, bool) {
	k, ok := p.Flow()
	if !ok {
		return StateNew, false
	}
	key, e := ct.normalize(k)
	if e != nil && now.Sub(e.lastSeen) > ct.timeout {
		delete(ct.entries, key)
		ct.evicted++
		e = nil
	}
	if e == nil {
		if len(ct.entries) >= ct.maxSize {
			ct.expireOldest()
		}
		e = &connEntry{state: StateNew, lastSeen: now}
		ct.entries[key] = e
		ct.inserted++
	}
	observed := e.state
	e.packets++
	e.bytes += uint64(p.FrameLen())
	e.lastSeen = now

	// State transitions: a reply direction packet establishes; TCP FIN/RST
	// moves to closing.
	if key != k && e.state == StateNew {
		e.state = StateEstablished
	}
	if p.TCP != nil && p.TCP.Flags&(packet.TCPFin|packet.TCPRst) != 0 {
		e.state = StateClosing
	}
	return observed, true
}

func (ct *Conntrack) expireOldest() {
	var oldestKey packet.FlowKey
	var oldest sim.Time
	first := true
	for k, e := range ct.entries {
		if first || e.lastSeen < oldest {
			oldestKey, oldest, first = k, e.lastSeen, false
		}
	}
	if !first {
		delete(ct.entries, oldestKey)
		ct.evicted++
	}
}

// Len returns the number of tracked flows.
func (ct *Conntrack) Len() int { return len(ct.entries) }

// Counters returns cumulative insert/evict totals.
func (ct *Conntrack) Counters() (inserted, evicted uint64) { return ct.inserted, ct.evicted }
