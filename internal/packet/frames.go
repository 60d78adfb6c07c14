package packet

// frameState is the one byte of ownership a Packet carries: who frees it.
type frameState uint8

const (
	frameLoose frameState = iota // NewUDP, NewTCP, Clone or a literal: the GC frees it
	frameLent                    // handed out by a Frames list, its journey not yet ended
	frameFree                    // its journey ended: back on the list, or let go past the bound
)

// framesKept bounds a Frames list: a frame whose journey ends while the list
// holds this many is left to the GC. An unbounded list peaks at a few dozen
// frames under steady receive traffic, but a burst of drops or a closed-loop
// transfer fleet with hundreds of segments in flight would leave well over a
// thousand on it, alive for the life of the world.
const framesKept = 64

// Frames is a bounded LIFO free list of frames: one per simulated world, used
// only from that world's engine goroutine. A frame it hands out (UDP, TCP)
// comes back through Recycle where its journey ends — delivered to an
// application, received by the wire peer, dropped under a typed reason — so
// the next frame is built in memory the host touched a moment ago.
//
// The callee an exit hands the frame to borrows it for the duration of the
// call: keeping it means cloning it.
type Frames struct {
	free []*Packet
}

// take pops the most recently freed frame, or allocates one.
func (f *Frames) take() *Packet {
	n := len(f.free)
	if n == 0 {
		return new(Packet)
	}
	p := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return p
}

// UDP is NewUDP built from the list.
func (f *Frames) UDP(srcMAC, dstMAC MAC, src, dst IPv4, sport, dport uint16, payloadLen int) *Packet {
	p := f.take()
	p.initUDP(srcMAC, dstMAC, src, dst, sport, dport, payloadLen)
	p.state = frameLent
	return p
}

// TCP is NewTCP built from the list.
func (f *Frames) TCP(srcMAC, dstMAC MAC, src, dst IPv4, sport, dport uint16, flags uint8, payloadLen int) *Packet {
	p := f.take()
	p.initTCP(srcMAC, dstMAC, src, dst, sport, dport, flags, payloadLen)
	p.state = frameLent
	return p
}

// Recycle ends p's journey. A frame no list handed out is left alone (and to
// the GC); a lent one has its header pointers cleared, so a stale reader
// faults instead of reading the next frame built in it, and goes back on the
// list unless the list is full. Recycling a frame twice panics. A nil list
// recycles nothing.
func (f *Frames) Recycle(p *Packet) {
	if f == nil || p.state == frameLoose {
		return
	}
	if p.state == frameFree {
		panic("packet: frame recycled twice")
	}
	p.state = frameFree
	p.IP, p.UDP, p.TCP = nil, nil, nil
	if len(f.free) < framesKept {
		f.free = append(f.free, p)
	}
}

// Len returns the frames the list holds.
func (f *Frames) Len() int { return len(f.free) }
