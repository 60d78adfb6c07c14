package sniff

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"norman/internal/packet"
	"norman/internal/sim"
)

// Record is one captured packet with its virtual timestamp and — when the
// tap sits at an OS-integrated interposition point — trusted process
// attribution, which is what lets the debugging scenario name the buggy
// process instead of just the buggy wire traffic.
type Record struct {
	At  sim.Time
	Pkt *packet.Packet
}

// Attribution renders the record's process attribution, or "?" when the
// capturing layer had no process view.
func (r Record) Attribution() string {
	m := r.Pkt.Meta
	if !m.TrustedMeta {
		return "?"
	}
	return fmt.Sprintf("uid=%d pid=%d cmd=%s", m.UID, m.PID, m.Command)
}

// Tap collects packets mirrored to it by an interposition layer, applying a
// filter expression and keeping at most limit records (oldest evicted).
type Tap struct {
	expr *Expr
	// records is a ring once it holds limit records: head is the oldest, and
	// a new record overwrites it.
	records []Record
	head    int
	limit   int
	seen    uint64
	matched uint64
	evicted uint64
}

// NewTap creates a tap with the given compiled filter (nil = match all) and
// record limit.
func NewTap(expr *Expr, limit int) *Tap {
	if limit <= 0 {
		limit = 65536
	}
	return &Tap{expr: expr, limit: limit}
}

// Offer presents a packet to the tap; the tap clones matching packets so
// later mutation by the dataplane does not corrupt the capture.
func (t *Tap) Offer(p *packet.Packet, now sim.Time) {
	t.seen++
	if !t.expr.Match(p) {
		return
	}
	t.matched++
	rec := Record{At: now, Pkt: p.Clone()}
	if len(t.records) < t.limit {
		t.records = append(t.records, rec)
		return
	}
	t.records[t.head] = rec
	t.head = (t.head + 1) % len(t.records)
	t.evicted++
}

// Records returns the retained captures in arrival order. A wrapped ring is
// rotated in place first, so reading costs nothing between evictions.
func (t *Tap) Records() []Record {
	if t.head != 0 {
		slices.Reverse(t.records[:t.head])
		slices.Reverse(t.records[t.head:])
		slices.Reverse(t.records)
		t.head = 0
	}
	return t.records
}

// Counters returns packets seen, matched and evicted.
func (t *Tap) Counters() (seen, matched, evicted uint64) {
	return t.seen, t.matched, t.evicted
}

// pcap constants: classic little-endian pcap, Ethernet link type.
const (
	pcapMagic    = 0xa1b2c3d4
	pcapVerMajor = 2
	pcapVerMinor = 4
	pcapSnapLen  = 65535
	pcapLinkEth  = 1
)

// WritePcap writes the records as a classic pcap file (microsecond
// timestamps, Ethernet link type) readable by tcpdump/wireshark.
func WritePcap(w io.Writer, records []Record) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVerMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVerMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], pcapLinkEth)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("sniff: writing pcap header: %w", err)
	}
	rec := make([]byte, 16)
	for i := range records {
		frame := records[i].Pkt.Marshal()
		usec := uint64(records[i].At) / uint64(sim.Microsecond)
		binary.LittleEndian.PutUint32(rec[0:], uint32(usec/1e6))
		binary.LittleEndian.PutUint32(rec[4:], uint32(usec%1e6))
		n := len(frame)
		if n > pcapSnapLen {
			n = pcapSnapLen
		}
		binary.LittleEndian.PutUint32(rec[8:], uint32(n))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(frame)))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("sniff: writing pcap record: %w", err)
		}
		if _, err := w.Write(frame[:n]); err != nil {
			return fmt.Errorf("sniff: writing pcap frame: %w", err)
		}
	}
	return nil
}

// ReadPcap parses a pcap file written by WritePcap (little-endian classic
// format) back into records; used by tests to validate round-trips.
func ReadPcap(r io.Reader) ([]Record, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("sniff: reading pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, fmt.Errorf("sniff: bad pcap magic")
	}
	var out []Record
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("sniff: reading pcap record: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		incl := binary.LittleEndian.Uint32(rec[8:])
		frame := make([]byte, incl)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("sniff: reading pcap frame: %w", err)
		}
		p, err := packet.Unmarshal(frame)
		if err != nil {
			return nil, fmt.Errorf("sniff: parsing captured frame: %w", err)
		}
		at := sim.Time(uint64(sec)*uint64(sim.Second) + uint64(usec)*uint64(sim.Microsecond))
		out = append(out, Record{At: at, Pkt: p})
	}
}
