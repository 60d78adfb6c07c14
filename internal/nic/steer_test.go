package nic

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"norman/internal/packet"
)

// steerOracle is the steering table as it was before its rows were
// direction-normalised, kept verbatim as the reference the one-probe table is
// fuzzed against: one map entry per exact key, and a resolution that probes
// the frame's key and then its reverse.
type steerOracle struct {
	conns      map[uint64]*Conn
	steering   map[packet.FlowKey]*Conn
	sramUsed   int
	sramBudget int
	connSRAM   int
}

// OpenConn takes the connection record the NIC made for id, so that both
// tables resolve to the same pointers.
func (o *steerOracle) OpenConn(id uint64, c *Conn) error {
	if _, dup := o.conns[id]; dup {
		return errors.New("already open")
	}
	if o.sramUsed+o.connSRAM > o.sramBudget {
		return ErrSRAMExhausted
	}
	o.conns[id] = c
	o.sramUsed += o.connSRAM
	return nil
}

func (o *steerOracle) CloseConn(id uint64) error {
	c, ok := o.conns[id]
	if !ok {
		return ErrNoSuchConn
	}
	delete(o.conns, id)
	for k, sc := range o.steering {
		if sc == c {
			delete(o.steering, k)
			o.sramUsed -= 16
		}
	}
	o.sramUsed -= o.connSRAM
	return nil
}

func (o *steerOracle) SteerFlow(k packet.FlowKey, connID uint64) error {
	c, ok := o.conns[connID]
	if !ok {
		return ErrNoSuchConn
	}
	if _, exists := o.steering[k]; !exists {
		if o.sramUsed+16 > o.sramBudget {
			return ErrSRAMExhausted
		}
		o.sramUsed += 16
	}
	o.steering[k] = c
	return nil
}

func (o *steerOracle) SteeredConn(k packet.FlowKey) (uint64, bool) {
	if c := o.steering[k]; c != nil {
		return c.ID, true
	}
	return 0, false
}

func (o *steerOracle) DropSteering(k packet.FlowKey) bool {
	if _, ok := o.steering[k]; !ok {
		return false
	}
	delete(o.steering, k)
	o.sramUsed -= 16
	return true
}

func (o *steerOracle) steer(k packet.FlowKey) *Conn {
	if c := o.steering[k]; c != nil {
		return c
	}
	// Also try the destination-side normalized key (server side of a
	// flow steered by local tuple).
	if c := o.steering[k.Reverse()]; c != nil {
		return c
	}
	return nil
}

func (o *steerOracle) entries() map[packet.FlowKey]uint64 {
	s := make(map[packet.FlowKey]uint64, len(o.steering))
	for k, c := range o.steering {
		s[k] = c.ID
	}
	return s
}

// steeringEntries reads the NIC's table back as the control plane wrote it:
// every exact key and the connection id it is steered to.
func steeringEntries(n *NIC) map[packet.FlowKey]uint64 {
	out := make(map[packet.FlowKey]uint64, len(n.steering))
	for ck, row := range n.steering {
		if row.fwd != nil {
			out[ck] = row.fwd.ID
		}
		if row.rev != nil {
			out[ck.Reverse()] = row.rev.ID
		}
	}
	return out
}

// connID names a resolution in a failure message: 0 for none.
func connID(c *Conn) uint64 {
	if c == nil {
		return 0
	}
	return c.ID
}

// steerKeys is a key space small enough that forward, reverse and
// self-reverse keys (same address and port on both ends) all collide: two
// addresses × two ports on each end, two protocols.
func steerKeys() []packet.FlowKey {
	var keys []packet.FlowKey
	for i := 0; i < 32; i++ {
		keys = append(keys, packet.FlowKey{
			Src: packet.IPv4(1 + i&1), Dst: packet.IPv4(1 + i>>1&1),
			SrcPort: uint16(7 + i>>2&1), DstPort: uint16(7 + i>>3&1),
			Proto: []uint8{packet.ProtoUDP, packet.ProtoTCP}[i>>4&1],
		})
	}
	return keys
}

// FuzzSteering runs random control-plane programs — open, steer, re-steer to
// another connection, drop one entry, close — against the NIC and the oracle
// and compares, after every operation, everything the table answers: the
// connection every key of the space resolves to, SteeredConn, the SRAM charge
// and every exact key's entry. Each operation is two bytes: opcode, then the
// key (low five bits) and connection (high three). The budget holds every
// connection but not every entry, so exhaustion is compared too.
func FuzzSteering(f *testing.F) {
	f.Add([]byte{0, 0x20, 1, 0x21, 1, 0x22, 3, 0x20})                         // a flow's two directions on one conn, then close
	f.Add([]byte{0, 0x20, 0, 0x40, 1, 0x25, 1, 0x4a, 2, 0x05, 2, 0x0a})       // forward and reverse entries on different conns, dropped in turn
	f.Add([]byte{0, 0x20, 0, 0x40, 1, 0x20, 1, 0x4f, 1, 0x40, 3, 0x40, 2, 0}) // self-reverse keys, re-steered to another conn
	f.Add([]byte{1, 0x23, 2, 0x03, 3, 0x20, 0, 0x20, 0, 0x20, 3, 0x20})       // everything against a closed connection
	// A close touches only the keys its connection was steered by: both
	// halves of one row on conn 1 beside a row of conn 2, one half dropped
	// before the close; a key re-steered away to conn 2 before conn 1 closes;
	// and one re-steered away and back.
	f.Add([]byte{0, 0x00, 0, 0x20, 1, 0x01, 1, 0x02, 1, 0x25, 2, 0x01, 3, 0x00, 3, 0x20})
	f.Add([]byte{0, 0x00, 0, 0x20, 1, 0x01, 1, 0x21, 1, 0x02, 3, 0x00, 1, 0x01, 3, 0x20})
	f.Add([]byte{0, 0x00, 0, 0x20, 1, 0x01, 1, 0x21, 1, 0x01, 3, 0x20, 3, 0x00})
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 32; i++ {
		prog := make([]byte, 256)
		rng.Read(prog)
		for j := 0; j < len(prog); j += 2 {
			prog[j] &= 3
			if rng.Intn(4) != 0 && prog[j] != 1 { // mostly steer, so the table fills
				prog[j] = 1
			}
		}
		f.Add(prog)
	}

	keys := steerKeys()
	f.Fuzz(func(t *testing.T, prog []byte) {
		const nConns = 6
		n, _ := newNIC(0)
		n.sramBudget = nConns*n.connSRAM() + 20*16
		o := &steerOracle{
			conns: map[uint64]*Conn{}, steering: map[packet.FlowKey]*Conn{},
			sramBudget: n.sramBudget, connSRAM: n.connSRAM(),
		}
		for i := 0; i+1 < len(prog); i += 2 {
			k, id := keys[prog[i+1]&31], uint64(prog[i+1]>>5)%nConns+1
			var got, want any
			switch prog[i] & 3 {
			case 0:
				c, err := n.OpenConn(id, packet.Meta{}, nil)
				got, want = err != nil, o.OpenConn(id, c) != nil
			case 1:
				gotErr, wantErr := n.SteerFlow(k, id), o.SteerFlow(k, id)
				got, want = gotErr != nil, wantErr != nil
				if wantErr != nil && !errors.Is(gotErr, wantErr) {
					t.Fatalf("op %d: steer %v -> %d: %v, want %v", i/2, k, id, gotErr, wantErr)
				}
			case 2:
				got, want = n.DropSteering(k), o.DropSteering(k)
			case 3:
				got, want = n.CloseConn(id), o.CloseConn(id)
			}
			if got != want {
				t.Fatalf("op %d (%d %v conn %d) = %v, want %v", i/2, prog[i]&3, k, id, got, want)
			}
			for _, k := range keys {
				if got, want := n.steer(&job{key: k, flow: true}), o.steer(k); got != want {
					t.Fatalf("after op %d: %v resolves to conn %v, want %v", i/2, k, connID(got), connID(want))
				}
				gotID, gotOK := n.SteeredConn(k)
				if wantID, wantOK := o.SteeredConn(k); gotID != wantID || gotOK != wantOK {
					t.Fatalf("after op %d: SteeredConn(%v) = %d %v, want %d %v", i/2, k, gotID, gotOK, wantID, wantOK)
				}
			}
			if used, _ := n.SRAM(); used != o.sramUsed {
				t.Fatalf("after op %d: %d bytes of SRAM in use, want %d", i/2, used, o.sramUsed)
			}
			if got, want := steeringEntries(n), o.entries(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after op %d: entries %v, want %v", i/2, got, want)
			}
		}
	})
}

// TestSteeringChurnLeavesNoRows opens, steers (both directions) and closes
// ten thousand connections on fresh ports, as tx_stream_churn does for the
// length of a run: a row whose entries are gone is removed, so the table and
// its SRAM charge return to empty.
func TestSteeringChurnLeavesNoRows(t *testing.T) {
	n, _ := newNIC(1 << 20)
	for i := 0; i < 10_000; i++ {
		id := uint64(1 + i)
		k := packet.FlowKey{Src: 1, Dst: 2, SrcPort: uint16(1 + i), DstPort: uint16(50_000 - i), Proto: packet.ProtoTCP}
		if _, err := n.OpenConn(id, packet.Meta{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.SteerFlow(k, id); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // half the connections steer their reverse key too
			if err := n.SteerFlow(k.Reverse(), id); err != nil {
				t.Fatal(err)
			}
		}
		if i%6 == 0 { // some lose the forward entry before the close
			n.DropSteering(k)
		}
		if got := n.steer(&job{key: k.Reverse(), flow: true}); connID(got) != id {
			t.Fatalf("cycle %d: the reverse of %v resolves to conn %d", i, k, connID(got))
		}
		if err := n.CloseConn(id); err != nil {
			t.Fatal(err)
		}
	}
	if rows := len(n.steering); rows != 0 {
		t.Fatalf("%d steering rows left after every connection closed", rows)
	}
	if used, _ := n.SRAM(); used != 0 {
		t.Fatalf("%d bytes of SRAM still charged", used)
	}
}
