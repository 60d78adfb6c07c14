package nic

import (
	"math/rand"
	"reflect"
	"testing"

	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// The operations of a close program: each is an opcode and one argument byte
// whose low five bits pick a key of steerKeys and whose high three pick one
// of closeConns connections.
const (
	opOpen    = iota
	opSteer   // SteerFlow(key, conn): a fresh key, a re-steer or a no-op
	opDrop    // DropSteering(key)
	opClose   // CloseConn(conn)
	opDefault // SetDefaultConn(conn), or 0 when the key bits are 0
	opRSS     // SetRSS over the open connections among the argument's low six bits
	opTraffic // four frames off the wire, run to idle
	opInstall // FlowCache.Install(key, conn) from outside, or (three times in four) a program reload, which flushes
	numCloseOps
)

const closeConns = 6

// closeRig is one NIC under a cacheable ingress chain with a small flow cache
// (so traffic also evicts) whose rings are drained as frames land.
type closeRig struct {
	n   *NIC
	eng *sim.Engine
	// scan makes every close take the full scan of both tables: the oracle.
	scan bool
}

func newCloseRig(t *testing.T, scan bool) *closeRig {
	t.Helper()
	n, eng := newNIC(1 << 20)
	if err := n.EnableFlowCache(16); err != nil {
		t.Fatal(err)
	}
	r := &closeRig{n: n, eng: eng, scan: scan}
	r.reload(t)
	n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() }
	return r
}

// reload loads the pass-all chain again, which flushes the cache.
func (r *closeRig) reload(t *testing.T) {
	t.Helper()
	passAll, err := overlay.Assemble("pass-all", "pass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.n.LoadProgram(Ingress, passAll); err != nil {
		t.Fatal(err)
	}
}

// frameOf builds a frame that carries k.
func frameOf(k packet.FlowKey) *packet.Packet {
	if k.Proto == packet.ProtoTCP {
		return packet.NewTCP(packet.MAC{1}, packet.MAC{2}, k.Src, k.Dst, k.SrcPort, k.DstPort, packet.TCPAck, 64)
	}
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, k.Src, k.Dst, k.SrcPort, k.DstPort, 64)
}

// closeKind names the path a close takes, for the coverage count.
type closeKind int

const (
	closeOwn     closeKind = iota // only the connection's own keys
	closeWide                     // a default or RSS queue: full scan
	closeForeign                  // the cache holds handed-over entries: full scan
	closeNone                     // no such connection
	numCloseKinds
)

// apply runs one operation and, for a close, reports which path it took.
func (r *closeRig) apply(t *testing.T, op, arg byte) closeKind {
	t.Helper()
	n, keys := r.n, steerKeys()
	k, id := keys[arg&31], uint64(arg>>5)%closeConns+1
	switch op {
	case opOpen:
		_, _ = n.OpenConn(id, packet.Meta{}, nil)
	case opSteer:
		_ = n.SteerFlow(k, id)
	case opDrop:
		n.DropSteering(k)
	case opClose:
		c, ok := n.conns[id]
		if !ok {
			_ = n.CloseConn(id)
			return closeNone
		}
		kind := closeOwn
		switch {
		case c.wide:
			kind = closeWide
		case n.fc.foreign:
			kind = closeForeign
		}
		if r.scan {
			c.wide = true
		}
		if err := n.CloseConn(id); err != nil {
			t.Fatal(err)
		}
		return kind
	case opDefault:
		if arg&31 == 0 {
			id = 0
		}
		n.SetDefaultConn(id)
	case opRSS:
		var queues []uint64
		for q := uint64(1); q <= closeConns; q++ {
			if _, open := n.conns[q]; open && arg>>(q-1)&1 != 0 {
				queues = append(queues, q)
			}
		}
		if err := n.SetRSS(DefaultRSSKey, queues); err != nil {
			t.Fatal(err)
		}
	case opTraffic:
		for m := 0; m < 4; m++ {
			n.DeliverFromWire(frameOf(keys[(int(arg)+8*m)&31]))
		}
		r.eng.Run()
	case opInstall:
		if arg&3 != 0 {
			r.reload(t)
			break
		}
		n.fc.Install(k, id, 0, overlay.VerdictPass, 0, 0)
	}
	return closeNone
}

// sameTables fails unless the two NICs hold the same steering entries, SRAM
// charge and flow cache, entry for entry, and resolve every key alike.
func sameTables(t *testing.T, step int, got, want *NIC) {
	t.Helper()
	if g, w := steeringEntries(got), steeringEntries(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: steering %v, the full scan leaves %v", step, g, w)
	}
	if g, w := got.sramUsed, want.sramUsed; g != w {
		t.Fatalf("step %d: %d bytes of SRAM in use, the full scan leaves %d", step, g, w)
	}
	gf, wf := got.fc, want.fc
	if gf.Len() != wf.Len() || gf.Invalidations != wf.Invalidations {
		t.Fatalf("step %d: %d cache entries after %d invalidations, the full scan leaves %d after %d",
			step, gf.Len(), gf.Invalidations, wf.Len(), wf.Invalidations)
	}
	if !reflect.DeepEqual(gf.entries, wf.entries) {
		t.Fatalf("step %d: cache entries differ from the full scan's:\n%v\n%v", step, gf.Export(), wf.Export())
	}
	for _, k := range steerKeys() {
		if g, w := got.steer(&job{key: k, flow: true}), want.steer(&job{key: k, flow: true}); connID(g) != connID(w) {
			t.Fatalf("step %d: %v resolves to conn %d, under the full scan to %d", step, k, connID(g), connID(w))
		}
	}
}

// closeProgram draws a program of steps operations, weighted towards steering
// and traffic so that the tables fill between closes.
func closeProgram(rng *rand.Rand, steps int) []byte {
	weights := [numCloseOps]int{opOpen: 14, opSteer: 26, opDrop: 5, opClose: 12, opDefault: 1, opRSS: 1, opTraffic: 30, opInstall: 3}
	total := 0
	for _, w := range weights {
		total += w
	}
	prog := make([]byte, 0, 2*steps)
	for range steps {
		op, x := 0, rng.Intn(total)
		for x >= weights[op] {
			x -= weights[op]
			op++
		}
		prog = append(prog, byte(op), byte(rng.Intn(256)))
	}
	return prog
}

// TestCloseOwnKeysMatchesScan is the property behind closing in O(the
// connection): random programs of open, steer, re-steer, DropSteering,
// default queue, RSS, outside installs, flushes and traffic under a cacheable
// chain leave, after every step, the same steering rows, SRAM charge, flow
// cache entries and Invalidations whether each close touches only what its
// connection owns or scans both whole tables, as every close once did.
func TestCloseOwnKeysMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var kinds [numCloseKinds]int
	for p := 0; p < 300; p++ {
		prog := closeProgram(rng, 120)
		got, want := newCloseRig(t, false), newCloseRig(t, true)
		for i := 0; i+1 < len(prog); i += 2 {
			kinds[got.apply(t, prog[i], prog[i+1])]++
			want.apply(t, prog[i], prog[i+1])
			sameTables(t, i/2, got.n, want.n)
		}
	}
	// Every path was taken often enough for the comparison to mean something.
	for kind, min := range map[closeKind]int{closeOwn: 1000, closeWide: 200, closeForeign: 50} {
		if kinds[kind] < min {
			t.Fatalf("close path %d taken %d times, want at least %d (all: %v)", kind, kinds[kind], min, kinds)
		}
	}
	t.Logf("closes: %d own keys, %d default or RSS, %d with handed-over entries", kinds[closeOwn], kinds[closeWide], kinds[closeForeign])
}
