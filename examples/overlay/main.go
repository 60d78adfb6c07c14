// Overlay programmability (§4.4): the dataplane is a processor. This
// example hand-writes two overlay programs — a 1-in-8 sampling mirror and a
// token-bucket port meter — verifies and loads them onto a live KOPI host's
// NIC *while traffic flows*, and hot-swaps between them. The swap is a
// microsecond control-plane operation with zero packet loss; contrast the
// multi-second bitstream respin (experiment E4).
package main

import (
	"fmt"

	"norman"
	"norman/internal/nic"
	"norman/internal/overlay"
)

func main() {
	sys := norman.New(norman.KOPI)
	sink := sys.UseSinkPeer()

	alice := sys.AddUser(1000, "alice")
	app := sys.Spawn(alice, "app")
	conn, err := sys.Dial(app, 4000, 7777)
	if err != nil {
		panic(err)
	}

	// Phase 1: load the sampling mirror on the egress pipeline, with a
	// capture tap to receive the samples.
	capture, err := sys.Tcpdump("")
	if err != nil {
		panic(err)
	}
	mirror, err := overlay.Assemble("sample8", samplingMirrorProgram(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("program: 1-in-8 sampling mirror")
	fmt.Println(overlay.Disassemble(mirror))

	w := sys.World()
	if _, load, err := w.NIC.LoadProgram(nic.Egress, mirror); err != nil {
		panic(err)
	} else {
		fmt.Printf("loaded in %v of control-plane time\n\n", load)
	}

	for i := 0; i < 64; i++ {
		i := i
		sys.At(norman.Duration(i)*10*norman.Microsecond, func() { conn.Send(200) })
	}
	sys.Run()
	// The tap sees every transmitted frame once (tcpdump semantics) plus
	// one extra copy per overlay `mirror`; the sample count is the excess.
	_, matched := capture.Counters()
	fmt.Printf("phase 1: sent 64, wire delivered %d, overlay-mirrored %d (want 64, 64, 8)\n\n",
		sink.Packets, matched-sink.Packets)

	// Phase 2: hot-swap to a meter that rate-limits port 7777 hard.
	meter, err := overlay.Assemble("meter7777", portMeterProgram(7777, 20e3, 300))
	if err != nil {
		panic(err)
	}
	if _, load, err := w.NIC.LoadProgram(nic.Egress, meter); err != nil {
		panic(err)
	} else {
		fmt.Printf("hot-swapped to port meter in %v; dataplane never stopped\n", load)
	}

	before := sink.Packets
	for i := 0; i < 64; i++ {
		i := i
		sys.At(sys.Now()+norman.Duration(i)*10*norman.Microsecond, func() { conn.Send(200) })
	}
	sys.Run()
	delivered := sink.Packets - before
	m := w.NIC.Machine(nic.Egress)
	fmt.Printf("phase 2: sent 64, wire delivered %d, meter shed %d\n",
		delivered, m.Counter("shed"))
}

// samplingMirrorProgram mirrors one in every 2^logN packets to the capture
// tap — bounded-overhead always-on telemetry.
func samplingMirrorProgram(logN uint) string {
	return fmt.Sprintf(`
.table tick 1
ldi r0, 0
lookup r1, tick, r0, first
jmp have
first:
ldi r1, 0
have:
ldi r2, 1
add r1, r2
update tick, r0, r1
and r1, %d
jne r1, 0, out
mirror
out:
pass
`, (1<<logN)-1)
}

// portMeterProgram rate-limits traffic to one destination port with a
// token-bucket meter and counts what it sheds.
func portMeterProgram(port uint16, rateBps, burstBytes float64) string {
	return fmt.Sprintf(`
.meter lim %g %g
.counter shed
ldf r0, dst_port
jne r0, %d, out
ldf r1, len
meter r2, lim, r1
jeq r2, 1, out
count shed
drop
out:
pass
`, rateBps, burstBytes, port)
}
