package sniff

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/telemetry"
)

func udp(src, dst packet.IPv4, sport, dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, src, dst, sport, dport, 32)
}

func TestExprPrimitives(t *testing.T) {
	p := udp(packet.MakeIP(10, 0, 0, 1), packet.MakeIP(10, 0, 0, 2), 4000, 53)
	arp := packet.NewARPRequest(packet.MAC{}, packet.MakeIP(10, 0, 0, 1), packet.MakeIP(10, 0, 0, 9))

	cases := []struct {
		expr string
		pkt  *packet.Packet
		want bool
	}{
		{"", p, true},
		{"udp", p, true},
		{"tcp", p, false},
		{"arp", arp, true},
		{"arp", p, false},
		{"ip", p, true},
		{"host 10.0.0.1", p, true},
		{"host 10.0.0.3", p, false},
		{"src host 10.0.0.1", p, true},
		{"dst host 10.0.0.1", p, false},
		{"net 10.0.0.0/8", p, true},
		{"net 11.0.0.0/8", p, false},
		{"port 53", p, true},
		{"dst port 53", p, true},
		{"src port 53", p, false},
		{"portrange 50-60", p, true},
		{"portrange 60-70", p, false},
		{"greater 60", p, true},
		{"less 60", p, false},
		{"udp and port 53", p, true},
		{"udp and port 54", p, false},
		{"tcp or port 53", p, true},
		{"not tcp", p, true},
		{"not ( udp and port 53 )", p, false},
		{"host 10.0.0.1 and ( tcp or udp )", p, true},
		// ARP addresses are visible to host/net primitives.
		{"host 10.0.0.9", arp, true},
	}
	for _, c := range cases {
		e, err := Parse(c.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if got := e.Match(c.pkt); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestExprProcessView(t *testing.T) {
	p := udp(1, 2, 3, 4)
	p.Meta.UID = 1001
	p.Meta.PID = 77
	p.Meta.Command = "postgres"

	e := mustParse("uid 1001")
	if !e.RequiresProcessView() {
		t.Fatal("uid expressions need a process view")
	}
	if e.Match(p) {
		t.Fatal("untrusted metadata must not match")
	}
	p.Meta.TrustedMeta = true
	if !e.Match(p) {
		t.Fatal("trusted uid should match")
	}
	if !mustParse("cmd postgres").Match(p) {
		t.Fatal("cmd should match")
	}
	if !mustParse("pid 77").Match(p) {
		t.Fatal("pid should match")
	}
	if mustParse("udp and port 4").RequiresProcessView() {
		t.Fatal("plain expressions do not need a process view")
	}
}

func TestExprErrors(t *testing.T) {
	for _, bad := range []string{
		"frobnicate", "port", "host 1.2.3", "net 10.0.0.0",
		"portrange 10", "( udp", "udp and", "src banana 1",
		"uid abc", "port 53 extra stuff",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

func TestTapFilterAndEviction(t *testing.T) {
	tap := NewTap(mustParse("port 53"), 3)
	for i := 0; i < 5; i++ {
		tap.Offer(udp(1, 2, uint16(1000+i), 53), sim.Time(i))
	}
	tap.Offer(udp(1, 2, 9, 99), 10) // filtered out
	seen, matched, evicted := tap.Counters()
	if seen != 6 || matched != 5 || evicted != 2 {
		t.Fatalf("counters: %d %d %d", seen, matched, evicted)
	}
	recs := tap.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d", len(recs))
	}
	if recs[0].Pkt.UDP.SrcPort != 1002 {
		t.Fatalf("oldest retained should be #2, got %d", recs[0].Pkt.UDP.SrcPort)
	}
}

// TestTapRingKeepsArrivalOrder: once full, the tap overwrites its oldest
// record in place, and Records reads arrival order at every step — including
// reads in the middle of a wrap, after which capture goes on where it was.
func TestTapRingKeepsArrivalOrder(t *testing.T) {
	const limit = 5
	tap := NewTap(nil, limit)
	for i := 0; i < 4*limit+2; i++ {
		tap.Offer(udp(1, 2, uint16(i), 53), sim.Time(i))
		if i%3 != 0 {
			continue // let some wraps go unread
		}
		recs := tap.Records()
		first := 0
		if i >= limit {
			first = i + 1 - limit
		}
		if len(recs) != i+1-first {
			t.Fatalf("after %d offers: %d records", i+1, len(recs))
		}
		for k, r := range recs {
			if want := first + k; r.At != sim.Time(want) || r.Pkt.UDP.SrcPort != uint16(want) {
				t.Fatalf("after %d offers: record %d is #%d, want #%d", i+1, k, r.Pkt.UDP.SrcPort, want)
			}
		}
	}
}

func TestTapClonesPackets(t *testing.T) {
	tap := NewTap(nil, 10)
	p := udp(1, 2, 3, 4)
	tap.Offer(p, 0)
	p.UDP.SrcPort = 999 // mutate after capture
	if tap.Records()[0].Pkt.UDP.SrcPort != 3 {
		t.Fatal("tap must deep-copy captured packets")
	}
}

func TestAttribution(t *testing.T) {
	p := udp(1, 2, 3, 4)
	r := Record{Pkt: p}
	if r.Attribution() != "?" {
		t.Fatalf("untrusted: %q", r.Attribution())
	}
	p.Meta.TrustedMeta = true
	p.Meta.UID, p.Meta.PID, p.Meta.Command = 5, 6, "x"
	if r.Attribution() != "uid=5 pid=6 cmd=x" {
		t.Fatalf("attribution: %q", r.Attribution())
	}
}

func TestPcapRoundTrip(t *testing.T) {
	recs := []Record{
		{At: sim.Time(3 * sim.Microsecond), Pkt: udp(packet.MakeIP(10, 0, 0, 1), packet.MakeIP(10, 0, 0, 2), 1234, 53)},
		{At: sim.Time(2 * sim.Second), Pkt: packet.NewARPRequest(packet.MAC{0xaa}, 1, 2)},
	}
	recs[0].Pkt.Payload = []byte("dns-query-ish payload contents!!")
	recs[0].Pkt.PayloadLen = len(recs[0].Pkt.Payload)

	var buf bytes.Buffer
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	if got[0].Pkt.UDP == nil || got[0].Pkt.UDP.DstPort != 53 {
		t.Fatal("udp record lost")
	}
	if !bytes.Equal(got[0].Pkt.Payload, recs[0].Pkt.Payload) {
		t.Fatal("payload lost")
	}
	if got[1].Pkt.ARP == nil {
		t.Fatal("arp record lost")
	}
	// Timestamps survive at microsecond resolution.
	if got[1].At != recs[1].At {
		t.Fatalf("timestamp: %v vs %v", got[1].At, recs[1].At)
	}
}

// Property: any set of captured UDP packets survives a pcap round trip with
// ports and payload sizes intact.
func TestPcapRoundTripQuick(t *testing.T) {
	f := func(ports []uint16, sizes []uint8) bool {
		n := len(ports)
		if len(sizes) < n {
			n = len(sizes)
		}
		if n > 16 {
			n = 16
		}
		recs := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			p := udp(1, 2, ports[i], 53)
			p.PayloadLen = int(sizes[i])
			p.Payload = bytes.Repeat([]byte{byte(i)}, int(sizes[i]))
			recs = append(recs, Record{At: sim.Time(i) * sim.Time(sim.Microsecond), Pkt: p})
		}
		var buf bytes.Buffer
		if err := WritePcap(&buf, recs); err != nil {
			return false
		}
		got, err := ReadPcap(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].Pkt.UDP == nil || got[i].Pkt.UDP.SrcPort != ports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTapEvictionAccountingInvariant churns a small tap past its limit and
// checks the conservation law the telemetry layer reports: every matched
// packet is either still retained or has been evicted, at every step —
// including the boundary where the buffer is exactly full.
func TestTapEvictionAccountingInvariant(t *testing.T) {
	const limit = 4
	tap := NewTap(mustParse("udp"), limit)
	reg := telemetry.NewRegistry()
	tap.RegisterMetrics(reg, telemetry.Labels{"tap": "test"})

	for i := 0; i < 3*limit; i++ {
		tap.Offer(udp(1, 2, uint16(i), 53), sim.Time(i))
		seen, matched, evicted := tap.Counters()
		if got := uint64(len(tap.Records())) + evicted; matched != got {
			t.Fatalf("step %d: matched=%d but retained+evicted=%d", i, matched, got)
		}
		if seen != uint64(i+1) {
			t.Fatalf("step %d: seen=%d", i, seen)
		}
		// No eviction until the buffer is past full.
		if i < limit && evicted != 0 {
			t.Fatalf("step %d: premature eviction (%d)", i, evicted)
		}
		if i >= limit && evicted != uint64(i+1-limit) {
			t.Fatalf("step %d: evicted=%d, want %d", i, evicted, i+1-limit)
		}
	}
	if got := len(tap.Records()); got != limit {
		t.Fatalf("retained %d, want %d", got, limit)
	}

	// The registry closures read the same live accounting.
	prom := reg.RenderPrometheus()
	for _, want := range []string{
		`norman_sniff_matched{tap="test"} 12`,
		`norman_sniff_evicted{tap="test"} 8`,
		`norman_sniff_retained{tap="test"} 4`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus render missing %q:\n%s", want, prom)
		}
	}
}

// TestTapWritePcap pins the Tap-level pcap shorthand: the stream it writes
// round-trips through ReadPcap with the retained records intact.
func TestTapWritePcap(t *testing.T) {
	tap := NewTap(nil, 8)
	for i := 0; i < 3; i++ {
		tap.Offer(udp(1, 2, uint16(100+i), 53), sim.Time(i))
	}
	var buf bytes.Buffer
	if err := tap.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("round-tripped %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Pkt.UDP == nil || r.Pkt.UDP.SrcPort != uint16(100+i) {
			t.Fatalf("record %d corrupted: %+v", i, r.Pkt)
		}
	}
}

// mustParse is Parse panicking on error, for the tests' constant filters.
func mustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}
