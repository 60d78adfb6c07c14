package norman_test

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"norman"
)

func TestQuickstartFlow(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseEchoPeer()
	alice := sys.AddUser(1000, "alice")
	app := sys.Spawn(alice, "app")
	conn, err := sys.Dial(app, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	echoes := 0
	conn.OnReceive(func(d norman.Delivery) {
		echoes++
		if d.Payload != 512 {
			t.Errorf("payload %d", d.Payload)
		}
		if !strings.HasPrefix(d.From, "10.0.0.2:") {
			t.Errorf("from %q", d.From)
		}
		if echoes < 10 {
			conn.Send(512)
		}
	})
	conn.Send(512)
	end := sys.Run()
	if echoes != 10 {
		t.Fatalf("echoes = %d", echoes)
	}
	if end <= 0 || sys.Now() != end {
		t.Fatalf("clock: %v %v", end, sys.Now())
	}
	if conn.Delivered() != 10 {
		t.Fatalf("delivered = %d", conn.Delivered())
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Netstat()) != 0 {
		t.Fatal("netstat after close should be empty")
	}
}

// TestDialCloseLeavesNothingBehind: a closed connection's OnReceive closure is
// garbage. Each of 2000 Dial → OnReceive → Close cycles captures a sentinel
// in its closure; after a GC every sentinel's finalizer has run, so nothing
// in the System kept a handler past its Close.
func TestDialCloseLeavesNothingBehind(t *testing.T) {
	const n = 2000
	sys := norman.New(norman.KOPI)
	sys.UseSinkPeer()
	app := sys.Spawn(sys.AddUser(1, "u"), "app")
	var collected atomic.Int64
	cycle := func(i int) { // its own frame, so no local outlives the cycle
		conn, err := sys.Dial(app, uint16(20000+i), 7)
		if err != nil {
			t.Fatal(err)
		}
		sentinel := new([2]int) // 16 B, so not a tiny allocation (whose finalizer may never run)
		runtime.SetFinalizer(sentinel, func(*[2]int) { collected.Add(1) })
		conn.OnReceive(func(norman.Delivery) { sentinel[0]++ })
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		cycle(i)
	}
	for i := 0; i < 50 && collected.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Fatalf("%d of %d closed connections' receive handlers collected", got, n)
	}
	runtime.KeepAlive(sys)
}

func TestDialConflictsAndErrors(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseEchoPeer()
	u := sys.AddUser(1, "u")
	p1 := sys.Spawn(u, "a")
	p2 := sys.Spawn(u, "b")
	if _, err := sys.Dial(p1, 5000, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Dial(p2, 5000, 7); err == nil {
		t.Fatal("port conflict must fail")
	}
}

func TestCapabilitiesDifferByArchitecture(t *testing.T) {
	for _, a := range norman.Architectures() {
		sys := norman.New(a)
		caps := sys.Capabilities()
		switch a {
		case norman.Bypass:
			if caps.OwnerFiltering || caps.BlockingIO {
				t.Errorf("bypass caps: %+v", caps)
			}
			if caps.Transfers != 1 {
				t.Errorf("bypass transfers: %d", caps.Transfers)
			}
		case norman.KOPI:
			if !caps.OwnerFiltering || !caps.BlockingIO || caps.Transfers != 1 {
				t.Errorf("kopi caps: %+v", caps)
			}
		case norman.KernelStack:
			if caps.Transfers != 2 || !caps.OwnerFiltering {
				t.Errorf("kernelstack caps: %+v", caps)
			}
		}
	}
}

func TestAdminRuleValidation(t *testing.T) {
	sys := norman.New(norman.KOPI)
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Proto: "icmpx"}); err == nil {
		t.Fatal("bad proto must fail")
	}
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{SrcNet: "banana"}); err == nil {
		t.Fatal("bad CIDR must fail")
	}
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Action: "explode"}); err == nil {
		t.Fatal("bad action must fail")
	}
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{
		Proto: "udp", SrcNet: "10.0.0.0/8", DstPort: 53, Action: "drop",
	}); err != nil {
		t.Fatalf("valid rule: %v", err)
	}
}

// TestRuleHitsSurviveAppend: `iptables -A` on either hook keeps every
// installed rule's hit counter, on every architecture that has rules, and a
// flush starts the counters from zero again.
func TestRuleHitsSurviveAppend(t *testing.T) {
	for _, a := range norman.Architectures() {
		if a == norman.Bypass {
			continue // no interposition point, no rules
		}
		t.Run(string(a), func(t *testing.T) {
			sys := norman.New(a)
			sys.UseSinkPeer()
			conn, err := sys.Dial(sys.Spawn(sys.AddUser(1000, "alice"), "app"), 40000, 7)
			if err != nil {
				t.Fatal(err)
			}
			send := func(n int) {
				for i := 0; i < n; i++ {
					conn.Send(64)
				}
				sys.Run()
			}
			countRule := norman.Rule{Proto: "udp", DstPort: 7, Action: "count"}
			hits := func() uint64 {
				t.Helper()
				for _, rs := range sys.IPTablesList() {
					if rs.Hook == norman.Output && rs.Rule == countRule {
						return rs.Hits
					}
				}
				t.Fatal("the OUTPUT count rule is not listed")
				return 0
			}
			if err := sys.IPTablesAppend(norman.Output, countRule); err != nil {
				t.Fatal(err)
			}
			send(5)
			if h := hits(); h != 5 {
				t.Fatalf("%d hits after 5 sends, want 5", h)
			}
			for _, hook := range []string{norman.Input, norman.Output} {
				if err := sys.IPTablesAppend(hook, norman.Rule{Proto: "tcp", DstPort: 9, Action: "drop"}); err != nil {
					t.Fatal(err)
				}
				if h := hits(); h != 5 {
					t.Fatalf("%d hits after an %s append, want the 5 counted before it", h, hook)
				}
			}
			send(2)
			if h := hits(); h != 7 {
				t.Fatalf("%d hits after 2 more sends, want 7", h)
			}
			if err := sys.IPTablesFlush(); err != nil {
				t.Fatal(err)
			}
			if err := sys.IPTablesAppend(norman.Output, countRule); err != nil {
				t.Fatal(err)
			}
			if h := hits(); h != 0 {
				t.Fatalf("%d hits on the rule appended after a flush, want 0", h)
			}
		})
	}
}

func TestBypassRefusesAdminVerbs(t *testing.T) {
	sys := norman.New(norman.Bypass)
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Action: "drop"}); err == nil {
		t.Fatal("bypass iptables must fail")
	}
	if _, err := sys.Tcpdump("udp"); err == nil {
		t.Fatal("bypass tcpdump must fail")
	}
	if err := sys.TCSet(norman.QdiscSpec{Kind: "wfq"}); err == nil {
		t.Fatal("bypass tc must fail")
	}
}

func TestBlockingAPI(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseSinkPeer()
	u := sys.AddUser(1, "u")
	p := sys.Spawn(u, "worker")
	conn, err := sys.Dial(p, 7000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetBlocking(true); err != nil {
		t.Fatalf("kopi must support blocking: %v", err)
	}
	got := 0
	conn.OnReceive(func(norman.Delivery) { got++ })
	sys.At(10*norman.Microsecond, func() { sys.InjectInbound(conn, 128) })
	sys.Run()
	if got != 1 {
		t.Fatalf("blocked receiver woke %d times", got)
	}

	bp := norman.New(norman.Bypass)
	bp.UseSinkPeer()
	u2 := bp.AddUser(1, "u")
	p2 := bp.Spawn(u2, "w")
	c2, err := bp.Dial(p2, 7000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetBlocking(true); err == nil {
		t.Fatal("bypass blocking must fail")
	}
}

func TestTcpdumpAttribution(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseSinkPeer()
	u := sys.AddUser(1000, "alice")
	p := sys.Spawn(u, "sender")
	conn, err := sys.Dial(p, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := sys.Tcpdump("uid 1000")
	if err != nil {
		t.Fatal(err)
	}
	conn.SendBatch(100, 5)
	sys.Run()
	_, matched := capture.Counters()
	if matched != 5 {
		t.Fatalf("matched %d", matched)
	}
	for _, r := range capture.Records() {
		if r.Attribution() == "?" {
			t.Fatal("kopi records must be attributed")
		}
	}

	// The same uid filter is rejected where no process view exists.
	hv := norman.New(norman.Hypervisor)
	if _, err := hv.Tcpdump("uid 1000"); err == nil {
		t.Fatal("hypervisor must reject uid capture filters")
	}
	if _, err := hv.Tcpdump("udp"); err != nil {
		t.Fatalf("plain filters work on the hypervisor: %v", err)
	}
}

func TestWithOptions(t *testing.T) {
	sys := norman.New(norman.KOPI, norman.WithNICSRAM(1024), norman.WithRingSize(16))
	u := sys.AddUser(1, "u")
	p := sys.Spawn(u, "a")
	opened := 0
	for i := 0; i < 10; i++ {
		if _, err := sys.Dial(p, uint16(6000+i), 7); err == nil {
			opened++
		}
	}
	if opened >= 10 {
		t.Fatal("tiny SRAM budget must limit connections")
	}
	sys2 := norman.New(norman.KOPI, norman.WithoutCacheModel())
	if sys2.World().LLC != nil {
		t.Fatal("WithoutCacheModel must disable the LLC")
	}
}

func TestPerConnRateLimitAPI(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sink := sys.UseSinkPeer()
	u := sys.AddUser(1, "u")
	p := sys.Spawn(u, "a")
	conn, err := sys.Dial(p, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetRateLimit(10e6); err != nil { // 10 MB/s
		t.Fatal(err)
	}
	conn.SendBatch(1460, 40)
	end := sys.Run()
	if sink.Packets != 40 {
		t.Fatalf("delivered %d", sink.Packets)
	}
	// 40 × 1502B at 10 MB/s ≈ 6 ms; unthrottled this takes microseconds.
	if end < 4*norman.Millisecond {
		t.Fatalf("rate limit not enforced: finished in %v", end)
	}

	ks := norman.New(norman.KernelStack)
	u2 := ks.AddUser(1, "u")
	p2 := ks.Spawn(u2, "a")
	c2, err := ks.Dial(p2, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetRateLimit(1e6); err == nil {
		t.Fatal("kernelstack conns own no NIC queues to pace")
	}
}

func TestPingAPI(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseEchoPeer() // UDP-only peer: replace with a real endpoint below
	w := sys.World()
	// Install a pingable endpoint at the peer address.
	_ = w
	net := newTestNetwork(sys)
	_ = net

	var rtt norman.Duration
	var ok bool
	if err := sys.Ping("10.0.0.2", func(d norman.Duration, o bool) { rtt, ok = d, o }); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !ok || rtt < 4*norman.Microsecond {
		t.Fatalf("ping: ok=%v rtt=%v", ok, rtt)
	}
	if err := sys.Ping("not-an-ip", nil); err == nil {
		t.Fatal("bad address must fail")
	}

	bp := norman.New(norman.Bypass)
	if err := bp.Ping("10.0.0.2", nil); err == nil {
		t.Fatal("bypass ping must fail")
	}
}
