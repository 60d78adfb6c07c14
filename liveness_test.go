package norman_test

import (
	"regexp"
	"testing"
	"time"

	"norman"
)

// TestShapedJumboFrameRunReturns: a frame larger than a shaper's burst can
// neither hang the datapath nor vanish. A tbf qdisc refuses it at enqueue,
// as Linux's sch_tbf does, under the architecture's one typed counter; the
// NIC's per-connection pacer sends it from a full bucket and leaves the
// bucket in debt. Either way Run returns. Each case runs under a deadline so
// that a world whose engine never goes idle fails here instead of hanging
// the suite.
func TestShapedJumboFrameRunReturns(t *testing.T) {
	for _, tc := range []struct {
		name      string
		arch      norman.Architecture
		shape     func(*norman.System, *norman.Conn) error
		delivered uint64
		counter   string // the one series that must read 1
	}{
		{"kopi/tbf", norman.KOPI, tbf, 0, `norman_nic_ledger_tx_qdisc_refused\{arch="kopi"\}`},
		{"kernelstack/tbf", norman.KernelStack, tbf, 0, `norman_host_drops\{arch="kernelstack",reason="tx_qdisc"\}`},
		{"kopi/pacer", norman.KOPI, func(_ *norman.System, c *norman.Conn) error { return c.SetRateLimit(1e6) }, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := norman.New(tc.arch)
			sink := sys.UseSinkPeer()
			reg := sys.EnableTelemetry()
			conn, err := sys.Dial(sys.Spawn(sys.AddUser(1000, "u"), "game"), 4000, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.shape(sys, conn); err != nil {
				t.Fatal(err)
			}
			conn.Send(8958) // a 9000B jumbo frame against a 1514B bucket
			ran := make(chan struct{})
			go func() {
				sys.Run()
				close(ran)
			}()
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return: the shaped frame keeps the engine busy forever")
			}
			if got := sink.Packets; got != tc.delivered {
				t.Errorf("delivered %d frames, want %d", got, tc.delivered)
			}
			if tc.counter == "" {
				return
			}
			m := regexp.MustCompile(`(?m)^` + tc.counter + ` (\S+)$`).FindStringSubmatch(reg.RenderPrometheus())
			if m == nil || m[1] != "1" {
				t.Fatalf("%s = %v, want 1", tc.counter, m)
			}
		})
	}
}

// tbf shapes the system's egress to 1 MB/s with a one-frame burst.
func tbf(sys *norman.System, _ *norman.Conn) error {
	return sys.TCSet(norman.QdiscSpec{Kind: "tbf", RateBps: 1e6, BurstBytes: 1514})
}
