package ctl

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"norman"
	"norman/internal/recovery"
	"norman/internal/sniff"
	"norman/internal/telemetry"
)

// Server exposes a running System over the control socket. All simulation
// access is serialized through one mutex: the discrete-event engine is
// single-threaded by design.
type Server struct {
	mu  sync.Mutex
	sys *norman.System

	// Advance the simulation by this much virtual time per request, so a
	// live normand's world moves while tools observe it.
	StepPerRequest norman.Duration

	capture *norman.Capture

	// Request accounting, exposed through RegisterMetrics as the ctl layer.
	requests uint64
	errors   uint64

	ln     net.Listener
	closed atomic.Bool
}

// NewServer wraps a system.
func NewServer(sys *norman.System) *Server {
	return &Server{sys: sys, StepPerRequest: 5 * norman.Millisecond}
}

// Listen binds the Unix socket (removing a stale one) and serves until the
// listener fails or Close is called. A graceful Close returns nil; any other
// listener error is returned so normand can exit nonzero instead of limping
// on without a control plane.
func (s *Server) Listen(path string) error {
	_ = os.Remove(path)
	ln, err := net.Listen("unix", path)
	if err != nil {
		return fmt.Errorf("ctl: listen %s: %w", path, err)
	}
	s.ln = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return fmt.Errorf("ctl: accept: %w", err)
		}
		go s.serveConn(conn)
	}
}

// Close stops the listener; a Listen blocked in Accept returns nil.
func (s *Server) Close() error {
	s.closed.Store(true)
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var req Request
		resp := Response{}
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			resp.Error = "bad request: " + err.Error()
		} else {
			data, err := s.dispatch(req)
			if err != nil {
				resp.Error = err.Error()
			} else {
				resp.OK = true
				resp.Data = data
			}
		}
		out, err := json.Marshal(resp)
		if err != nil {
			return
		}
		out = append(out, '\n')
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req Request) (data json.RawMessage, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	defer func() {
		if err != nil {
			s.errors++
		}
	}()

	// Keep the world moving so tools observe live state.
	if req.Op != OpAdvance {
		s.sys.RunFor(s.StepPerRequest)
	}

	switch req.Op {
	case OpStatus:
		return s.status()
	case OpAdvance:
		var a AdvanceArgs
		if err := json.Unmarshal(req.Args, &a); err != nil {
			return nil, err
		}
		if a.Millis <= 0 {
			a.Millis = 1
		}
		s.sys.RunFor(norman.Duration(a.Millis) * norman.Millisecond)
		return s.status()
	case OpIPTablesAdd:
		var a recovery.RuleRecord
		if err := json.Unmarshal(req.Args, &a); err != nil {
			return nil, err
		}
		return nil, s.sys.IPTablesAppend(a.Hook, a.Rule)
	case OpIPTablesList:
		return marshal(s.renderRules())
	case OpIPTablesFlush:
		return nil, s.sys.IPTablesFlush()
	case OpTCSet:
		var a norman.QdiscSpec
		if err := json.Unmarshal(req.Args, &a); err != nil {
			return nil, err
		}
		return nil, s.sys.TCSet(a)
	case OpTCShow:
		if q, ok := s.sys.TCShow(); ok {
			return marshal(fmt.Sprintf("qdisc %s weights=%v class_of_uid=%v", q.Kind, q.Weights, q.ClassOfUID))
		}
		return marshal("qdisc pfifo (default)")
	case OpDumpStart:
		var a DumpArgs
		if err := json.Unmarshal(req.Args, &a); err != nil {
			return nil, err
		}
		capture, err := s.sys.Tcpdump(a.Expr)
		if err != nil {
			return nil, err
		}
		s.capture = capture
		return nil, nil
	case OpDumpFetch:
		return s.dumpFetch()
	case OpDumpPcap:
		return s.dumpPcap()
	case OpPing:
		var a PingArgs
		if err := json.Unmarshal(req.Args, &a); err != nil {
			return nil, err
		}
		return s.ping(a)
	case OpNetstat:
		return s.netstat()
	case OpARP:
		return s.arp()
	case OpTelemetry:
		var a TelemetryArgs
		if len(req.Args) > 0 {
			if err := json.Unmarshal(req.Args, &a); err != nil {
				return nil, err
			}
		}
		return s.telemetryDump(a)
	case OpTrace:
		var a TraceArgs
		if len(req.Args) > 0 {
			if err := json.Unmarshal(req.Args, &a); err != nil {
				return nil, err
			}
		}
		return s.traceGet(a)
	case OpRecovery:
		rec := s.sys.Recovery()
		if rec == nil {
			return nil, fmt.Errorf("ctl: recovery not enabled on this daemon")
		}
		return marshal(rec.Status())
	case OpOverload:
		st := OverloadData{}
		if gov := s.sys.Overload(); gov != nil {
			st = OverloadData{Enabled: true, Snapshot: gov.Snapshot()}
		}
		return marshal(st)
	case OpTenants:
		rows := s.sys.TenantsStatus() // nil when isolation is off
		return marshal(TenantData{Enabled: rows != nil, Tenants: rows})
	case OpFlowCache:
		return marshal(s.sys.FlowCacheStatus())
	case OpHealth:
		return marshal(s.sys.HealthStatus())
	case OpUpgradeStart:
		if err := s.sys.StartLiveUpgrade(); err != nil {
			return nil, err
		}
		// Run the world past the cutover so the reply reflects the flip.
		s.sys.RunFor(s.StepPerRequest)
		return marshal(s.sys.UpgradeStatus())
	case OpUpgradeStatus:
		return marshal(s.sys.UpgradeStatus())
	default:
		return nil, fmt.Errorf("ctl: unknown op %q", req.Op)
	}
}

func marshal(v interface{}) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	return b, err
}

func (s *Server) status() (json.RawMessage, error) {
	w := s.sys.World()
	used, budget := w.NIC.SRAM()
	return marshal(StatusData{
		Architecture: string(s.sys.ArchitectureName()),
		VirtualTime:  s.sys.Now().String(),
		TxFrames:     w.NIC.TxFrames,
		RxFrames:     w.NIC.RxWire,
		RxDrops:      w.NIC.RxDropped(),
		SRAMUsed:     used,
		SRAMBudget:   budget,
		Conns:        w.NIC.ConnCount(),
	})
}

// renderRules is `iptables -L -v`: each installed rule as the line that
// installs it, with its own hit counter.
func (s *Server) renderRules() []string {
	out := []string{}
	for _, rs := range s.sys.IPTablesList() {
		out = append(out, fmt.Sprintf("%s   [%d pkts]", rs.RuleRecord, rs.Hits))
	}
	return out
}

func (s *Server) dumpFetch() (json.RawMessage, error) {
	if s.capture == nil {
		return nil, fmt.Errorf("ctl: no capture running (tcpdump.start first)")
	}
	recs := s.capture.Records()
	out := make([]DumpRecord, 0, len(recs))
	for _, r := range recs {
		out = append(out, DumpRecord{
			At:          r.At.String(),
			Summary:     summarize(r),
			Attribution: r.Attribution(),
		})
	}
	return marshal(out)
}

func (s *Server) dumpPcap() (json.RawMessage, error) {
	if s.capture == nil {
		return nil, fmt.Errorf("ctl: no capture running (tcpdump.start first)")
	}
	var buf strings.Builder
	enc := base64.NewEncoder(base64.StdEncoding, &buf)
	recs := s.capture.Records()
	if err := sniff.WritePcap(enc, recs); err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	return marshal(PcapData{Base64: buf.String(), Count: len(recs)})
}

func summarize(r sniff.Record) string {
	p := r.Pkt
	switch {
	case p.ARP != nil:
		op := "request"
		if p.ARP.Op == 2 {
			op = "reply"
		}
		return fmt.Sprintf("ARP %s who-has %s tell %s", op, p.ARP.TargetIP, p.ARP.SenderIP)
	case p.UDP != nil:
		return fmt.Sprintf("UDP %s:%d > %s:%d len %d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, p.PayloadLen)
	case p.TCP != nil:
		return fmt.Sprintf("TCP %s:%d > %s:%d len %d",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort, p.PayloadLen)
	case p.IP != nil:
		return fmt.Sprintf("IP %s > %s proto %d", p.IP.Src, p.IP.Dst, p.IP.Proto)
	default:
		return fmt.Sprintf("frame %dB", p.FrameLen())
	}
}

// ping fires count echoes and runs virtual time until they resolve.
func (s *Server) ping(a PingArgs) (json.RawMessage, error) {
	if a.Count <= 0 {
		a.Count = 3
	}
	if a.Dst == "" {
		a.Dst = "10.0.0.2"
	}
	data := PingData{}
	for i := 0; i < a.Count; i++ {
		data.Sent++
		err := s.sys.Ping(a.Dst, func(rtt norman.Duration, ok bool) {
			if ok {
				data.Received++
				data.RTTs = append(data.RTTs, rtt.String())
			}
		})
		if err != nil {
			return nil, err
		}
		// Run virtual time forward far enough for a reply or timeout.
		s.sys.RunFor(150 * norman.Millisecond)
	}
	return marshal(data)
}

func (s *Server) netstat() (json.RawMessage, error) {
	rows := s.sys.Netstat()
	out := make([]NetstatData, 0, len(rows))
	for _, r := range rows {
		out = append(out, NetstatData{
			ConnID: r.ConnID, Flow: r.Flow, PID: r.PID, UID: r.UID,
			Command: r.Command, Opened: r.Opened.String(),
		})
	}
	return marshal(out)
}

// telemetryDump renders the system's metrics registry (telemetry.dump).
func (s *Server) telemetryDump(a TelemetryArgs) (json.RawMessage, error) {
	reg := s.sys.Telemetry()
	if reg == nil {
		return nil, fmt.Errorf("ctl: telemetry not enabled on this daemon")
	}
	format := a.Format
	if format == "" {
		format = "prometheus"
	}
	var body string
	switch format {
	case "prometheus":
		body = reg.RenderPrometheus()
	case "json":
		body = reg.RenderJSON()
	default:
		return nil, fmt.Errorf("ctl: unknown telemetry format %q (want prometheus or json)", a.Format)
	}
	return marshal(TelemetryData{
		Format:  format,
		Metrics: reg.Len(),
		Layers:  reg.Layers(),
		Body:    body,
	})
}

// traceGet renders one packet's lifecycle journey (trace.get).
func (s *Server) traceGet(a TraceArgs) (json.RawMessage, error) {
	tr := s.sys.Tracer()
	if tr == nil {
		return nil, fmt.Errorf("ctl: tracing not enabled on this daemon")
	}
	ids := tr.IDs()
	if a.ID == 0 {
		if len(ids) == 0 {
			return nil, fmt.Errorf("ctl: no packets traced yet")
		}
		a.ID = ids[len(ids)-1]
	}
	return marshal(TraceData{ID: a.ID, Available: ids, Rendered: tr.Format(a.ID)})
}

// RegisterMetrics exposes the control plane's own request accounting on a
// registry — the ctl layer of the unified telemetry schema.
func (s *Server) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	r.Counter(telemetry.Desc{Layer: "ctl", Name: "requests", Help: "control-socket requests dispatched", Unit: "requests"},
		labels, func() uint64 { return s.requests })
	r.Counter(telemetry.Desc{Layer: "ctl", Name: "errors", Help: "control-socket requests that returned an error", Unit: "requests"},
		labels, func() uint64 { return s.errors })
}

func (s *Server) arp() (json.RawMessage, error) {
	kern := s.sys.World().Kern
	data := ARPData{RequestsByPID: kern.ARP().RequestsSeen}
	for _, e := range kern.ARP().Entries() {
		data.Entries = append(data.Entries, ARPEntryData{
			IP: e.IP.String(), MAC: e.MAC.String(), Learned: e.Learned.String(),
		})
	}
	return marshal(data)
}
