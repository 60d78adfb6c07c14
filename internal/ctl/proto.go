// Package ctl implements the control socket between a running normand
// instance and the administrative tools (niptables, ntc, ntcpdump,
// nnetstat, narp): newline-delimited JSON over a Unix domain socket. This
// mirrors the paper's Figure 1, where tc/iptables/tcpdump call into the
// in-kernel control plane, which reprograms the on-NIC dataplane.
package ctl

import (
	"encoding/json"

	"norman"
	"norman/internal/overload"
)

// DefaultSocket is where normand listens unless told otherwise.
const DefaultSocket = "/tmp/normand.sock"

// Request is one tool invocation.
type Request struct {
	Op   string          `json:"op"`
	Args json.RawMessage `json:"args,omitempty"`
}

// Response is the daemon's reply.
type Response struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Ops.
const (
	OpStatus        = "status"
	OpAdvance       = "advance"
	OpIPTablesAdd   = "iptables.append"
	OpIPTablesList  = "iptables.list"
	OpIPTablesFlush = "iptables.flush"
	OpTCSet         = "tc.set"
	OpTCShow        = "tc.show"
	OpDumpStart     = "tcpdump.start"
	OpDumpFetch     = "tcpdump.fetch"
	OpDumpPcap      = "tcpdump.pcap"
	OpNetstat       = "netstat"
	OpARP           = "arp"
	OpPing          = "ping"
	OpTelemetry     = "telemetry.dump"
	OpTrace         = "trace.get"
	OpRecovery      = "recovery.status"
	OpOverload      = "overload.status"
	OpTenants       = "tenant.status"
	OpFlowCache     = "flowcache.status"
	OpHealth        = "health.status"
	OpUpgradeStart  = "upgrade.start"
	OpUpgradeStatus = "upgrade.status"
)

// IdempotentOp reports whether op is a read-only query the client may
// safely replay on a fresh connection when the first attempt died
// mid-flight (daemon restarted between requests). Mutations are excluded:
// a broken connection leaves it unknown whether the daemon applied them.
func IdempotentOp(op string) bool {
	switch op {
	case OpStatus, OpIPTablesList, OpTCShow, OpDumpFetch, OpDumpPcap,
		OpNetstat, OpARP, OpTelemetry, OpTrace, OpRecovery, OpOverload,
		OpTenants, OpFlowCache, OpHealth, OpUpgradeStatus:
		return true
	}
	return false
}

// RuleArgs is the wire form of a firewall rule (iptables.append).
type RuleArgs struct {
	Hook     string  `json:"hook"` // INPUT / OUTPUT
	Proto    string  `json:"proto,omitempty"`
	SrcNet   string  `json:"src,omitempty"`
	DstNet   string  `json:"dst,omitempty"`
	SrcPort  uint16  `json:"sport,omitempty"`
	DstPort  uint16  `json:"dport,omitempty"`
	OwnerUID *uint32 `json:"uid_owner,omitempty"`
	OwnerCmd string  `json:"cmd_owner,omitempty"`
	Action   string  `json:"action"`
}

// TCArgs configures the egress scheduler (tc.set).
type TCArgs struct {
	Kind       string             `json:"kind"`
	Weights    map[uint32]float64 `json:"weights,omitempty"` // class -> weight/quantum
	ClassOfUID map[uint32]uint32  `json:"class_of_uid,omitempty"`
	RateBps    float64            `json:"rate_bps,omitempty"`
	BurstBytes float64            `json:"burst_bytes,omitempty"`
	Limit      int                `json:"limit,omitempty"`
}

// DumpArgs starts a capture (tcpdump.start).
type DumpArgs struct {
	Expr string `json:"expr"`
}

// PingArgs asks the daemon's kernel to ping an address (ping).
type PingArgs struct {
	Dst   string `json:"dst"`
	Count int    `json:"count"`
}

// PingData reports the echoes.
type PingData struct {
	Sent     int      `json:"sent"`
	Received int      `json:"received"`
	RTTs     []string `json:"rtts"`
}

// AdvanceArgs moves virtual time forward (advance).
type AdvanceArgs struct {
	Millis int `json:"millis"`
}

// StatusData is the daemon snapshot (status).
type StatusData struct {
	Architecture string `json:"architecture"`
	VirtualTime  string `json:"virtual_time"`
	TxFrames     uint64 `json:"tx_frames"`
	RxFrames     uint64 `json:"rx_frames"`
	RxDrops      uint64 `json:"rx_drops"`
	SRAMUsed     int    `json:"sram_used"`
	SRAMBudget   int    `json:"sram_budget"`
	Conns        int    `json:"conns"`
}

// NetstatData is one netstat row.
type NetstatData struct {
	ConnID  uint64 `json:"conn"`
	Flow    string `json:"flow"`
	PID     uint32 `json:"pid"`
	UID     uint32 `json:"uid"`
	Command string `json:"command"`
	Opened  string `json:"opened"`
}

// ARPData is one ARP cache row plus request accounting.
type ARPData struct {
	Entries []ARPEntryData `json:"entries"`
	// RequestsByPID counts outbound ARP requests the kernel observed.
	RequestsByPID map[uint32]uint64 `json:"requests_by_pid"`
}

// ARPEntryData is one cache line.
type ARPEntryData struct {
	IP      string `json:"ip"`
	MAC     string `json:"mac"`
	Learned string `json:"learned"`
}

// DumpRecord is one captured packet rendered for the tool.
type DumpRecord struct {
	At          string `json:"at"`
	Summary     string `json:"summary"`
	Attribution string `json:"attribution"`
}

// PcapData is a base64 pcap blob (tcpdump.pcap).
type PcapData struct {
	Base64 string `json:"pcap_b64"`
	Count  int    `json:"count"`
}

// TelemetryArgs selects the metrics rendering (telemetry.dump).
type TelemetryArgs struct {
	// Format is "prometheus" (default) or "json".
	Format string `json:"format,omitempty"`
}

// TelemetryData carries a rendered metrics dump.
type TelemetryData struct {
	Format  string   `json:"format"`
	Metrics int      `json:"metrics"`
	Layers  []string `json:"layers"`
	Body    string   `json:"body"`
}

// TraceArgs names a packet trace (trace.get); ID 0 means the most recently
// stamped packet.
type TraceArgs struct {
	ID uint64 `json:"id,omitempty"`
}

// TraceData is one packet's rendered lifecycle journey plus the IDs still
// held in the tracer's ring.
type TraceData struct {
	ID        uint64   `json:"id"`
	Available []uint64 `json:"available,omitempty"`
	Rendered  string   `json:"rendered"`
}

// The status ops answer with the struct the subsystem itself declares —
// overload.Snapshot, norman.TenantStatus, norman.FlowCacheStatus,
// norman.HealthStatus, norman.UpgradeStatus, recovery.Status — so a counter
// added there reaches nnetstat without a second declaration here to forget
// (DESIGN.md §13). Each answers Enabled=false rather than an error when the
// daemon does not run the subsystem, so the nnetstat views degrade
// gracefully; recovery.status, whose reply has no such flag, answers an
// error instead. The two types below exist only to add that flag where the
// subsystem's struct has none.

// OverloadData answers overload.status: the governor's snapshot, whole.
type OverloadData struct {
	Enabled bool `json:"enabled"`
	overload.Snapshot
}

// TenantData answers tenant.status: one merged row per tenant, ascending.
type TenantData struct {
	Enabled bool                  `json:"enabled"`
	Tenants []norman.TenantStatus `json:"tenants,omitempty"`
}

// Marshal is a helper for building requests.
func Marshal(op string, args interface{}) ([]byte, error) {
	var raw json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	return json.Marshal(Request{Op: op, Args: raw})
}
