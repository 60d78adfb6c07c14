// Package upgrade is Norman's live-upgrade subsystem: planned maintenance of
// the interposition dataplane — policy, overlay-program and bitstream
// upgrades — made hitless under KOPI (DESIGN.md §12). It drives the NIC's A/B
// pipeline generations (stage → verify → pause-and-flip → canary →
// commit/rollback), hands control-plane state across the flip through a
// checksummed snapshot, and watches the canary window with the same
// counter-delta sampling discipline as the health monitor, rolling back
// automatically on breach. ReloadBitstream — a seconds-long blackout, §4.4's
// open challenge — is the outage this package exists to avoid; raw bypass has
// no layer that could even sequence the cutover, which is the comparison E16
// draws.
package upgrade

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/recovery"
	"norman/internal/sim"
)

// Snapshot decode errors. Decode is all-or-nothing: a snapshot that fails any
// of these is rejected before a single field is applied.
var (
	// ErrSnapshotTruncated: the payload is not even a complete JSON document
	// (a torn write or short read).
	ErrSnapshotTruncated = errors.New("upgrade: snapshot truncated or malformed")
	// ErrSnapshotVersion: the wire version is not one this code speaks.
	ErrSnapshotVersion = errors.New("upgrade: unsupported snapshot version")
	// ErrSnapshotCorrupt: the body bytes do not match the recorded checksum.
	ErrSnapshotCorrupt = errors.New("upgrade: snapshot checksum mismatch")
)

// SnapshotVersion is the current wire format version.
const SnapshotVersion = 1

// SteerEntry is one steering-table row in portable, deterministic form.
type SteerEntry struct {
	Flow packet.FlowKey `json:"flow"`
	Conn uint64         `json:"conn"`
}

// Snapshot is the state-handover record of one pipeline generation: every
// piece of control-plane-programmed NIC and policy state that must survive
// the epoch flip, frozen at stage time. It reuses the recovery journal's
// record types for qos and filter config — the journal is the intent source
// of truth, and the snapshot must agree with it by construction.
type Snapshot struct {
	Generation  uint64       `json:"generation"`
	TakenAt     sim.Duration `json:"taken_at"`
	Steering    []SteerEntry `json:"steering,omitempty"`
	DefaultConn uint64       `json:"default_conn,omitempty"`

	// TenantWeights is the NIC scheduler's weight map; CacheQuotas the flow
	// cache partition. Both empty when the feature is off.
	TenantWeights map[uint32]int `json:"tenant_weights,omitempty"`
	CacheQuotas   map[uint32]int `json:"cache_quotas,omitempty"`

	Qos     *recovery.QdiscRecord `json:"qos,omitempty"`
	Filters []recovery.RuleRecord `json:"filters,omitempty"`
	Ingress *overlay.Program      `json:"ingress,omitempty"`
	Egress  *overlay.Program      `json:"egress,omitempty"`
	Cache   []nic.FlowEntryExport `json:"cache,omitempty"`
}

// envelope is the wire form: version, a checksum over the exact body bytes,
// and the body itself as raw JSON so the checksum is computed over the same
// bytes that were signed, not a re-marshaling of them.
type envelope struct {
	Version  int             `json:"version"`
	Checksum uint32          `json:"checksum"`
	Body     json.RawMessage `json:"body"`
}

// bodySum is FNV-1a over the marshaled body — the same family of checksum the
// flow cache uses per entry, here guarding the whole handover record.
func bodySum(b []byte) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime
	}
	return h
}

// Encode renders the snapshot as a self-verifying envelope.
func Encode(s *Snapshot) ([]byte, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("upgrade: encode snapshot: %w", err)
	}
	return json.Marshal(envelope{
		Version:  SnapshotVersion,
		Checksum: bodySum(body),
		Body:     body,
	})
}

// Decode parses and fully validates an encoded snapshot. Validation is
// strictly before application: a truncated, version-skewed or corrupted
// snapshot returns its typed error and no partially decoded state — the
// caller never sees a half-applied handover.
func Decode(data []byte) (*Snapshot, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotTruncated, err)
	}
	if env.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, env.Version, SnapshotVersion)
	}
	if len(env.Body) == 0 || string(env.Body) == "null" {
		return nil, fmt.Errorf("%w: empty body", ErrSnapshotTruncated)
	}
	if sum := bodySum(env.Body); sum != env.Checksum {
		return nil, fmt.Errorf("%w: body sums to %08x, envelope says %08x", ErrSnapshotCorrupt, sum, env.Checksum)
	}
	var s Snapshot
	if err := json.Unmarshal(env.Body, &s); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrSnapshotTruncated, err)
	}
	return &s, nil
}

// takeSnapshot freezes the NIC-resident half of the handover state. The
// policy half (qos, filters) is merged in by the manager's state source —
// the control plane owns that state, not the NIC.
func takeSnapshot(n *nic.NIC, now sim.Time) *Snapshot {
	s := &Snapshot{
		Generation: n.Generation(),
		TakenAt:    sim.Duration(now),
	}
	cfg := n.SnapshotConfig(now)
	s.Ingress = cfg.Ingress
	s.Egress = cfg.Egress
	s.DefaultConn = cfg.DefaultConn
	keys := make([]packet.FlowKey, 0, len(cfg.Steering))
	for k := range cfg.Steering {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return nic.FlowLess(keys[i], keys[j]) })
	for _, k := range keys {
		s.Steering = append(s.Steering, SteerEntry{Flow: k, Conn: cfg.Steering[k]})
	}
	if ts := n.TenantScheduler(); ts != nil {
		s.TenantWeights = ts.Weights()
	}
	if fc := n.FlowCache(); fc != nil {
		if q := fc.Quotas(); len(q) > 0 {
			s.CacheQuotas = make(map[uint32]int, len(q))
			for id, v := range q {
				s.CacheQuotas[id] = v
			}
		}
		s.Cache = fc.Export()
	}
	return s
}
