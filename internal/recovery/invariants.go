package recovery

// InvariantResult is one post-reconciliation check.
type InvariantResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checkInvariants proves (or disproves) the reconciled state from the
// post-repair re-diff, so an invariant and the diff can never disagree:
//
//   - journal_consistent — the journal itself verifies (monotonic seq/time,
//     well-formed payloads); a torn record fails here.
//   - conn_rings — every intended live connection exists in the kernel
//     table and, on ring-per-conn architectures, owns a NIC ring with its
//     flow steered to it (no conn.* divergence left).
//   - chains_verify — every loaded NIC pipeline program passes the static
//     verifier and every intended chain is loaded (no nic.program left).
//   - qos_weights — the live scheduler reads back as the journal's qdisc
//     record in canonical form (its kind, limit, configured weights or
//     quanta, rate and burst), and the NIC's tenant scheduler and flow cache
//     carry the intended tenant split (no qdisc or tenants divergence left).
func checkInvariants(j *Journal, after []divergence) []InvariantResult {
	out := []InvariantResult{{Name: "journal_consistent", OK: true}, {Name: "conn_rings", OK: true},
		{Name: "chains_verify", OK: true}, {Name: "qos_weights", OK: true}}
	fail := func(i int, detail string) {
		if out[i].OK {
			out[i].OK, out[i].Detail = false, detail
		}
	}
	if err := j.Verify(); err != nil {
		fail(0, err.Error())
	}
	for _, d := range after {
		switch d.kind {
		case "conn.kernel", "conn.ring", "conn.steer":
			fail(1, d.detail)
		case "nic.program":
			fail(2, d.detail)
		case "qdisc", "tenants":
			fail(3, d.detail)
		}
	}
	return out
}
