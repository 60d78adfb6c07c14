package overlay

// What the external test package (lowering_test.go, which must import
// internal/core and internal/filter for its corpus and so cannot live in
// package overlay) needs of this package's test-only code.

type RefMachine = refMachine

var (
	NewRefMachine = newRefMachine
	DecodeProgram = decodeProgram
	ACLSource     = aclSource
)

// TableContents copies table i out of the machine, for comparison with the
// oracle's map.
func (m *Machine) TableContents(i int) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for _, s := range m.tables[i].slots {
		if s.used {
			out[s.key] = s.val
		}
	}
	return out
}

// TableContents is the oracle's side of the same comparison.
func (m *refMachine) TableContents(i int) map[uint64]uint64 { return m.tables[i] }
