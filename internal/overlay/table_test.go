package overlay

import (
	"errors"
	"math/rand"
	"testing"
)

// TestTableFullRefusesNewKeysButOverwrites: the declared capacity is a hard
// budget for both planes — E5's exhaustion and the stateful firewall's
// silent loss of return traffic depend on it — and a full table still takes
// writes to keys it holds.
func TestTableFullRefusesNewKeysButOverwrites(t *testing.T) {
	m := NewMachine(mustAssemble(t, `
.table t 3
ldf r0, conn
ldi r1, 100
update t, r0, r1
pass
`))
	for k := uint64(1); k <= 3; k++ {
		if err := m.TableInsert("t", k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.TableInsert("t", 4, 4); !errors.Is(err, ErrTableFull) {
		t.Fatalf("fourth key into a 3-entry table: %v", err)
	}
	if err := m.TableInsert("t", 2, 22); err != nil {
		t.Fatalf("overwrite in a full table: %v", err)
	}
	run := func(conn uint64) {
		p := udp(1, 2, 0)
		p.Meta.ConnID = conn
		if _, _, err := m.Run(p, NopEnv{}); err != nil {
			t.Fatal(err)
		}
	}
	run(9) // dataplane insert into a full table: silently refused
	run(3) // dataplane overwrite: taken
	want := map[uint64]uint64{1: 1, 2: 22, 3: 100}
	if got := m.TableContents(0); len(got) != 3 || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("table = %v, want %v", got, want)
	}
	if m.TableLen("t") != 3 {
		t.Fatalf("TableLen = %d", m.TableLen("t"))
	}
}

// TestTableDeleteThroughProbeChain deletes from the front, middle and end of
// a cluster of keys that share one home slot — at the array's last slot, so
// the cluster wraps — and checks the rest stay reachable and the freed
// capacity is usable again.
func TestTableDeleteThroughProbeChain(t *testing.T) {
	tab := newTable(4)
	last := len(tab.slots) - 1
	var chain []uint64
	for k := uint64(0); len(chain) < 4; k++ {
		if tab.home(k) == last {
			chain = append(chain, k)
		}
	}
	fill := func() {
		for i, k := range chain {
			if j, found := tab.probe(k); !found {
				tab.insert(j, k, uint64(i))
			}
		}
	}
	fill()
	for _, victim := range []int{0, 2, 3, 1} {
		tab.del(chain[victim])
		tab.del(chain[victim]) // absent: no-op
		for i, k := range chain {
			v, ok := tab.get(k)
			if i == victim {
				if ok {
					t.Fatalf("deleted key %d still found", k)
				}
			} else if !ok || v != uint64(i) {
				t.Fatalf("after deleting chain[%d], chain[%d] = %d, %v", victim, i, v, ok)
			}
		}
		if tab.n != 3 || tab.full() {
			t.Fatalf("n = %d after one delete from a full 4-entry table", tab.n)
		}
		fill()
		if !tab.full() {
			t.Fatalf("reinsert did not refill: n = %d", tab.n)
		}
	}
}

// TestTableMatchesMap runs random inserts, overwrites and deletes against a
// Go map under the same capacity rule, through growth from 8 slots to what
// the capacity needs.
func TestTableMatchesMap(t *testing.T) {
	const capacity = 100
	tab, model := newTable(capacity), map[uint64]uint64{}
	rng := rand.New(rand.NewSource(18))
	for op := 0; op < 50_000; op++ {
		k, v := uint64(rng.Intn(160))*0x10001, rng.Uint64()
		switch rng.Intn(3) {
		case 0, 1:
			i, found := tab.probe(k)
			if _, inModel := model[k]; found != inModel {
				t.Fatalf("op %d: probe(%d) found=%v, model %v", op, k, found, inModel)
			}
			if found {
				tab.slots[i].val = v
				model[k] = v
			} else if !tab.full() {
				tab.insert(i, k, v)
				model[k] = v
			}
		case 2:
			tab.del(k)
			delete(model, k)
		}
		if tab.n != len(model) || tab.n > capacity || tab.n*2 > len(tab.slots) {
			t.Fatalf("op %d: n = %d, model %d, slots %d", op, tab.n, len(model), len(tab.slots))
		}
	}
	for k, want := range model {
		if got, ok := tab.get(k); !ok || got != want {
			t.Fatalf("get(%d) = %d, %v; model %d", k, got, ok, want)
		}
	}
	if len(tab.slots) != 256 {
		t.Fatalf("a 100-entry table grew to %d slots, want 256", len(tab.slots))
	}
}

// TestShareTableVisibleBothWays: after ShareTable the two machines hold one
// table — the ingress/egress arrangement of core.EnableStatefulFirewall —
// whichever side or plane writes.
func TestShareTableVisibleBothWays(t *testing.T) {
	eg := NewMachine(mustAssemble(t, ".table estab 4\nldf r0, conn\nldi r1, 1\nupdate estab, r0, r1\npass\n"))
	in := NewMachine(mustAssemble(t, ".table seen 4\nldf r0, conn\nlookup r1, seen, r0, miss\npass\nmiss:\ndrop\n"))
	if err := in.ShareTable("seen", eg, "estab"); err != nil {
		t.Fatal(err)
	}
	verdict := func(m *Machine, conn uint64) Verdict {
		p := udp(1, 2, 0)
		p.Meta.ConnID = conn
		v, _, err := m.Run(p, NopEnv{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if verdict(in, 7) != VerdictDrop {
		t.Fatal("conn 7 admitted before the egress side recorded it")
	}
	verdict(eg, 7) // dataplane write on one machine …
	if verdict(in, 7) != VerdictPass || in.TableLen("seen") != 1 {
		t.Fatal("egress update not visible to ingress")
	}
	if err := in.TableInsert("seen", 8, 1); err != nil { // … control-plane write on the other
		t.Fatal(err)
	}
	if eg.TableLen("estab") != 2 {
		t.Fatal("ingress insert not visible to egress")
	}
	if err := eg.TableDelete("estab", 7); err != nil {
		t.Fatal(err)
	}
	if verdict(in, 7) != VerdictDrop || in.TableLen("seen") != 1 {
		t.Fatal("egress delete not visible to ingress")
	}
	for k := uint64(20); eg.TableInsert("estab", k, 1) == nil; k++ {
	}
	if err := in.TableInsert("seen", 99, 1); !errors.Is(err, ErrTableFull) {
		t.Fatalf("shared table filled through one side accepts through the other: %v", err)
	}
}
