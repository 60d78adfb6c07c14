package qos

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSpecRoundTrip: Spec reads back what Build made, so the read-back
// builds the same scheduler again: Build(Build(s).Spec()).Spec() equals
// Build(s).Spec() for all five kinds, over weights, limits, rates and bursts
// that take the defaults and the clamps. ClassOfUID lives in the classifier
// and never reads back.
func TestSpecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, kind := range []string{"wfq", "drr", "prio", "pfifo", "tbf"} {
		for i := 0; i < 200; i++ {
			s := Spec{Kind: kind, Limit: r.Intn(300) - 50, RateBps: r.Float64()*2e9 - 1e8,
				BurstBytes: r.Float64()*1e5 - 1e3, ClassOfUID: map[uint32]uint32{1000: 1}}
			for n := r.Intn(4); n > 0; n-- {
				if s.Weights == nil {
					s.Weights = map[uint32]float64{}
				}
				s.Weights[uint32(r.Intn(4))] = r.Float64()*5000 - 10
			}
			q, _, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			once := q.Spec()
			if once.Kind != kind || once.ClassOfUID != nil {
				t.Fatalf("Build(%+v).Spec() = %+v", s, once)
			}
			again, _, err := Build(once)
			if err != nil {
				t.Fatal(err)
			}
			if twice := again.Spec(); !reflect.DeepEqual(twice, once) {
				t.Fatalf("spec %+v read back %+v, then %+v", s, once, twice)
			}
		}
	}
	if _, _, err := Build(Spec{Kind: "cbq"}); err == nil {
		t.Fatal("an unknown kind must not build")
	}
}

// TestSpecReadsConfiguredClassesOnly: Enqueue creates a class it has not seen
// at the default weight or quantum, but Spec reads back only what SetWeight or
// SetQuantum configured, so traffic on a class nobody configured is no drift
// from the journaled record.
func TestSpecReadsConfiguredClassesOnly(t *testing.T) {
	for _, s := range []Spec{
		{Kind: "wfq", Weights: map[uint32]float64{1: 4, 2: 1}},
		{Kind: "drr", Weights: map[uint32]float64{1: 3000, 2: 1500}},
	} {
		q, _, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		before := q.Spec()
		if !reflect.DeepEqual(before.Weights, s.Weights) {
			t.Fatalf("%s: configured %v, read back %v", s.Kind, s.Weights, before.Weights)
		}
		for class := uint32(0); class < 5; class++ {
			q.Enqueue(pkt(class, 100), 0)
		}
		for q.Len() > 0 {
			q.Dequeue(0)
		}
		if after := q.Spec(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: traffic on unconfigured classes read back %+v, want %+v", s.Kind, after, before)
		}
	}
}
