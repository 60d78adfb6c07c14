package experiments

import "testing"

// TestRunnerPool exercises the worker pool directly: bounded concurrency,
// inline execution at width 1, and completion of every task.
func TestRunnerPool(t *testing.T) {
	// Width 1 runs inline: tasks complete in submission order.
	r := NewRunnerN(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Go(func() { order = append(order, i) })
	}
	r.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("width-1 pool must run inline in order: %v", order)
		}
	}

	// Width 4: all tasks run, each writes its own slot.
	r = NewRunnerN(4)
	got := make([]int, 64)
	for i := range got {
		i := i
		r.Go(func() { got[i] = i + 1 })
	}
	r.Wait()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("task %d did not run (slot=%d)", i, v)
		}
	}
}

// TestSetWorkers checks option plumbing and default restoration.
func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", Workers())
	}
}
