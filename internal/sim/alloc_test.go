// Zero-allocation tests for the //lint:hotpath contract on the event
// loop: scheduling allocates (one event per At, its Timer embedded, by
// design), but the heap operations and Step itself must not. Excluded
// under -race because race instrumentation inserts allocations the
// production build does not have.

//go:build !race

package sim

import (
	"container/heap"
	"testing"
	"time"
)

func nop() {}

// TestZeroAllocStep pins the fire path: with events already scheduled,
// draining them through Step allocates nothing — *event is
// pointer-shaped, so even the heap's `any` boxing is free.
func TestZeroAllocStep(t *testing.T) {
	e := New(1)
	evs := make([]*event, 256)
	for i := range evs {
		evs[i] = &event{at: time.Duration(i), seq: uint64(i), fn: nop}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, ev := range evs {
			heap.Push(&e.events, ev)
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("heap ops + Step allocated %.1f times per drain, want 0", allocs)
	}
}

// BenchmarkHotpathSimStep is the -benchmem gate for the simulator's
// inner loop: `make bench-alloc` fails if it reports nonzero allocs/op.
// Each op pushes and drains a 256-event heap.
func BenchmarkHotpathSimStep(b *testing.B) {
	e := New(1)
	evs := make([]*event, 256)
	for i := range evs {
		evs[i] = &event{at: time.Duration(i), seq: uint64(i), fn: nop}
	}
	// Warm-up drain grows the heap's backing array outside the measurement.
	for _, ev := range evs {
		heap.Push(&e.events, ev)
	}
	for e.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range evs {
			heap.Push(&e.events, ev)
		}
		for e.Step() {
		}
	}
}

// TestAtAllocatesOnce pins scheduling's cost: the Timer handle lives
// inside its event, so At makes exactly one allocation once the heap's
// backing array has grown.
func TestAtAllocatesOnce(t *testing.T) {
	e := New(1)
	for i := 0; i < 256; i++ {
		e.At(time.Duration(i), nop)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(100, func() { e.At(e.Now(), nop) })
	if allocs != 1 {
		t.Errorf("At allocated %.1f times per call, want 1", allocs)
	}
}
