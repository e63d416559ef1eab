// Zero-allocation gates for the steady-state slot loop. The race detector
// instruments allocations and would report spurious nonzero counts, so these
// run only without -race; CI's bench-baseline job runs them race-free while
// the ordinary test job keeps -race coverage of the same packages.

//go:build !race

package slotbench

import (
	"testing"

	"ccredf/internal/trace"
)

func testZeroAllocs(t *testing.T, name string) {
	net, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() { net.RunSlots(1) })
	if avg != 0 {
		t.Errorf("%s slot engine allocates %v objects/slot-period, want 0", name, avg)
	}
}

func TestZeroAllocCCREDF(t *testing.T)          { testZeroAllocs(t, "ccr-edf") }
func TestZeroAllocCCREDFSecondary(t *testing.T) { testZeroAllocs(t, "ccr-edf+secondary") }
func TestZeroAllocCCFPR(t *testing.T)           { testZeroAllocs(t, "cc-fpr") }
func TestZeroAllocTDMA(t *testing.T)            { testZeroAllocs(t, "tdma") }

// The fully instrumented engine — wire-codec round-tripping, data-packet
// CRC verification and protocol invariant checks on every slot — must hold
// the zero-allocation gate too: verification runs on persistent scratch
// (wire.EncodeCollectionInto/DecodeCollectionInto, EncodeDataInto/
// DecodeDataInto, the invariant checker's fixed per-node array), so turning
// it on costs CPU but never garbage.
func testZeroAllocsInstrumented(t *testing.T, name string) {
	net, err := NewInstrumented(name)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() { net.RunSlots(1) })
	if avg != 0 {
		t.Errorf("instrumented %s slot engine allocates %v objects/slot-period, want 0", name, avg)
	}
}

func TestZeroAllocInstrumentedCCREDF(t *testing.T) { testZeroAllocsInstrumented(t, "ccr-edf") }
func TestZeroAllocInstrumentedCCREDFSecondary(t *testing.T) {
	testZeroAllocsInstrumented(t, "ccr-edf+secondary")
}
func TestZeroAllocInstrumentedCCFPR(t *testing.T) { testZeroAllocsInstrumented(t, "cc-fpr") }
func TestZeroAllocInstrumentedTDMA(t *testing.T)  { testZeroAllocsInstrumented(t, "tdma") }

// A traced engine cannot be exactly zero-alloc — each retained record may
// carry a novel detail string (fragment counters increment forever, so
// "msg=N frag=K/T" never repeats) — but with the observer's interned detail
// rendering the only steady-state allocations left are those strings: one
// per delivery, none for the recurring collection/hand-over/grant details,
// none for fmt boxing. The bound pins that; the pre-interning renderer sat
// above 10 allocs/slot on this workload.
func TestTracedEngineAllocBound(t *testing.T) {
	net, err := New("ccr-edf")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(512)
	net.AttachTracer(tr)
	net.RunSlots(WarmupSlots) // reach the tracer's capacity and warm the intern caches
	avg := testing.AllocsPerRun(100, func() { net.RunSlots(1) })
	if avg > 4 {
		t.Errorf("traced slot engine allocates %v objects/slot-period, want at most 4", avg)
	}
}
