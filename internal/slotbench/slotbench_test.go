package slotbench

import "testing"

func TestWorkloadRunsEveryProtocol(t *testing.T) {
	for _, name := range Protocols {
		t.Run(name, func(t *testing.T) {
			net, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := net.Metrics().Slots.Value(); got < WarmupSlots {
				t.Fatalf("warmup ran %d slots, want ≥ %d", got, WarmupSlots)
			}
			// The backlog must keep every slot busy and never complete.
			if net.Metrics().SlotsWithData.Value() == 0 {
				t.Fatal("no slot carried data")
			}
			if net.Metrics().MessagesDelivered.Value() != 0 {
				t.Fatal("backlog message completed; the workload must never reach the completion path")
			}
			if net.QueueDepth() == 0 {
				t.Fatal("backlog drained")
			}
		})
	}
}

func TestIdleWorkloadCarriesNoData(t *testing.T) {
	for _, name := range Protocols {
		net, err := NewIdle(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Metrics().Slots.Value(); got < WarmupSlots {
			t.Fatalf("%s: warmup ran %d slots, want ≥ %d", name, got, WarmupSlots)
		}
		if got := net.Metrics().SlotsWithData.Value(); got != 0 {
			t.Fatalf("%s: %d idle slots carried data", name, got)
		}
	}
}

func TestMeasureReportsSaneFigures(t *testing.T) {
	st, err := Measure("ccr-edf", 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Slots < 64 {
		t.Fatalf("measured %d slots, want ≥ 64", st.Slots)
	}
	if st.NsPerSlot <= 0 {
		t.Fatalf("ns/slot = %v", st.NsPerSlot)
	}
	if st.AllocsPerSlot < 0 || st.BytesPerSlot < 0 {
		t.Fatalf("negative allocation figures: %+v", st)
	}
}

// Measure records the slot budget it was asked for next to the slots it
// actually timed, which may run past the budget but never fall short of it.
func TestMeasureRecordsRequestedSlots(t *testing.T) {
	for _, slots := range []int64{64, 100} {
		st, err := Measure("ccr-edf", slots)
		if err != nil {
			t.Fatal(err)
		}
		if st.RequestedSlots != slots {
			t.Fatalf("requested_slots = %d, want %d", st.RequestedSlots, slots)
		}
		if st.Slots < slots {
			t.Fatalf("measured %d slots, want ≥ %d", st.Slots, slots)
		}
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	if _, err := New("token-ring"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
