package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"ccredf/internal/ring"
	"ccredf/internal/timing"
)

const slot = 5 * timing.Microsecond

func TestMapPriorityBands(t *testing.T) {
	// Table 1: each class must map into its own band.
	laxities := []timing.Time{-slot, 0, slot / 2, slot, 3 * slot, 10 * slot, 1000 * slot, timing.Forever}
	for _, lax := range laxities {
		if p := MapPriority(ClassRealTime, lax, slot); p < PrioRTMin || p > PrioRTMax {
			t.Errorf("RT laxity %v → %d outside [17,31]", lax, p)
		}
		if p := MapPriority(ClassBestEffort, lax, slot); p < PrioBEMin || p > PrioBEMax {
			t.Errorf("BE laxity %v → %d outside [2,16]", lax, p)
		}
		if p := MapPriority(ClassNonRealTime, lax, slot); p != PrioNonRT {
			t.Errorf("NRT laxity %v → %d, want 1", lax, p)
		}
		if p := MapPriority(ClassNone, lax, slot); p != PrioNothing {
			t.Errorf("None laxity %v → %d, want 0", lax, p)
		}
	}
}

func TestMapPriorityMonotone(t *testing.T) {
	// Shorter laxity ⇒ priority at least as high (paper: "a higher priority
	// within the traffic class implies shorter laxity").
	prev := uint8(PrioRTMax + 1)
	for slots := int64(0); slots < 1<<20; slots = slots*2 + 1 {
		p := MapPriority(ClassRealTime, timing.Time(slots)*slot, slot)
		if p > prev {
			t.Fatalf("priority increased with laxity: %d slots → %d, previous %d", slots, p, prev)
		}
		prev = p
	}
}

func TestMapPriorityLogResolution(t *testing.T) {
	// Logarithmic mapping with k = ⌊log₂(lax+1)⌋: laxity 0 → 31, 1–2 slots
	// → 30, 3–6 → 29, 7–14 → 28, 15 → 27 … clamped at 17.
	cases := map[int64]uint8{0: 31, 1: 30, 2: 30, 3: 29, 6: 29, 7: 28, 14: 28, 15: 27, 1 << 20: 17}
	for laxSlots, want := range cases {
		got := MapPriority(ClassRealTime, timing.Time(laxSlots)*slot, slot)
		if got != want {
			t.Errorf("laxity %d slots → %d, want %d", laxSlots, got, want)
		}
	}
}

func TestMapPriorityLateMessageHighest(t *testing.T) {
	if p := MapPriority(ClassRealTime, -10*slot, slot); p != PrioRTMax {
		t.Errorf("late RT message → %d, want %d", p, PrioRTMax)
	}
	if p := MapPriority(ClassBestEffort, -10*slot, slot); p != PrioBEMax {
		t.Errorf("late BE message → %d, want %d", p, PrioBEMax)
	}
}

func TestMapPriorityZeroSlotGuard(t *testing.T) {
	if p := MapPriority(ClassRealTime, slot, 0); p < PrioRTMin || p > PrioRTMax {
		t.Errorf("zero slot guard failed: %d", p)
	}
}

func TestPrioClassInverse(t *testing.T) {
	for p := 0; p <= 31; p++ {
		c := PrioClass(uint8(p))
		switch {
		case p == 0 && c != ClassNone,
			p == 1 && c != ClassNonRealTime,
			p >= 2 && p <= 16 && c != ClassBestEffort,
			p >= 17 && c != ClassRealTime:
			t.Errorf("PrioClass(%d) = %v", p, c)
		}
	}
}

func TestMapPriorityClassSeparationProperty(t *testing.T) {
	// RT always outranks BE which always outranks NRT, for any laxities.
	f := func(rtLax, beLax uint32) bool {
		rt := MapPriority(ClassRealTime, timing.Time(rtLax)*timing.Microsecond, slot)
		be := MapPriority(ClassBestEffort, timing.Time(beLax)*timing.Microsecond, slot)
		nrt := MapPriority(ClassNonRealTime, timing.Time(beLax)*timing.Microsecond, slot)
		return rt > be && be > nrt && nrt > PrioNothing
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{ClassNone: "none", ClassNonRealTime: "nrt", ClassBestEffort: "be", ClassRealTime: "rt", Class(9): "class?"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Map5Bit.String() != "5bit" || MapExact.String() != "exact" {
		t.Error("MapMode names wrong")
	}
}

func TestMessageLaxityAndRemaining(t *testing.T) {
	m := &Message{Deadline: 100 * timing.Microsecond, Slots: 4, Sent: 1}
	if m.Laxity(40*timing.Microsecond) != 60*timing.Microsecond {
		t.Error("Laxity wrong")
	}
	if m.Remaining() != 3 {
		t.Error("Remaining wrong")
	}
	nrt := &Message{Deadline: timing.Forever}
	if nrt.Laxity(timing.Second) != timing.Forever {
		t.Error("Forever laxity wrong")
	}
}

func TestQueueEDFOrderWithinClass(t *testing.T) {
	var q Queue
	deadlines := []timing.Time{50, 10, 30, 20, 40}
	for i, d := range deadlines {
		q.Push(&Message{ID: int64(i), Class: ClassRealTime, Deadline: d * timing.Microsecond})
	}
	want := append([]timing.Time(nil), deadlines...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, wd := range want {
		m := q.Pop()
		if m.Deadline != wd*timing.Microsecond {
			t.Fatalf("popped deadline %v, want %v", m.Deadline, wd*timing.Microsecond)
		}
	}
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue should return nil")
	}
}

func TestQueueClassOrdering(t *testing.T) {
	var q Queue
	q.Push(&Message{ID: 1, Class: ClassNonRealTime, Deadline: timing.Forever})
	q.Push(&Message{ID: 2, Class: ClassBestEffort, Deadline: 10})
	q.Push(&Message{ID: 3, Class: ClassRealTime, Deadline: 99999})
	q.Push(&Message{ID: 4, Class: ClassBestEffort, Deadline: 5})
	wantIDs := []int64{3, 4, 2, 1}
	for _, id := range wantIDs {
		if m := q.Pop(); m.ID != id {
			t.Fatalf("popped %d, want %d", m.ID, id)
		}
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	var q Queue
	for i := int64(0); i < 5; i++ {
		q.Push(&Message{ID: i, Class: ClassRealTime, Deadline: 100})
	}
	for i := int64(0); i < 5; i++ {
		if m := q.Pop(); m.ID != i {
			t.Fatalf("tie-break popped %d, want %d (FIFO)", m.ID, i)
		}
	}
}

func TestQueuePeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(&Message{ID: 7, Class: ClassRealTime, Deadline: 1})
	if q.Peek().ID != 7 || q.Len() != 1 {
		t.Fatal("Peek changed queue")
	}
	var empty Queue
	if empty.Peek() != nil {
		t.Fatal("Peek on empty should be nil")
	}
}

func TestQueueRemoveAndFind(t *testing.T) {
	var q Queue
	for i := int64(0); i < 10; i++ {
		q.Push(&Message{ID: i, Class: ClassRealTime, Deadline: timing.Time(100 - i)})
	}
	if q.Find(5) == nil {
		t.Fatal("Find(5) failed")
	}
	if !q.Remove(5) {
		t.Fatal("Remove(5) failed")
	}
	if q.Remove(5) {
		t.Fatal("Remove(5) twice succeeded")
	}
	if q.Find(5) != nil {
		t.Fatal("Find(5) after remove")
	}
	if q.Len() != 9 {
		t.Fatalf("Len() = %d", q.Len())
	}
	// Heap order must survive removal.
	prev := timing.Time(-1)
	for q.Len() > 0 {
		m := q.Pop()
		if m.Deadline < prev {
			t.Fatalf("heap order broken after Remove: %v < %v", m.Deadline, prev)
		}
		prev = m.Deadline
	}
}

// TestQueueHeapProperty pushes random messages and checks that Pop yields a
// correctly sorted sequence (class desc, deadline asc, FIFO).
func TestQueueHeapProperty(t *testing.T) {
	f := func(deadlines []uint16, classes []uint8) bool {
		var q Queue
		n := len(deadlines)
		if len(classes) < n {
			n = len(classes)
		}
		for i := 0; i < n; i++ {
			q.Push(&Message{
				ID:       int64(i),
				Class:    Class(classes[i]%3) + 1,
				Deadline: timing.Time(deadlines[i]),
			})
		}
		var prev *Message
		for q.Len() > 0 {
			m := q.Pop()
			if prev != nil && before(m, prev) {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConnectionUtilisation(t *testing.T) {
	c := Connection{Period: 100 * timing.Microsecond, Slots: 4}
	got := c.Utilisation(5 * timing.Microsecond)
	if got != 0.2 {
		t.Fatalf("Utilisation = %v, want 0.2", got)
	}
	if (Connection{Period: 0, Slots: 1}).Utilisation(slot) != 0 {
		t.Fatal("zero period should yield zero utilisation")
	}
}

func TestConnectionValidate(t *testing.T) {
	p := timing.DefaultParams(8)
	slotT := p.SlotTime()
	good := Connection{Src: 0, Dests: ring.Node(3), Period: 100 * slotT, Slots: 2}
	if err := good.Validate(8, slotT); err != nil {
		t.Fatalf("good connection rejected: %v", err)
	}
	bad := []Connection{
		{Src: -1, Dests: ring.Node(3), Period: 100 * slotT, Slots: 2},
		{Src: 8, Dests: ring.Node(3), Period: 100 * slotT, Slots: 2},
		{Src: 0, Dests: 0, Period: 100 * slotT, Slots: 2},
		{Src: 0, Dests: ring.Node(0), Period: 100 * slotT, Slots: 2},
		{Src: 0, Dests: ring.Node(3), Period: 0, Slots: 2},
		{Src: 0, Dests: ring.Node(3), Period: 100 * slotT, Slots: 0},
		{Src: 0, Dests: ring.Node(3), Period: slotT, Slots: 2}, // doesn't fit
		{Src: 0, Dests: ring.Node(60), Period: 100 * slotT, Slots: 2},
		{Src: 0, Dests: ring.Node(3), Period: 1 << 17 * slotT, Slots: MaxMessageSlots + 1}, // unframeable
	}
	for i, c := range bad {
		if err := c.Validate(8, slotT); err == nil {
			t.Errorf("bad connection %d accepted: %+v", i, c)
		}
	}
}

func TestAdmissionAcceptsUpToUMax(t *testing.T) {
	p := timing.DefaultParams(8)
	a := NewAdmission(p)
	slotT := p.SlotTime()
	// Each connection uses 10% of capacity.
	c := Connection{Src: 0, Dests: ring.Node(1), Period: 10 * slotT, Slots: 1}
	accepted := 0
	for i := 0; i < 12; i++ {
		c.Src = i % 7
		c.Dests = ring.Node(7)
		if c.Src == 7 {
			c.Dests = ring.Node(0)
		}
		if _, err := a.Request(c); err == nil {
			accepted++
		}
	}
	// U_max ≈ 0.936 → exactly 9 connections of 0.1 fit.
	if accepted != 9 {
		t.Fatalf("accepted %d connections, want 9 (U_max=%.4f)", accepted, a.UMax())
	}
	if u := a.Utilisation(); u > a.UMax() {
		t.Fatalf("admitted utilisation %v exceeds U_max %v", u, a.UMax())
	}
}

func TestAdmissionRejectionError(t *testing.T) {
	p := timing.DefaultParams(8)
	a := NewAdmission(p)
	slotT := p.SlotTime()
	big := Connection{Src: 0, Dests: ring.Node(1), Period: 10 * slotT, Slots: 10}
	if _, err := a.Request(big); err == nil {
		t.Fatal("utilisation-1.0 connection accepted")
	} else if _, ok := err.(ErrRejected); !ok {
		t.Fatalf("want ErrRejected, got %T: %v", err, err)
	}
}

func TestAdmissionReleaseFreesCapacity(t *testing.T) {
	p := timing.DefaultParams(8)
	a := NewAdmission(p)
	slotT := p.SlotTime()
	c := Connection{Src: 0, Dests: ring.Node(1), Period: 2 * slotT, Slots: 1} // U = 0.5
	first, err := a.Request(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request(c); err == nil {
		t.Fatal("second 0.5 connection should exceed U_max 0.936... twice")
	}
	if !a.Release(first.ID) {
		t.Fatal("Release failed")
	}
	if a.Release(first.ID) {
		t.Fatal("double Release succeeded")
	}
	if _, err := a.Request(c); err != nil {
		t.Fatalf("re-admission after release failed: %v", err)
	}
}

func TestAdmissionIDsUniqueAndGet(t *testing.T) {
	p := timing.DefaultParams(8)
	a := NewAdmission(p)
	slotT := p.SlotTime()
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		c, err := a.Request(Connection{Src: i, Dests: ring.Node(i + 1), Period: 100 * slotT, Slots: 1})
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate connection ID %d", c.ID)
		}
		seen[c.ID] = true
		if got, ok := a.Get(c.ID); !ok || got.Src != i {
			t.Fatalf("Get(%d) = %+v, %v", c.ID, got, ok)
		}
	}
	if len(a.Active()) != 5 {
		t.Fatalf("Active() has %d entries", len(a.Active()))
	}
	ids := a.Active()
	for i := 1; i < len(ids); i++ {
		if ids[i].ID <= ids[i-1].ID {
			t.Fatal("Active() not sorted by ID")
		}
	}
}

// TestAdmissionInvariantProperty: after any sequence of random requests and
// releases, the admitted utilisation never exceeds U_max (DESIGN.md
// invariant 4).
func TestAdmissionInvariantProperty(t *testing.T) {
	p := timing.DefaultParams(8)
	slotT := p.SlotTime()
	f := func(ops []uint16) bool {
		a := NewAdmission(p)
		var ids []int
		for _, op := range ops {
			if op%3 == 0 && len(ids) > 0 {
				idx := int(op/3) % len(ids)
				a.Release(ids[idx])
				ids = append(ids[:idx], ids[idx+1:]...)
				continue
			}
			period := timing.Time(2+op%50) * slotT
			c, err := a.Request(Connection{Src: int(op % 7), Dests: ring.Node(7), Period: period, Slots: 1 + int(op%3)})
			if err == nil {
				ids = append(ids, c.ID)
			}
			if a.Utilisation() > a.UMax()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFeasible(t *testing.T) {
	p := timing.DefaultParams(8)
	slotT := p.SlotTime()
	light := []Connection{{Period: 10 * slotT, Slots: 1}, {Period: 10 * slotT, Slots: 1}}
	if !Feasible(light, p) {
		t.Fatal("20% load should be feasible")
	}
	heavy := []Connection{{Period: 2 * slotT, Slots: 1}, {Period: 2 * slotT, Slots: 1}}
	if Feasible(heavy, p) {
		t.Fatal("100% load should be infeasible (U_max < 1)")
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Push(&Message{ID: int64(i), Class: ClassRealTime, Deadline: timing.Time(i % 1024)})
		if q.Len() > 64 {
			q.Pop()
		}
	}
}

func BenchmarkMapPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = MapPriority(ClassRealTime, timing.Time(i)*timing.Microsecond, slot)
	}
}
