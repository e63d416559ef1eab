// Package des is a small deterministic discrete-event simulation kernel.
//
// Events are closures scheduled at absolute simulated times and executed in
// non-decreasing time order; ties are broken by scheduling order (FIFO), which
// makes every run fully deterministic. The kernel is single-threaded by
// design: a CCR-EDF slot engine is a strictly ordered protocol and gains
// nothing from intra-run parallelism, while determinism is essential for the
// reproducibility of every experiment. Parallelism in the benchmark harness
// happens across independent simulations instead.
//
// There is one kind of event: Post queues a handler that will fire, with no
// handle to cancel it, and recycles its bookkeeping once it has fired. A
// component with a fixed, clocked schedule (the network slot engine) need not
// queue its steps at all: it reserves their sequence numbers (ReserveSeq),
// runs them itself, and runs the queued events that fall between them
// (PeekBefore, StepBefore, StepUpTo, AdvanceTo). Run and Step execute the
// queue alone.
package des

import (
	"errors"
	"fmt"

	"ccredf/internal/timing"
)

// Handler is an event body, executed when simulated time reaches the event.
type Handler func(now timing.Time)

// event is one queued occurrence. Events carry no handle: once queued they
// fire, and their bookkeeping is recycled through the simulator's free list.
type event struct {
	when timing.Time
	seq  uint64
	fn   Handler
}

// Simulator owns the event queue and the simulated clock. The zero value is
// ready to use.
type Simulator struct {
	now      timing.Time
	queue    eventQueue
	seq      uint64
	executed uint64
	running  bool
	free     []*event // recycled events
}

// New returns a fresh Simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() timing.Time { return s.now }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// ErrPast is the panic value (wrapped) of Post asked to schedule an event
// before Now.
var ErrPast = errors.New("des: event scheduled in the past")

// Post schedules fn to run at absolute time t. It panics if t precedes the
// current simulated time, because silently reordering the past would corrupt
// any protocol built on the kernel. The event's bookkeeping is recycled
// through a free list once it fires, so a steady-state caller (deliveries,
// traffic generators, periodic releases — forever) allocates nothing after
// the free list has warmed up.
func (s *Simulator) Post(t timing.Time, fn Handler) {
	if t < s.now {
		panic(fmt.Errorf("%w: at %v, now %v", ErrPast, t, s.now))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{when: t, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(ev)
}

// PostAfter schedules fn to run d after the current time.
func (s *Simulator) PostAfter(d timing.Time, fn Handler) {
	s.Post(s.now+d, fn)
}

// fire pops the head event, advances the clock to it and runs it. The event
// returns to the free list before its handler runs, so the handler's own
// Posts may reuse it.
func (s *Simulator) fire() {
	ev := s.queue.pop()
	s.now = ev.when
	fn := ev.fn
	ev.fn = nil
	s.free = append(s.free, ev)
	fn(s.now)
	s.executed++
}

// Run executes events in time order until the queue is empty or the next
// event would fire after horizon. Events exactly at the horizon still fire.
// Run returns the number of events executed during this call.
func (s *Simulator) Run(horizon timing.Time) uint64 {
	if s.running {
		panic("des: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	var n uint64
	for len(s.queue) > 0 && s.queue[0].when <= horizon {
		s.fire()
		n++
	}
	// Advance the clock to the horizon so that repeated Run calls with
	// increasing horizons behave like one continuous run.
	s.AdvanceTo(horizon)
	return n
}

// RunAll executes events until the queue is empty.
func (s *Simulator) RunAll() uint64 { return s.Run(timing.Forever) }

// ReserveSeq consumes and returns the next scheduling sequence number without
// queueing anything. An inline executor (the slot engine's fixed per-slot
// schedule, see internal/network) records its own points under reserved
// sequence numbers and runs them itself; queued events keep their (when, seq)
// order against those points, so the interleaving is exactly the one the
// points would have had as Posts.
func (s *Simulator) ReserveSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// StepBefore executes the single next queued event if it fires no later than
// horizon AND is ordered strictly before the reserved point (when, seq), and
// reports whether it did.
func (s *Simulator) StepBefore(horizon, when timing.Time, seq uint64) bool {
	if len(s.queue) == 0 {
		return false
	}
	next := s.queue[0]
	if next.when > horizon || next.when > when || (next.when == when && next.seq >= seq) {
		return false
	}
	s.fire()
	return true
}

// PeekBefore reports whether the next queued event is ordered strictly before
// the reserved point (when, seq). It is the inline executor's cheap gate: in
// the common case no heap event interleaves before the next engine point and
// the executor runs it straight, never calling into StepBefore.
func (s *Simulator) PeekBefore(when timing.Time, seq uint64) bool {
	if len(s.queue) == 0 {
		return false
	}
	next := s.queue[0]
	return next.when < when || (next.when == when && next.seq < seq)
}

// StepUpTo executes the single next queued event if it fires no later than
// horizon, and reports whether it did. Events exactly at the horizon fire,
// matching Run.
func (s *Simulator) StepUpTo(horizon timing.Time) bool {
	return s.StepBefore(horizon, timing.Forever, 0)
}

// AdvanceTo moves the clock forward to t; moving backwards is a no-op. Inline
// executors advance the clock to each point before running its handler, just
// as Run does for queued events, and to the horizon when they suspend.
func (s *Simulator) AdvanceTo(t timing.Time) {
	if t > s.now && t != timing.Forever {
		s.now = t
	}
}

// Step executes exactly one event and reports whether there was one.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	s.fire()
	return true
}

// eventQueue is a binary min-heap ordered by (when, seq), hand-rolled on the
// concrete element type: the kernel pops an event per delivery per slot
// forever, and container/heap would route every comparison and swap through
// an interface. (when, seq) is a strict total order, so the pop sequence —
// the only observable — is the unique sorted order no matter how the heap
// arranges its layers.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the minimum (the root).
func (q *eventQueue) pop() *event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	*q = h[:n]
	if n > 1 {
		q.down(0)
	}
	return ev
}
