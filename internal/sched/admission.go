package sched

import (
	"fmt"
	"slices"

	"ccredf/internal/mode"
	"ccredf/internal/ring"
	"ccredf/internal/timing"
)

// Connection describes a logical real-time connection: a stream of periodic
// messages from Src to Dests, each message occupying Slots network slots,
// released every Period. The paper assumes the relative deadline equals the
// period, so each message's network-level deadline is its release time plus
// Period.
type Connection struct {
	// ID is assigned by the admission controller on acceptance.
	ID int
	// Src is the transmitting node.
	Src int
	// Dests is the destination set.
	Dests ring.NodeSet
	// Period is the message period Pᵢ.
	Period timing.Time
	// Slots is the message size eᵢ in slots.
	Slots int
	// Deadline is the relative network-level deadline Dᵢ. Zero means
	// Dᵢ = Pᵢ, the paper's assumption; a smaller value gives a
	// constrained-deadline connection (an extension beyond the paper,
	// admitted by the conservative density test — see RelDeadline and
	// analysis.DemandBoundFeasible for the exact test).
	Deadline timing.Time
	// Crit is the connection's criticality level. The zero value is
	// CritHard: a plain Connection is the paper's guaranteed logical
	// real-time connection.
	Crit Criticality
}

// RelDeadline returns the effective relative deadline: Deadline, or Period
// when Deadline is zero.
func (c Connection) RelDeadline() timing.Time {
	if c.Deadline != 0 {
		return c.Deadline
	}
	return c.Period
}

// Density returns eᵢ·t_slot / min(Dᵢ, Pᵢ): the per-connection term of the
// density test used to admit constrained-deadline connections. For
// implicit deadlines (Dᵢ = Pᵢ) it equals Utilisation.
func (c Connection) Density(slot timing.Time) float64 {
	d := c.RelDeadline()
	if d > c.Period {
		d = c.Period
	}
	if d <= 0 {
		return 0
	}
	return float64(c.Slots) * float64(slot) / float64(d)
}

// Utilisation returns eᵢ·t_slot / Pᵢ, the fraction of network capacity the
// connection consumes (Equation 5's per-connection term, with periods in
// real time and message sizes in slots).
func (c Connection) Utilisation(slot timing.Time) float64 {
	if c.Period <= 0 {
		return 0
	}
	return float64(c.Slots) * float64(slot) / float64(c.Period)
}

// Validate reports whether the connection parameters are usable on a ring of
// n nodes with the given slot time.
func (c Connection) Validate(n int, slot timing.Time) error {
	switch {
	case c.Src < 0 || c.Src >= n:
		return fmt.Errorf("sched: source %d outside ring of %d", c.Src, n)
	case c.Dests.Empty():
		return fmt.Errorf("sched: connection has no destinations")
	case c.Dests.Contains(c.Src):
		return fmt.Errorf("sched: connection from %d lists itself as destination", c.Src)
	case c.Period <= 0:
		return fmt.Errorf("sched: non-positive period %v", c.Period)
	case c.Slots < 1 || c.Slots > MaxMessageSlots:
		return fmt.Errorf("sched: message size %d slots outside [1,%d]", c.Slots, MaxMessageSlots)
	case c.Deadline < 0:
		return fmt.Errorf("sched: negative relative deadline %v", c.Deadline)
	case c.Deadline > c.Period:
		return fmt.Errorf("sched: deadline %v beyond period %v (unsupported)", c.Deadline, c.Period)
	case timing.Time(c.Slots)*slot > c.RelDeadline():
		return fmt.Errorf("sched: message (%d slots = %v) does not fit in its own deadline %v",
			c.Slots, timing.Time(c.Slots)*slot, c.RelDeadline())
	case !c.Crit.Valid():
		return fmt.Errorf("sched: invalid criticality %d", int(c.Crit))
	}
	for _, d := range c.Dests.Nodes() {
		if d < 0 || d >= n {
			return fmt.Errorf("sched: destination %d outside ring of %d", d, n)
		}
	}
	return nil
}

// ErrRejected is the error type returned when the admission test fails.
type ErrRejected struct {
	// Requested is the utilisation the new connection would add.
	Requested float64
	// Current is the utilisation of the accepted set Ma.
	Current float64
	// UMax is the bound of Equation 6.
	UMax float64
}

// Error implements error.
func (e ErrRejected) Error() string {
	return fmt.Sprintf("sched: connection rejected: utilisation %.4f + %.4f would exceed U_max %.4f",
		e.Current, e.Requested, e.UMax)
}

// ErrBudgetExceeded is returned by Admit when a connection fails its own
// criticality level's utilisation budget. Shedding lower-criticality
// connections cannot fix this — the budget caps the level itself — so the
// candidate is rejected without touching the accepted set.
type ErrBudgetExceeded struct {
	// Level is the candidate's criticality.
	Level Criticality
	// Requested is the density the new connection would add.
	Requested float64
	// Current is the density level's accepted connections already use.
	Current float64
	// Budget is the level's utilisation budget.
	Budget float64
}

// Error implements error.
func (e ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("sched: %s connection rejected: level utilisation %.4f + %.4f would exceed budget %.4f",
		e.Level, e.Current, e.Requested, e.Budget)
}

// ErrModeGated is returned by Admit when the current operating mode gates
// the candidate's criticality level: Degraded gates new firm admissions,
// Critical also gates best-effort. Hard-class connections are never gated.
type ErrModeGated struct {
	// Mode is the operating mode at decision time.
	Mode mode.Mode
	// Level is the gated criticality.
	Level Criticality
}

// Error implements error.
func (e ErrModeGated) Error() string {
	return fmt.Sprintf("sched: %s connection gated: system in %s mode", e.Level, e.Mode)
}

// Admission is the online centralised admission controller of Section 6. A
// designated node runs one instance; connection requests arrive one at a
// time (over the best-effort service or the in-process API) and are accepted
// exactly when the utilisation of the accepted set Ma plus the new
// connection stays at or below U_max (Equations 5 and 6).
type Admission struct {
	params timing.Params
	umax   float64
	// active is the accepted set Ma in ascending ID order. IDs are issued
	// in increasing order, so accepting appends and releasing deletes in
	// place; every sum walks this order (see sum).
	active []Connection
	nextID int
	// budgets caps the density each criticality level may hold. Each
	// defaults to umax (no partitioning); SetBudget tightens a level.
	budgets [NumCriticalities]float64
	// modeFn, when set, supplies the operating mode consulted by Admit:
	// Degraded gates new firm admissions, Critical also gates best-effort.
	modeFn func() mode.Mode
}

// NewAdmission returns an admission controller for a ring with the given
// physical parameters.
func NewAdmission(params timing.Params) *Admission {
	a := &Admission{
		params: params,
		umax:   params.UMax(),
		nextID: 1,
	}
	for l := range a.budgets {
		a.budgets[l] = a.umax
	}
	return a
}

// UMax returns the schedulability bound in use (Equation 6).
func (a *Admission) UMax() float64 { return a.umax }

// Utilisation returns the total utilisation of the accepted set Ma.
func (a *Admission) Utilisation() float64 {
	return a.sum(Connection.Utilisation)
}

// Density returns the total density of the accepted set Ma. For the
// paper's implicit-deadline connections this equals Utilisation.
func (a *Admission) Density() float64 {
	return a.sum(Connection.Density)
}

// SetBudget caps the density criticality level l may hold. Budgets are
// clamped to [0, U_max]; NewAdmission initialises every level to U_max
// (no partitioning). Tightening a budget below a level's current density
// does not evict anything — it only constrains future Admit calls.
func (a *Admission) SetBudget(l Criticality, budget float64) error {
	if !l.Valid() {
		return fmt.Errorf("sched: invalid criticality %d", int(l))
	}
	if budget < 0 {
		budget = 0
	}
	if budget > a.umax {
		budget = a.umax
	}
	a.budgets[l] = budget
	return nil
}

// Budget returns the density budget of criticality level l.
func (a *Admission) Budget(l Criticality) float64 {
	if !l.Valid() {
		return 0
	}
	return a.budgets[l]
}

// LevelDensity returns the total density of the accepted connections at
// criticality level l, summed in ascending connection-ID order (see sum).
func (a *Admission) LevelDensity(l Criticality) float64 {
	u := 0.0
	for _, c := range a.active {
		if c.Crit == l {
			u += c.Density(a.params.SlotTime())
		}
	}
	return u
}

// SetModeFunc wires the operating-mode source consulted by Admit (nil
// disables gating). The function is called once per admission decision.
func (a *Admission) SetModeFunc(fn func() mode.Mode) { a.modeFn = fn }

// gated reports whether the current operating mode refuses new admissions at
// criticality level l. Hard is never gated.
func (a *Admission) gated(l Criticality) (mode.Mode, bool) {
	if a.modeFn == nil || l == CritHard {
		return mode.Normal, false
	}
	m := a.modeFn()
	switch {
	case m >= mode.Critical:
		return m, true // firm and best-effort both gated
	case m >= mode.Degraded:
		return m, l == CritFirm
	}
	return m, false
}

// Admit runs the mixed-criticality admission test for c. The decision is
// computed in full before any state changes, so a rejection leaves the
// accepted set untouched (rollback by construction):
//
//  1. c must pass its own level's budget: LevelDensity(c.Crit) + density(c)
//     ≤ Budget(c.Crit). Shedding lower-criticality connections cannot free
//     own-level budget, so failure here is ErrBudgetExceeded.
//  2. If the total density with c stays within U_max, c is admitted with no
//     shedding.
//  3. Otherwise connections of strictly lower criticality than c are shed
//     in degraded-mode order — least critical level first, newest ID first
//     within a level — until c fits. Hard admissions may evict firm and
//     best-effort connections but never other hard ones; if shedding every
//     lower-criticality connection still cannot make room, c is rejected
//     with ErrRejected and nothing is evicted.
//
// On acceptance it assigns an ID, commits the evictions and the new
// connection, and returns the stored connection plus the shed connections
// in eviction order.
func (a *Admission) Admit(c Connection) (Connection, []Connection, error) {
	if err := c.Validate(a.params.Nodes, a.params.SlotTime()); err != nil {
		return Connection{}, nil, err
	}
	if m, g := a.gated(c.Crit); g {
		return Connection{}, nil, ErrModeGated{Mode: m, Level: c.Crit}
	}
	slot := a.params.SlotTime()
	u := c.Density(slot)
	levelCur := a.LevelDensity(c.Crit)
	if levelCur+u > a.budgets[c.Crit] {
		return Connection{}, nil, ErrBudgetExceeded{
			Level: c.Crit, Requested: u, Current: levelCur, Budget: a.budgets[c.Crit],
		}
	}
	cur := a.Density()
	if cur+u <= a.umax {
		return a.commit(c), nil, nil
	}
	// Degraded mode: collect the positions of shedding candidates of
	// strictly lower criticality, least critical first, newest (highest-ID)
	// first within a level, and evict greedily until c fits.
	var cands []int
	for l := NumCriticalities - 1; l > int(c.Crit); l-- {
		for i := len(a.active) - 1; i >= 0; i-- {
			if a.active[i].Crit == Criticality(l) {
				cands = append(cands, i)
			}
		}
	}
	// Recompute the remaining set's density from scratch after each
	// eviction instead of subtracting: float subtraction is not the exact
	// inverse of the ID-ordered sum, and the decision must be bit-identical
	// to a recompute-from-scratch oracle.
	excluded := make([]bool, len(a.active))
	shed := make([]Connection, 0, len(cands))
	for cur+u > a.umax {
		if len(shed) == len(cands) {
			return Connection{}, nil, ErrRejected{Requested: u, Current: a.Density(), UMax: a.umax}
		}
		i := cands[len(shed)]
		excluded[i] = true
		shed = append(shed, a.active[i])
		cur = a.densityExcluding(excluded)
	}
	kept := a.active[:0]
	for i, v := range a.active {
		if !excluded[i] {
			kept = append(kept, v)
		}
	}
	a.active = kept
	return a.commit(c), shed, nil
}

// densityExcluding returns the density of the accepted set minus the
// connections at the excluded positions, summed in ascending ID order.
func (a *Admission) densityExcluding(excluded []bool) float64 {
	u := 0.0
	for i, c := range a.active {
		if !excluded[i] {
			u += c.Density(a.params.SlotTime())
		}
	}
	return u
}

// commit assigns the next ID to c and appends it, keeping the accepted set
// in ascending ID order.
func (a *Admission) commit(c Connection) Connection {
	c.ID = a.nextID
	a.nextID++
	a.active = append(a.active, c)
	return c
}

// find returns the position of the connection with the given ID in the
// accepted set and whether it is there.
func (a *Admission) find(id int) (int, bool) {
	return slices.BinarySearchFunc(a.active, id, func(c Connection, id int) int { return c.ID - id })
}

// sum folds term over the accepted set in ascending connection-ID order:
// float addition is not associative, so a fixed order keeps the last bits
// of the total (and everything derived from it) the same run to run.
func (a *Admission) sum(term func(Connection, timing.Time) float64) float64 {
	u := 0.0
	for _, c := range a.active {
		u += term(c, a.params.SlotTime())
	}
	return u
}

// Request runs the admission test for c: the density test
// Σ eᵢ·t_slot/min(Dᵢ,Pᵢ) ≤ U_max, which reduces to the paper's Equation 5
// for implicit deadlines and is a safe (sufficient) test for
// constrained-deadline connections. On acceptance it assigns an ID, adds
// the connection to Ma and returns the stored connection; otherwise it
// returns ErrRejected (or a validation error).
func (a *Admission) Request(c Connection) (Connection, error) {
	if err := c.Validate(a.params.Nodes, a.params.SlotTime()); err != nil {
		return Connection{}, err
	}
	u := c.Density(a.params.SlotTime())
	cur := a.Density()
	if cur+u > a.umax {
		return Connection{}, ErrRejected{Requested: u, Current: cur, UMax: a.umax}
	}
	return a.commit(c), nil
}

// Force admits c without running the utilisation test. It exists for
// overload experiments that deliberately exceed U_max; production callers
// must use Request. Parameter validation still applies.
func (a *Admission) Force(c Connection) (Connection, error) {
	if err := c.Validate(a.params.Nodes, a.params.SlotTime()); err != nil {
		return Connection{}, err
	}
	return a.commit(c), nil
}

// Release removes the connection with the given ID from Ma and reports
// whether it was active.
func (a *Admission) Release(id int) bool {
	i, ok := a.find(id)
	if ok {
		a.active = slices.Delete(a.active, i, i+1)
	}
	return ok
}

// Get returns the active connection with the given ID.
func (a *Admission) Get(id int) (Connection, bool) {
	if i, ok := a.find(id); ok {
		return a.active[i], true
	}
	return Connection{}, false
}

// Active returns the accepted set Ma, sorted by ID.
func (a *Admission) Active() []Connection {
	return append(make([]Connection, 0, len(a.active)), a.active...)
}

// Feasible runs the basic EDF feasibility test of Equation 5 on an arbitrary
// connection set, without mutating any state: Σ eᵢ·t_slot/Pᵢ ≤ U_max.
func Feasible(set []Connection, params timing.Params) bool {
	u := 0.0
	for _, c := range set {
		u += c.Utilisation(params.SlotTime())
	}
	return u <= params.UMax()
}
