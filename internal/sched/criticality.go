package sched

import "fmt"

// Criticality is a connection's importance level for mixed-criticality
// admission (DESIGN.md §14). It is orthogonal to the wire traffic Class but
// maps onto the Table-1 priority classes: hard and firm connections release
// their periodic messages as ClassRealTime traffic (levels 17–31), while
// best-effort connections release ClassBestEffort messages (levels 2–16) and
// hold a reservation without any deadline guarantee.
//
// The zero value is CritHard: a plain sched.Connection is the paper's
// guaranteed logical real-time connection, so every pre-existing caller
// keeps its semantics.
type Criticality int

const (
	// CritHard connections are guaranteed: once admitted they are never
	// shed, and the admission test keeps the accepted set feasible so
	// their deadlines never miss.
	CritHard Criticality = iota
	// CritFirm connections are real-time while admitted but may be shed
	// (degraded mode) to make room for an arriving hard connection.
	CritFirm
	// CritBestEffort connections reserve capacity but carry best-effort
	// traffic: no deadline guarantee, first to be shed under pressure.
	CritBestEffort
	// NumCriticalities sizes per-level arrays.
	NumCriticalities = int(CritBestEffort) + 1
)

// String returns the canonical level name used in JSON bodies, metrics
// labels and CSV columns.
func (c Criticality) String() string {
	switch c {
	case CritHard:
		return "hard"
	case CritFirm:
		return "firm"
	case CritBestEffort:
		return "best_effort"
	default:
		return fmt.Sprintf("criticality(%d)", int(c))
	}
}

// Valid reports whether c is one of the three defined levels.
func (c Criticality) Valid() bool {
	return c >= CritHard && c <= CritBestEffort
}

// Class returns the Table-1 traffic class the level's periodic messages are
// released under: ClassRealTime for hard and firm, ClassBestEffort for
// best-effort reservations.
func (c Criticality) Class() Class {
	if c == CritBestEffort {
		return ClassBestEffort
	}
	return ClassRealTime
}

// ParseCriticality parses the canonical level names ("hard", "firm",
// "best_effort"; "be" and "" are accepted as spellings of best_effort and
// hard respectively is NOT implied — the empty string is an error so JSON
// bodies must be explicit).
func ParseCriticality(s string) (Criticality, error) {
	switch s {
	case "hard":
		return CritHard, nil
	case "firm":
		return CritFirm, nil
	case "best_effort", "be":
		return CritBestEffort, nil
	}
	return 0, fmt.Errorf("sched: unknown criticality %q (want hard, firm or best_effort)", s)
}

// Criticalities lists the levels in decreasing importance, for deterministic
// iteration.
func Criticalities() [NumCriticalities]Criticality {
	return [NumCriticalities]Criticality{CritHard, CritFirm, CritBestEffort}
}
