// Package churn generates seeded Poisson connection arrival/departure
// workloads: thousands of mixed-criticality admission decisions per simulated
// second driven through the live slot engine. Arrivals draw a random
// connection (criticality, endpoints, period, size), run it through
// Network.AdmitConnection — which may shed lower-criticality connections in
// degraded mode — and, when admitted, schedule an exponentially distributed
// departure that retires the connection and purges its backlog.
package churn

import (
	"fmt"

	"ccredf/internal/kv"
	"ccredf/internal/network"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// Spec configures a churn workload. The zero value means "no churn"; specs
// are normalised (defaults filled) by Normalised before use.
type Spec struct {
	// RatePerSec is the mean connection arrival rate in arrivals per second
	// of simulated time (Poisson process).
	RatePerSec float64 `json:"rate_per_sec"`
	// MeanHoldUs is the mean connection lifetime in microseconds
	// (exponential); departures retire the connection.
	MeanHoldUs float64 `json:"mean_hold_us"`
	// HardFrac and FirmFrac are the probabilities that an arrival is hard
	// or firm; the remainder is best-effort.
	HardFrac float64 `json:"hard_frac"`
	FirmFrac float64 `json:"firm_frac"`
	// FirmBudget and BEBudget set the firm and best-effort utilisation
	// budgets as fractions of U_max (hard keeps the full U_max).
	FirmBudget float64 `json:"firm_budget"`
	BEBudget   float64 `json:"be_budget"`
	// MinPeriodSlots and MaxPeriodSlots bound the arrival's period, drawn
	// uniformly in whole slots. MaxMsgSlots bounds the message size (1..max).
	MinPeriodSlots int `json:"min_period_slots"`
	MaxPeriodSlots int `json:"max_period_slots"`
	MaxMsgSlots    int `json:"max_msg_slots"`
	// Seed seeds the churn generator's private random stream.
	Seed uint64 `json:"seed"`
}

// Defaults, applied by Normalised to unset (zero) fields.
const (
	defaultHardFrac   = 0.2
	defaultFirmFrac   = 0.4
	defaultFirmBudget = 0.5
	defaultBEBudget   = 0.3
	defaultMinPeriod  = 50
	defaultMaxPeriod  = 400
	defaultMaxMsg     = 2
)

// Normalised returns s with defaults filled in for unset optional fields.
// RatePerSec and MeanHoldUs have no defaults: a churn spec must say how much
// churn it wants.
func (s Spec) Normalised() Spec {
	if s.HardFrac == 0 && s.FirmFrac == 0 {
		s.HardFrac, s.FirmFrac = defaultHardFrac, defaultFirmFrac
	}
	if s.FirmBudget == 0 {
		s.FirmBudget = defaultFirmBudget
	}
	if s.BEBudget == 0 {
		s.BEBudget = defaultBEBudget
	}
	if s.MinPeriodSlots == 0 {
		s.MinPeriodSlots = defaultMinPeriod
	}
	if s.MaxPeriodSlots == 0 {
		s.MaxPeriodSlots = defaultMaxPeriod
	}
	if s.MaxMsgSlots == 0 {
		s.MaxMsgSlots = defaultMaxMsg
	}
	return s
}

// Validate checks the normalised spec, returning field-qualified errors.
// The comparisons are written to fail on NaN.
func (s Spec) Validate() error {
	switch {
	case !(s.RatePerSec > 0):
		return fmt.Errorf("churn: rate_per_sec %v must be positive", s.RatePerSec)
	case !(s.MeanHoldUs > 0):
		return fmt.Errorf("churn: mean_hold_us %v must be positive", s.MeanHoldUs)
	case !(s.HardFrac >= 0 && s.HardFrac <= 1):
		return fmt.Errorf("churn: hard_frac %v outside [0,1]", s.HardFrac)
	case !(s.FirmFrac >= 0 && s.FirmFrac <= 1):
		return fmt.Errorf("churn: firm_frac %v outside [0,1]", s.FirmFrac)
	case s.HardFrac+s.FirmFrac > 1:
		return fmt.Errorf("churn: hard_frac + firm_frac %v exceeds 1", s.HardFrac+s.FirmFrac)
	case !(s.FirmBudget >= 0 && s.FirmBudget <= 1):
		return fmt.Errorf("churn: firm_budget %v outside [0,1]", s.FirmBudget)
	case !(s.BEBudget >= 0 && s.BEBudget <= 1):
		return fmt.Errorf("churn: be_budget %v outside [0,1]", s.BEBudget)
	case s.MinPeriodSlots < 1:
		return fmt.Errorf("churn: min_period_slots %d must be at least 1", s.MinPeriodSlots)
	case s.MaxPeriodSlots < s.MinPeriodSlots:
		return fmt.Errorf("churn: max_period_slots %d below min_period_slots %d",
			s.MaxPeriodSlots, s.MinPeriodSlots)
	case s.MaxMsgSlots < 1:
		return fmt.Errorf("churn: max_msg_slots %d must be at least 1", s.MaxMsgSlots)
	case s.MaxMsgSlots > s.MinPeriodSlots:
		return fmt.Errorf("churn: max_msg_slots %d exceeds min_period_slots %d (message would not fit its deadline)",
			s.MaxMsgSlots, s.MinPeriodSlots)
	}
	return nil
}

// ParseSpec parses the compact command-line churn specification used by the
// -churn flags of ccr-sim and ccr-sweep:
//
//	rate=50000,hold=2000,hard=0.2,firm=0.4,fbud=0.5,bbud=0.3,pmin=50,pmax=400,smax=2,seed=9
//
// rate is arrivals per simulated second; hold the mean connection lifetime
// in µs; hard/firm the criticality mix; fbud/bbud the firm and best-effort
// budgets as fractions of U_max; pmin/pmax the period range and smax the
// maximum message size in slots. Omitted keys take the package defaults.
// The empty string parses to the zero ("no churn") spec.
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	if err := kv.Parse("churn", spec, s.fields(), func() error { return s.Normalised().Validate() }); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// fields is the spec's table, in printed order.
func (s *Spec) fields() []kv.Field {
	return []kv.Field{
		{Key: "rate", Ptr: &s.RatePerSec},
		{Key: "hold", Ptr: &s.MeanHoldUs},
		{Key: "hard", Ptr: &s.HardFrac},
		{Key: "firm", Ptr: &s.FirmFrac},
		{Key: "fbud", Ptr: &s.FirmBudget},
		{Key: "bbud", Ptr: &s.BEBudget},
		{Key: "pmin", Ptr: &s.MinPeriodSlots},
		{Key: "pmax", Ptr: &s.MaxPeriodSlots},
		{Key: "smax", Ptr: &s.MaxMsgSlots},
		{Key: "seed", Ptr: &s.Seed},
	}
}

// String renders the spec back into ParseSpec's format (a round-trip inverse
// for well-formed specs; zero fields are omitted). The zero spec renders "".
func (s Spec) String() string { return kv.Format(s.fields()) }

// Enabled reports whether the spec describes any churn at all.
func (s Spec) Enabled() bool { return s.RatePerSec > 0 }

// Stats counts the generator's activity. Per-level admission outcome
// counters also flow into the network's Metrics; Stats adds the generator's
// own view (arrivals offered, departures completed).
type Stats struct {
	// Arrivals counts admission decisions driven (accepted or not);
	// Departures counts connections retired by their hold-time expiry.
	Arrivals, Departures int64
	// Admitted / Rejected / Evicted count per-level outcomes as seen by
	// the generator. Evictions attribute to the shed connection's level.
	Admitted, Rejected, Evicted [sched.NumCriticalities]int64
}

// Attach normalises and validates the spec, applies the per-level budgets to
// the network's admission controller and starts the arrival process. It
// returns the live Stats, updated as the simulation runs. The spec must be
// enabled and valid.
func Attach(net *network.Network, spec Spec) (*Stats, error) {
	s := spec.Normalised()
	if !s.Enabled() {
		return nil, fmt.Errorf("churn: spec is not enabled (rate_per_sec must be positive)")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	params := net.Params()
	nodes := params.Nodes
	slotT := params.SlotTime()
	adm := net.Admission()
	if err := adm.SetBudget(sched.CritFirm, s.FirmBudget*adm.UMax()); err != nil {
		return nil, err
	}
	if err := adm.SetBudget(sched.CritBestEffort, s.BEBudget*adm.UMax()); err != nil {
		return nil, err
	}

	src := rng.New(s.Seed)
	st := &Stats{}
	meanGap := float64(timing.Second) / s.RatePerSec
	meanHold := s.MeanHoldUs * float64(timing.Microsecond)
	var arrive func(timing.Time)
	arrive = func(timing.Time) {
		c := randomConn(src, s, nodes, slotT)
		st.Arrivals++
		admitted, shed, err := net.AdmitConnection(c)
		if err != nil {
			st.Rejected[c.Crit]++
		} else {
			st.Admitted[admitted.Crit]++
			for _, v := range shed {
				st.Evicted[v.Crit]++
			}
			id := admitted.ID
			net.After(timing.Time(src.Exp(meanHold)), func(timing.Time) {
				if net.RetireConnection(id) {
					st.Departures++
				}
			})
		}
		net.After(timing.Time(src.Exp(meanGap)), arrive)
	}
	net.After(timing.Time(src.Exp(meanGap)), arrive)
	return st, nil
}

// randomConn draws one arrival: endpoints, criticality by the configured
// mix, uniform period in slots and uniform message size.
func randomConn(src *rng.Source, s Spec, nodes int, slotT timing.Time) sched.Connection {
	from := src.Intn(nodes)
	to := (from + 1 + src.Intn(nodes-1)) % nodes
	crit := sched.CritBestEffort
	switch p := src.Float64(); {
	case p < s.HardFrac:
		crit = sched.CritHard
	case p < s.HardFrac+s.FirmFrac:
		crit = sched.CritFirm
	}
	period := s.MinPeriodSlots + src.Intn(s.MaxPeriodSlots-s.MinPeriodSlots+1)
	return sched.Connection{
		Src:    from,
		Dests:  ring.Node(to),
		Period: timing.Time(period) * slotT,
		Slots:  1 + src.Intn(s.MaxMsgSlots),
		Crit:   crit,
	}
}
