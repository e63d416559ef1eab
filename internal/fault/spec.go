package fault

import (
	"fmt"
	"strconv"
	"strings"

	"ccredf/internal/kv"
)

// ParseSpec parses the compact command-line fault specification used by the
// -faults flags of ccr-sim and ccr-sweep:
//
//	coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,seed=9
//
// Keys: coll / dist / ho set the per-slot drop and handover-failure
// probabilities; seed sets the injector seed; crash=NODE@AT[+DURATION] (which
// may repeat) crashes NODE at slot AT, restarting DURATION slots later
// (omitted = never). The empty string parses to the zero plan.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if err := kv.Parse("fault", spec, p.fields(), func() error {
		if err := p.Validate(0); err != nil {
			return fmt.Errorf("fault: %w", err)
		}
		return nil
	}); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// fields is the plan's spec table, in printed order.
func (p *Plan) fields() []kv.Field {
	return []kv.Field{
		{Key: "coll", Ptr: &p.CollectionDropProb},
		{Key: "dist", Ptr: &p.DistributionDropProb},
		{Key: "ho", Ptr: &p.HandoverFailProb},
		{Key: "crash", Parse: func(val string) error {
			c, err := parseCrash(val)
			if err == nil {
				p.Crashes = append(p.Crashes, c)
			}
			return err
		}, Format: func() []string {
			var vals []string
			for _, c := range p.Crashes {
				v := fmt.Sprintf("%d@%d", c.Node, c.At)
				if c.Restart != 0 {
					v += fmt.Sprintf("+%d", c.Restart-c.At)
				}
				vals = append(vals, v)
			}
			return vals
		}},
		{Key: "seed", Ptr: &p.Seed},
	}
}

// parseCrash parses NODE@AT[+DURATION].
func parseCrash(val string) (Crash, error) {
	nodeStr, rest, ok := strings.Cut(val, "@")
	if !ok {
		return Crash{}, fmt.Errorf("crash %q is not NODE@AT[+DURATION]", val)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return Crash{}, fmt.Errorf("crash node: %v", err)
	}
	atStr, durStr, hasDur := strings.Cut(rest, "+")
	at, err := strconv.ParseInt(atStr, 10, 64)
	if err != nil {
		return Crash{}, fmt.Errorf("crash slot: %v", err)
	}
	c := Crash{Node: node, At: at}
	if hasDur {
		dur, err := strconv.ParseInt(durStr, 10, 64)
		if err != nil {
			return Crash{}, fmt.Errorf("crash duration: %v", err)
		}
		if dur <= 0 {
			return Crash{}, fmt.Errorf("crash duration %d not positive", dur)
		}
		c.Restart = at + dur
	}
	return c, nil
}

// Spec renders the plan back into ParseSpec's format (a round-trip inverse
// for non-negative well-formed plans).
func (p Plan) Spec() string { return kv.Format(p.fields()) }
