package network

import (
	"errors"
	"fmt"

	"ccredf/internal/core"
	"ccredf/internal/timing"
)

// Batch runs K independent replicas — typically the same topology under
// different seeds and loads — through one engine pass (DESIGN.md §14).
//
// Each replica is a complete *Network with its own simulator, rng stream,
// metrics and observers, so every per-replica result is byte-identical to
// running that replica alone through New + Run; a batch of one IS the single
// path. What the batch changes is placement and pacing:
//
//   - Struct-of-arrays scratch. All hot per-slot state — request slates,
//     engine points, arbiter grant/deny scratch and the pooled delivery
//     events — comes from one contiguous arena, laid out replica after
//     replica, instead of K constellations of separate heap objects.
//   - Shared shape tables. Replicas with identical physical Params share one
//     precomputed timing.Table, so the per-shape precomputation is paid once
//     per batch instead of once per replica.
//   - Chunked round-robin execution. RunSlots advances the replicas in
//     fixed-size slot chunks, keeping the engine's code, the shared tables
//     and the branch-predictor state hot across replicas rather than cooling
//     off between K full sequential runs.
type Batch struct {
	nets []*Network
}

// batchChunkSlots is the round-robin granularity of Batch.RunSlots: long
// enough to amortize the replica switch, short enough that every replica's
// working set cycles through the cache within one pass.
const batchChunkSlots = 256

// batchArena is the struct-of-arrays backing store one NewBatch call carves
// into per-replica slices. Each take* consumes from the front, so replica
// i's scratch is contiguous and sits directly before replica i+1's.
type batchArena struct {
	reqs       []core.Request
	pts        []enginePoint
	grants     []core.Grant
	denied     []int
	deliveries []delivery
}

func (a *batchArena) takeReqs(n int) []core.Request {
	s := a.reqs[:n:n]
	a.reqs = a.reqs[n:]
	return s
}

func (a *batchArena) takePts(n int) []enginePoint {
	s := a.pts[:0:n]
	a.pts = a.pts[n:]
	return s
}

func (a *batchArena) takeGrants(n int) []core.Grant {
	s := a.grants[:0:n]
	a.grants = a.grants[n:]
	return s
}

func (a *batchArena) takeDenied(n int) []int {
	s := a.denied[:0:n]
	a.denied = a.denied[n:]
	return s
}

func (a *batchArena) takeDeliveries(n int) []delivery {
	s := a.deliveries[:n:n]
	a.deliveries = a.deliveries[n:]
	return s
}

// arenaReqsPerReplica returns how many core.Request slots one replica of cfg
// consumes from the arena: the double-buffered slate (plus the secondary
// slate and the 2N combined scratch under the extension).
func arenaReqsPerReplica(cfg *Config) int {
	n := cfg.Params.Nodes
	total := 2 * n // sampled + sampledSpare
	if cfg.SecondaryRequests {
		total += 2*n + 2*n // secondary slate pair + combined scratch
	}
	return total
}

// deliveriesPerReplica bounds the steady-state delivery pool: at most one
// grant per node per slot, alive for roughly one slot plus the downstream
// propagation, so 2N pooled events cover the engine without lazy growth.
func deliveriesPerReplica(nodes int) int { return 2 * nodes }

// NewBatch builds K replicas over one shared arena. Every config must own
// its simulator (Sim == nil — a batch IS the scheduler that interleaves
// replicas) and carry its own Protocol instance; configs may differ in any
// field, including topology. It returns the batch, or the first
// construction error annotated with the replica index.
func NewBatch(cfgs []Config) (*Batch, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("network: empty batch")
	}
	// Size the arena: one pass over the configs, then one allocation per
	// scratch kind.
	var sizes struct{ reqs, pts, grants, denied, deliveries int }
	for i := range cfgs {
		if cfgs[i].Sim != nil {
			return nil, fmt.Errorf("network: batch replica %d carries a shared simulator", i)
		}
		n := cfgs[i].Params.Nodes
		sizes.reqs += arenaReqsPerReplica(&cfgs[i])
		sizes.pts += n + 2
		sizes.grants += n
		sizes.denied += n
		sizes.deliveries += deliveriesPerReplica(n)
	}
	arena := &batchArena{
		reqs:       make([]core.Request, sizes.reqs),
		pts:        make([]enginePoint, sizes.pts),
		grants:     make([]core.Grant, sizes.grants),
		denied:     make([]int, sizes.denied),
		deliveries: make([]delivery, sizes.deliveries),
	}
	// One timing table per distinct physical shape, shared by reference.
	var tables []*timing.Table
	var shapes []timing.Params
	tableFor := func(p timing.Params) *timing.Table {
		for i := range shapes {
			if sameShape(shapes[i], p) {
				return tables[i]
			}
		}
		t := timing.NewTable(p)
		shapes = append(shapes, p)
		tables = append(tables, t)
		return t
	}

	b := &Batch{nets: make([]*Network, 0, len(cfgs))}
	for i := range cfgs {
		cfg := cfgs[i]
		if err := cfg.Params.Validate(); err != nil {
			return nil, fmt.Errorf("network: batch replica %d: %w", i, err)
		}
		cfg.table = tableFor(cfg.Params)
		cfg.arena = arena
		// Replica-indexed arbiter scratch: the grant/deny buffers of
		// replica i live in the arena segment carved for it. Protocols
		// without BindScratch keep their private scratch — placement is an
		// optimisation, never a contract.
		nodes := cfg.Params.Nodes
		if p, ok := cfg.Protocol.(scratchBinder); ok {
			p.BindScratch(arena.takeGrants(nodes), arena.takeDenied(nodes))
		}
		n, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("network: batch replica %d: %w", i, err)
		}
		b.nets = append(b.nets, n)
	}
	return b, nil
}

// scratchBinder is implemented by the arbiters whose outcome scratch a batch
// can place in its arena (core, ccfpr and tdma).
type scratchBinder interface {
	BindScratch(grants []core.Grant, denied []int)
}

// sameShape reports whether two Params describe the same physical
// configuration (Params is not comparable because of the per-link lengths).
func sameShape(a, b timing.Params) bool {
	if a.Nodes != b.Nodes || a.LinkLengthM != b.LinkLengthM ||
		a.PropagationPerM != b.PropagationPerM || a.BitRate != b.BitRate ||
		a.SlotPayloadBytes != b.SlotPayloadBytes || a.NodeControlDelayBits != b.NodeControlDelayBits {
		return false
	}
	if len(a.LinkLengthsM) != len(b.LinkLengthsM) {
		return false
	}
	for i := range a.LinkLengthsM {
		if a.LinkLengthsM[i] != b.LinkLengthsM[i] {
			return false
		}
	}
	return true
}

// Len returns the number of replicas.
func (b *Batch) Len() int { return len(b.nets) }

// Net returns replica i.
func (b *Batch) Net(i int) *Network { return b.nets[i] }

// RunSlots advances every replica by approximately count slots (worst-case
// gap accounting, exactly as Network.RunSlots), interleaving the replicas in
// chunks of batchChunkSlots. Replicas are fully independent simulations, so
// the interleaving order cannot affect any result — it only keeps the engine
// hot across the batch.
func (b *Batch) RunSlots(count int64) {
	for done := int64(0); done < count; done += batchChunkSlots {
		c := count - done
		if c > batchChunkSlots {
			c = batchChunkSlots
		}
		for _, n := range b.nets {
			n.RunSlots(c)
		}
	}
}

// Run advances every replica to the absolute simulated time until, in chunks
// of batchChunkSlots slot periods per replica.
func (b *Batch) Run(until timing.Time) {
	for {
		live := false
		for _, n := range b.nets {
			if n.Now() >= until {
				continue
			}
			horizon := n.Now() + batchChunkSlots*n.tt.SlotPeriod
			if horizon > until {
				horizon = until
			}
			n.Run(horizon)
			live = true
		}
		if !live {
			return
		}
	}
}
