package stats

import (
	"slices"

	"ccredf/internal/timing"
)

// sampleBlock is the number of narrow samples in a full block (16 KiB).
const sampleBlock = 4096

// samples is the exact retained-sample store behind a Histogram. A long run
// retains one sample per completed message per histogram, forever, so the
// store keeps each sample in as few bytes as exactness allows:
//
//   - Samples below 2³² ps (≈4.3 ms, nearly every latency) are narrow 4-byte
//     values. They fill a tail block; a full tail is sorted and sealed, and
//     a sealed block whose samples repeat (jitter does, heavily) is stored
//     as its distinct values with running counts when that halves it. The
//     first tail grows by append, so a small histogram costs no more than
//     a slice; later tails are allocated full size, so a long run never
//     copies its samples to grow.
//   - Larger samples are wide 8-byte values in one slice.
//
// Every narrow sample is smaller than every wide one, so the narrow samples
// in order followed by the sorted wide ones are the whole sorted sample.
type samples struct {
	sealed []block
	tail   []uint32
	wide   []timing.Time
	dirty  bool // tail or wide gained samples since they were last sorted
}

// block is a sealed, sorted block of sampleBlock narrow samples. With runs
// set, vals holds the distinct values and runs[i] counts the block's
// samples ≤ vals[i]; otherwise vals holds every sample.
type block struct {
	vals []uint32
	runs []uint32
}

// countLE returns how many of the block's samples are ≤ v.
func (b *block) countLE(v uint32) int {
	i := upperBound(b.vals, v)
	if b.runs == nil || i == 0 {
		return i
	}
	return int(b.runs[i-1])
}

// upperBound returns how many values of the sorted slice s are ≤ v.
func upperBound(s []uint32, v uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (s *samples) add(v timing.Time) {
	s.dirty = true
	if v >= 1<<32 {
		s.wide = append(s.wide, v)
		return
	}
	if len(s.tail) == sampleBlock {
		s.seal()
	}
	s.tail = append(s.tail, uint32(v))
}

// seal sorts the full tail into a sealed block and starts a new tail.
func (s *samples) seal() {
	t := s.tail
	slices.Sort(t)
	distinct := 1
	for i := 1; i < len(t); i++ {
		if t[i] != t[i-1] {
			distinct++
		}
	}
	if 2*distinct > len(t) {
		s.sealed = append(s.sealed, block{vals: t})
		s.tail = make([]uint32, 0, sampleBlock)
		return
	}
	b := block{vals: make([]uint32, 0, distinct), runs: make([]uint32, 0, distinct)}
	for i, v := range t {
		if i+1 == len(t) || t[i+1] != v {
			b.vals = append(b.vals, v)
			b.runs = append(b.runs, uint32(i+1))
		}
	}
	s.sealed = append(s.sealed, b)
	s.tail = t[:0] // the coded block copied out; reuse the array
}

// merge adds every sample of o.
func (s *samples) merge(o *samples) {
	for _, b := range o.sealed {
		for i, v := range b.vals {
			n := 1
			if b.runs != nil {
				n = int(b.runs[i])
				if i > 0 {
					n -= int(b.runs[i-1])
				}
			}
			for ; n > 0; n-- {
				s.add(timing.Time(v))
			}
		}
	}
	for _, v := range o.tail {
		s.add(timing.Time(v))
	}
	for _, v := range o.wide {
		s.add(v)
	}
}

// len returns the number of retained samples.
func (s *samples) len() int {
	return len(s.sealed)*sampleBlock + len(s.tail) + len(s.wide)
}

// sort sorts, in place, the samples that arrived since the last call.
func (s *samples) sort() {
	if s.dirty {
		slices.Sort(s.tail)
		slices.Sort(s.wide)
		s.dirty = false
	}
}

// at returns the k-th smallest sample (0-based) of a sorted store.
func (s *samples) at(k int) timing.Time {
	narrow := s.len() - len(s.wide)
	if k >= narrow {
		return s.wide[k-narrow]
	}
	if len(s.sealed) == 0 {
		return timing.Time(s.tail[k])
	}
	// The smallest value v with more than k samples ≤ v, by bisection over
	// the 32-bit value range, counting through every sorted block.
	lo, hi := uint32(0), uint32(1<<32-1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		le := upperBound(s.tail, mid)
		for i := range s.sealed {
			le += s.sealed[i].countLE(mid)
		}
		if le > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return timing.Time(lo)
}
