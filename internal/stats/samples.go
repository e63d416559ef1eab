package stats

import (
	"encoding/binary"
	"slices"

	"ccredf/internal/timing"
)

// sampleBlock is the number of samples in a sealed block.
const sampleBlock = 4096

// skipEvery is the spacing of a sealed block's skip entries.
const skipEvery = 64

// samples is the exact retained-sample store behind a Histogram. A long run
// retains one sample per completed message per histogram, forever, so the
// store keeps each sample in as few bytes as exactness allows:
//
//   - New samples collect in a tail: below 2³² ps (≈4.3 ms) as 4-byte
//     values, larger ones as 8-byte values in a second tail. Each tail grows
//     by append up to sampleBlock samples, so a small histogram costs no
//     more than a slice.
//   - A full tail is sorted and sealed into a block that stores each
//     sample as the unsigned-varint difference from the one before: one
//     byte for a repeat (jitter repeats heavily), two or three for latencies
//     a few microseconds apart. Every skipEvery-th sample is kept whole in a
//     skip index, so counting a block's samples up to a value decodes at
//     most skipEvery differences. The block copies the samples out and the
//     tail's array is reused, so a long run never copies its samples to
//     grow.
type samples struct {
	sealed []block
	tail   []uint32
	wide   []timing.Time
	dirty  bool // tail or wide gained samples since they were last sorted
}

// block is a sealed block of sampleBlock sorted samples. Sample i with
// i%skipEvery == 0 is skip[i/skipEvery]; every other sample is the one
// before it plus the next uvarint of data, whose differences for the group
// after skip entry g start at data[off[g]]. last is the largest sample.
// below, upto and mid are at's scratch: the block's sample counts at the
// ends and the midpoint of its bisection window.
type block struct {
	skip             []uint64
	off              []uint16
	data             []byte
	last             uint64
	below, upto, mid int32
}

// sealBlock encodes sorted, a full block of sorted samples, into exactly
// sized arrays.
func sealBlock[T uint32 | timing.Time](sorted []T) block {
	size := 0
	for i := 1; i < len(sorted); i++ {
		if i%skipEvery != 0 {
			size += uvarintLen(uint64(sorted[i] - sorted[i-1]))
		}
	}
	groups := (len(sorted) + skipEvery - 1) / skipEvery
	b := block{
		skip: make([]uint64, 0, groups),
		off:  make([]uint16, 0, groups),
		data: make([]byte, 0, size),
		last: uint64(sorted[len(sorted)-1]),
	}
	for i, v := range sorted {
		if i%skipEvery == 0 {
			b.skip = append(b.skip, uint64(v))
			b.off = append(b.off, uint16(len(b.data)))
			continue
		}
		b.data = binary.AppendUvarint(b.data, uint64(v-sorted[i-1]))
	}
	return b
}

// uvarintLen returns the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// countLE returns how many of the block's samples are ≤ v.
func (b *block) countLE(v uint64) int {
	g := upperBound(b.skip, v)
	if g == 0 {
		return 0
	}
	g--
	n, cur, data := g*skipEvery+1, b.skip[g], b.data[b.off[g]:]
	for end := min((g+1)*skipEvery, sampleBlock); n < end; n++ {
		d, k := uint64(data[0]), 1
		if d >= 0x80 {
			d, k = binary.Uvarint(data)
		}
		if cur += d; cur > v {
			break
		}
		data = data[k:]
	}
	return n
}

// each calls fn with every sample of the block, in order.
func (b *block) each(fn func(timing.Time)) {
	var cur uint64
	data := b.data
	for i := 0; i < sampleBlock; i++ {
		if i%skipEvery == 0 {
			cur = b.skip[i/skipEvery]
		} else {
			d, k := binary.Uvarint(data)
			cur += d
			data = data[k:]
		}
		fn(timing.Time(cur))
	}
}

// upperBound returns how many values of the sorted slice s are ≤ v.
func upperBound[T uint32 | uint64 | timing.Time](s []T, v T) int {
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
		if len(s.wide) == sampleBlock {
			slices.Sort(s.wide)
			s.sealed = append(s.sealed, sealBlock(s.wide))
			s.wide = s.wide[:0]
		}
		s.wide = append(s.wide, v)
		return
	}
	if len(s.tail) == sampleBlock {
		slices.Sort(s.tail)
		s.sealed = append(s.sealed, sealBlock(s.tail))
		s.tail = s.tail[:0]
	}
	s.tail = append(s.tail, uint32(v))
}

// merge adds every sample of o.
func (s *samples) merge(o *samples) {
	for i := range o.sealed {
		o.sealed[i].each(s.add)
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
	if len(s.sealed) == 0 {
		// Every narrow sample is smaller than every wide one.
		if k < len(s.tail) {
			return timing.Time(s.tail[k])
		}
		return s.wide[k-len(s.tail)]
	}
	// The smallest value v with more than k samples ≤ v, by bisection
	// between the smallest and the largest sample, counting through every
	// sorted block and tail. A block's counts at the window's ends are
	// kept: once they agree, no sample of the block lies inside the window
	// and its count at any midpoint is known without decoding.
	lo, hi := uint64(1<<64-1), uint64(0)
	for i := range s.sealed {
		b := &s.sealed[i]
		lo, hi = min(lo, b.skip[0]), max(hi, b.last)
		b.below, b.upto = 0, sampleBlock
	}
	if len(s.tail) > 0 {
		lo, hi = min(lo, uint64(s.tail[0])), max(hi, uint64(s.tail[len(s.tail)-1]))
	}
	if len(s.wide) > 0 {
		lo, hi = min(lo, uint64(s.wide[0])), max(hi, uint64(s.wide[len(s.wide)-1]))
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		var le int
		if mid < 1<<32 {
			le = upperBound(s.tail, uint32(mid))
		} else {
			le = len(s.tail) + upperBound(s.wide, timing.Time(mid))
		}
		for i := range s.sealed {
			b := &s.sealed[i]
			b.mid = b.below
			if b.below != b.upto {
				b.mid = int32(b.countLE(mid))
			}
			le += int(b.mid)
		}
		above := le > k
		if above {
			hi = mid
		} else {
			lo = mid + 1
		}
		for i := range s.sealed {
			if b := &s.sealed[i]; above {
				b.upto = b.mid
			} else {
				b.below = b.mid
			}
		}
	}
	return timing.Time(lo)
}
