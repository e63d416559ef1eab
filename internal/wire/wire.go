// Package wire implements the bit-serial control-channel packet formats of
// the CCR-EDF network.
//
// Two packets exist (paper Figures 4 and 5):
//
//   - The collection-phase packet: a start bit followed by one request per
//     node, each request being a 5-bit priority field, an N-bit link
//     reservation field and an N-bit destination field. Priority 0 is the
//     reserved "nothing to send" level, in which case the node writes zeros
//     in the remaining fields.
//
//   - The distribution-phase packet: a start bit, N−1 request-result bits
//     (the result for the highest-priority node is implicit — its request is
//     by construction always granted), a ⌈log₂N⌉-bit index of the
//     highest-priority node that will be master in the coming slot, and the
//     "other fields" the paper mentions but does not specify, which this
//     implementation uses for the intrinsic services of ref [11]: an N-bit
//     acknowledgement field, a barrier-completion bit and a 64-bit global
//     reduction operand.
//
// Bits are packed MSB-first into bytes, which mirrors serial transmission
// order on the control fibre.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"ccredf/internal/ring"
	"ccredf/internal/timing"
)

// PrioBits is the width of the request priority field (Table 1 allocates
// levels 0–31).
const PrioBits = 5

// MaxPrio is the highest encodable priority level.
const MaxPrio = 1<<PrioBits - 1

// PrioNothing is the reserved priority level meaning "nothing to send".
const PrioNothing = 0

// Request is one node's entry in the collection-phase packet (Figure 4).
type Request struct {
	// Prio is the 5-bit priority level (Table 1). PrioNothing means the
	// node has no request and the other fields must be zero.
	Prio uint8
	// Reserve is the N-bit link reservation field: the links the request
	// needs for its transmission segment.
	Reserve ring.LinkSet
	// Dests is the N-bit destination field (single destination, multicast
	// or broadcast).
	Dests ring.NodeSet
}

// Empty reports whether the request carries nothing to send.
func (r Request) Empty() bool { return r.Prio == PrioNothing }

// Collection is a complete collection-phase packet: one request per node, in
// ring order starting at the node downstream of the master (the master
// initiates the empty packet and each node appends its request as it passes).
type Collection struct {
	Requests []Request
}

// Distribution is a distribution-phase packet (Figure 5).
type Distribution struct {
	// HPNode is the index of the node holding the highest-priority message;
	// it becomes master of the coming slot.
	HPNode int
	// Granted marks the nodes whose requests were accepted. HPNode's grant
	// is implicit on the wire but always set here after decoding.
	Granted ring.NodeSet
	// Acks acknowledges data packets received in the previous slot, per
	// source node (reliable-transmission service).
	Acks ring.NodeSet
	// Barrier is set when the current barrier-synchronisation round is
	// complete (all participants reported).
	Barrier bool
	// Reduce carries the running operand of a global-reduction operation.
	Reduce uint64
}

// errTruncated is returned when a packet is shorter than its format requires.
var errTruncated = errors.New("wire: truncated packet")

// fits reports whether v fits in width bits (width ≤ 64).
func fits(v uint64, width int) bool {
	return width >= 64 || v < 1<<uint(width)
}

// Writer packs bits MSB-first into a byte slice. Fields accumulate in a
// 64-bit register, which moves to the buffer 32 bits at a time; the bits
// still in the register join the buffer only when Bytes is called.
type Writer struct {
	buf  []byte // the bits written before the register's
	acc  uint64 // the register: its low nacc bits are pending
	nacc int    // pending bits, always < 32 between calls
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteBits appends the width low-order bits of v, most significant first
// (bits of a width above 64 are leading zeros). A field of up to 32 bits
// shifts into the register, which then holds at most 63 bits; wider fields
// go in as 32-bit pieces.
func (w *Writer) WriteBits(v uint64, width int) {
	if uint(width) > 32 {
		w.writeWide(v, width)
		return
	}
	w.put(v, width)
}

// put appends a field of 0 ≤ width ≤ 32 bits.
func (w *Writer) put(v uint64, width int) {
	w.acc = w.acc<<uint(width) | v&(1<<uint(width)-1)
	w.nacc += width
	if w.nacc >= 32 {
		w.flush32()
	}
}

// writeWide is WriteBits for widths outside [0, 32].
func (w *Writer) writeWide(v uint64, width int) {
	if width <= 0 {
		return
	}
	for width > 64 {
		zeros := min(width-64, 32)
		w.put(0, zeros)
		width -= zeros
	}
	w.put(v>>32, width-32)
	w.put(v, 32)
}

// flush32 moves the register's oldest 32 pending bits to the buffer.
func (w *Writer) flush32() {
	w.nacc -= 32
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>uint(w.nacc)))
}

// Reset discards the written bits while keeping the grown buffer, so one
// Writer can serialise a packet every arbitration round without reallocating.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// AppendBytes appends whole bytes to a byte-aligned writer (the data-packet
// encoder byte-aligns its header so payload and CRC can be block-copied).
func (w *Writer) AppendBytes(b []byte) {
	if w.nacc%8 != 0 {
		panic("wire: AppendBytes on an unaligned writer")
	}
	for w.nacc > 0 { // the register's whole pending bytes go first
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>uint(w.nacc)))
	}
	w.buf = append(w.buf, b...)
}

// Bytes returns the packed bytes. The final byte is zero-padded. The slice
// aliases the writer's buffer: it stays valid while nothing more is
// written, and writing may continue after the call.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if w.nacc > 0 {
		// Lay the pending bits out past the buffer's length, where the
		// next flush overwrites them, so the writer's state is unchanged.
		left := w.acc << uint(64-w.nacc)
		for k := 0; k < w.nacc; k += 8 {
			out = append(out, byte(left>>56))
			left <<= 8
		}
	}
	return out
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return 8*len(w.buf) + w.nacc }

// windowBits is the widest field one 64-bit window access moves: the window
// starts at the partial byte, which may hold up to 7 bits already.
const windowBits = 56

// Reader unpacks bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	nbit int
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.nbit >= 8*len(r.buf) {
		return false, errTruncated
	}
	b := r.buf[r.nbit/8]&(0x80>>uint(r.nbit%8)) != 0
	r.nbit++
	return b, nil
}

// ReadBits consumes width bits and returns them as the low-order bits of a
// uint64, most significant first (of a width above 64, the last 64 bits). It
// loads a field through one 64-bit big-endian window over the partial byte
// and the bytes after it; fields wider than the window holds split in two. A
// read past the end consumes the remaining bits and fails with a truncation
// error.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width <= 0 {
		return 0, nil
	}
	if width > r.Remaining() {
		r.nbit = 8 * len(r.buf)
		return 0, errTruncated
	}
	if width > windowBits {
		hi, _ := r.ReadBits(width - 32)
		lo, _ := r.ReadBits(32)
		return hi<<32 | lo, nil
	}
	idx, off := r.nbit/8, r.nbit%8
	var window uint64
	if rest := r.buf[idx:]; len(rest) >= 8 {
		window = binary.BigEndian.Uint64(rest)
	} else {
		for i, b := range rest {
			window |= uint64(b) << uint(56-8*i)
		}
	}
	r.nbit += width
	return window << uint(off) >> uint(64-width), nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.nbit }

// EncodeCollection serialises c for a ring of n nodes. It returns an error
// when the packet shape is inconsistent with n or a field overflows its
// width.
func EncodeCollection(c Collection, n int) ([]byte, error) {
	var w Writer
	if err := EncodeCollectionInto(&w, c, n); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeCollectionInto is EncodeCollection writing through a caller-owned
// Writer (which it resets first): a verifier that serialises one packet per
// arbitration round reuses the Writer's buffer instead of growing a fresh one
// each time. The packet bytes are available from w.Bytes on success.
func EncodeCollectionInto(w *Writer, c Collection, n int) error {
	if len(c.Requests) != n {
		return fmt.Errorf("wire: collection has %d requests, ring has %d nodes", len(c.Requests), n)
	}
	w.Reset()
	w.WriteBit(true) // start bit
	for i, req := range c.Requests {
		if req.Prio > MaxPrio {
			return fmt.Errorf("wire: request %d priority %d exceeds %d", i, req.Prio, MaxPrio)
		}
		if !fits(uint64(req.Reserve), n) || !fits(uint64(req.Dests), n) {
			return fmt.Errorf("wire: request %d field exceeds %d-bit width", i, n)
		}
		if req.Empty() && (req.Reserve != 0 || req.Dests != 0) {
			return fmt.Errorf("wire: request %d has priority 0 but non-zero fields", i)
		}
		w.WriteBits(uint64(req.Prio), PrioBits)
		w.WriteBits(uint64(req.Reserve), n)
		w.WriteBits(uint64(req.Dests), n)
	}
	return nil
}

// DecodeCollection parses a collection-phase packet for a ring of n nodes.
func DecodeCollection(buf []byte, n int) (Collection, error) {
	var c Collection
	if err := DecodeCollectionInto(&c, buf, n); err != nil {
		return Collection{}, err
	}
	return c, nil
}

// DecodeCollectionInto is DecodeCollection parsing into a caller-owned
// Collection, reusing c.Requests when its capacity suffices. On error c is
// left with partially decoded requests and must not be interpreted.
func DecodeCollectionInto(c *Collection, buf []byte, n int) error {
	r := NewReader(buf)
	start, err := r.ReadBit()
	if err != nil {
		return err
	}
	if !start {
		return errors.New("wire: missing start bit")
	}
	if cap(c.Requests) < n {
		c.Requests = make([]Request, n)
	}
	c.Requests = c.Requests[:n]
	for i := 0; i < n; i++ {
		prio, err := r.ReadBits(PrioBits)
		if err != nil {
			return err
		}
		res, err := r.ReadBits(n)
		if err != nil {
			return err
		}
		dst, err := r.ReadBits(n)
		if err != nil {
			return err
		}
		c.Requests[i] = Request{Prio: uint8(prio), Reserve: ring.LinkSet(res), Dests: ring.NodeSet(dst)}
		if c.Requests[i].Empty() && (res != 0 || dst != 0) {
			return fmt.Errorf("wire: request %d has priority 0 but non-zero fields", i)
		}
	}
	return nil
}

// EncodeDistribution serialises d for a ring of n nodes.
func EncodeDistribution(d Distribution, n int) ([]byte, error) {
	var w Writer
	if err := EncodeDistributionInto(&w, d, n); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeDistributionInto is EncodeDistribution writing through a caller-owned
// Writer (which it resets first), reusing the Writer's grown buffer across
// rounds. The packet bytes are available from w.Bytes on success.
func EncodeDistributionInto(w *Writer, d Distribution, n int) error {
	if d.HPNode < 0 || d.HPNode >= n {
		return fmt.Errorf("wire: hp-node %d outside ring of %d", d.HPNode, n)
	}
	if !fits(uint64(d.Granted), n) || !fits(uint64(d.Acks), n) {
		return fmt.Errorf("wire: node-set field exceeds %d-bit width", n)
	}
	w.Reset()
	w.WriteBit(true) // start bit
	// N−1 result bits: every node except HPNode, in ascending index order.
	w.WriteBits(resultBits(d.Granted, d.HPNode, n), n-1)
	w.WriteBits(uint64(d.HPNode), timing.CeilLog2(n))
	// "Other fields": intrinsic services (ref [11]).
	w.WriteBits(uint64(d.Acks), n)
	w.WriteBit(d.Barrier)
	w.WriteBits(d.Reduce, 64)
	return nil
}

// DecodeDistribution parses a distribution-phase packet for a ring of n
// nodes. The highest-priority node's grant is restored (it is implicit on
// the wire).
func DecodeDistribution(buf []byte, n int) (Distribution, error) {
	r := NewReader(buf)
	start, err := r.ReadBit()
	if err != nil {
		return Distribution{}, err
	}
	if !start {
		return Distribution{}, errors.New("wire: missing start bit")
	}
	// The N−1 result bits fit a uint64 (a NodeSet bounds the ring at 64
	// nodes), so they are held as a bitfield instead of a per-call []bool.
	results, err := r.ReadBits(n - 1)
	if err != nil {
		return Distribution{}, err
	}
	hp, err := r.ReadBits(timing.CeilLog2(n))
	if err != nil {
		return Distribution{}, err
	}
	if int(hp) >= n {
		return Distribution{}, fmt.Errorf("wire: hp-node %d outside ring of %d", hp, n)
	}
	d := Distribution{HPNode: int(hp), Granted: grantedSet(results, int(hp), n)}
	d.Granted = d.Granted.Add(d.HPNode) // implicit grant
	acks, err := r.ReadBits(n)
	if err != nil {
		return Distribution{}, err
	}
	d.Acks = ring.NodeSet(acks)
	d.Barrier, err = r.ReadBit()
	if err != nil {
		return Distribution{}, err
	}
	d.Reduce, err = r.ReadBits(64)
	if err != nil {
		return Distribution{}, err
	}
	return d, nil
}

// resultBits packs the distribution packet's N−1 result bits: the grant of
// every node except hp, in ascending node order, first node in the most
// significant of the n−1 low-order bits.
func resultBits(granted ring.NodeSet, hp, n int) uint64 {
	g := uint64(granted)
	below := g & (1<<uint(hp) - 1)
	compact := below | g>>uint(hp+1)<<uint(hp) // drop hp's bit
	return bits.Reverse64(compact) >> uint(65-n)
}

// grantedSet is the inverse of resultBits: it re-associates the N−1 result
// bits with node indices, leaving hp's (implicit) grant unset.
func grantedSet(results uint64, hp, n int) ring.NodeSet {
	compact := bits.Reverse64(results) >> uint(65-n)
	below := compact & (1<<uint(hp) - 1)
	return ring.NodeSet(below | compact>>uint(hp)<<uint(hp+1))
}

// CollectionBits returns the on-wire length in bits of a collection packet
// for a ring of n nodes (matches timing.Params.CollectionBits).
func CollectionBits(n int) int { return 1 + n*(PrioBits+2*n) }

// DistributionBits returns the on-wire length in bits of a distribution
// packet for a ring of n nodes, including the service fields.
func DistributionBits(n int) int {
	return 1 + (n - 1) + timing.CeilLog2(n) + n + 1 + 64
}
