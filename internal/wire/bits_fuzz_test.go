package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// bitOp is one step of a FuzzBits program.
type bitOp struct {
	kind  byte // 0 WriteBit, 1 WriteBits, 2 AppendBytes (after zero-padding to a byte boundary)
	v     uint64
	width int
	raw   []byte
}

// parseBitOps decodes a fuzz input into writer operations. Every byte
// sequence is a valid program; a short tail ends it.
func parseBitOps(prog []byte) []bitOp {
	var ops []bitOp
	for len(prog) >= 2 {
		op := bitOp{kind: prog[0] % 3}
		switch op.kind {
		case 0:
			op.v, op.width = uint64(prog[1]&1), 1
			prog = prog[2:]
		case 1:
			op.width = int(prog[1]) % 65
			prog = prog[2:]
			var b [8]byte
			prog = prog[copy(b[:], prog):]
			op.v = binary.BigEndian.Uint64(b[:])
		case 2:
			k := min(int(prog[1])%9, len(prog)-2)
			op.raw = prog[2 : 2+k]
			prog = prog[2+k:]
		}
		ops = append(ops, op)
	}
	return ops
}

// refBits is the per-bit reference model: one bool per written bit.
type refBits []bool

func (r *refBits) write(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		*r = append(*r, v>>uint(i)&1 == 1)
	}
}

func (r refBits) pack() []byte {
	out := make([]byte, (len(r)+7)/8)
	for i, b := range r {
		if b {
			out[i/8] |= 0x80 >> uint(i%8)
		}
	}
	return out
}

// refRead is the per-bit reference reader: width ReadBit calls, failing at
// the first bit past the end exactly as a bit-serial receiver would.
func refRead(r *Reader, width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

// FuzzBits drives Writer and Reader with random sequences of WriteBit,
// WriteBits (widths 0–64) and aligned AppendBytes, and checks the byte-wide
// codec against a per-bit reference: packed bytes, Len, read-back values,
// and — on a buffer cut short — the read at which truncation strikes and
// the position it leaves behind. Bytes is also checked mid-stream, between
// writes.
func FuzzBits(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 1, 1, 5, 0xAB, 1, 64, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(3))
	f.Add([]byte{1, 3, 0xE0, 2, 4, 'a', 'b', 'c', 'd', 1, 63, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(7))
	f.Add([]byte{1, 0, 1, 64, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0}, uint16(9))
	f.Add([]byte{1, 7, 0x7F, 0, 0, 0, 0, 0, 0, 0, 1, 60, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 57, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(5))
	f.Fuzz(func(t *testing.T, prog []byte, cut uint16) {
		ops := parseBitOps(prog)
		// Start from a reset writer whose buffer holds stale ones: packing
		// must never pick up bytes past the written length.
		var w Writer
		w.AppendBytes(bytes.Repeat([]byte{0xFF}, 32))
		w.Reset()
		var ref refBits
		for i, op := range ops {
			switch op.kind {
			case 0:
				w.WriteBit(op.v == 1)
				ref.write(op.v, 1)
			case 1:
				w.WriteBits(op.v, op.width)
				ref.write(op.v, op.width)
			case 2:
				pad := (8 - w.Len()%8) % 8
				w.WriteBits(0, pad)
				ref.write(0, pad)
				w.AppendBytes(op.raw)
				for _, b := range op.raw {
					ref.write(uint64(b), 8)
				}
			}
			if w.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", w.Len(), len(ref))
			}
			// Bytes is valid mid-stream, and writing continues after it
			// (the data-packet encoder checksums its header this way).
			// The cut value's bits choose where to look.
			if cut>>uint(i%16)&1 == 1 {
				if want := ref.pack(); !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("after op %d: bytes %x, reference %x", i, w.Bytes(), want)
				}
			}
		}
		if want := ref.pack(); !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("bytes %x, reference %x", w.Bytes(), want)
		}

		// Read the program back from the full buffer and from a copy cut
		// short; the byte-wide reader must match the per-bit reader call
		// for call.
		full := w.Bytes()
		short := full[:int(cut)%(len(full)+1)]
		for _, buf := range [][]byte{full, short} {
			fast, slow := NewReader(buf), NewReader(buf)
			for i, op := range ops {
				width := op.width
				if op.kind == 2 {
					width = (8-(8*len(buf)-fast.Remaining())%8)%8 + 8*len(op.raw)
				}
				got, gotErr := fast.ReadBits(width)
				want, wantErr := refRead(slow, width)
				if got != want || (gotErr == nil) != (wantErr == nil) || fast.Remaining() != slow.Remaining() {
					t.Fatalf("op %d (%+v) on %d-byte buffer: ReadBits = %x, %v (remaining %d); reference %x, %v (remaining %d)",
						i, op, len(buf), got, gotErr, fast.Remaining(), want, wantErr, slow.Remaining())
				}
				if len(buf) == len(full) && op.kind != 2 && got != op.v&(1<<uint(width)-1) {
					t.Fatalf("op %d: read back %x, wrote %x", i, got, op.v)
				}
			}
		}
	})
}
