package wire

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ccredf/internal/ring"
)

func sampleData() DataPacket {
	return DataPacket{
		Version: DataVersion, Class: 3, Src: 2,
		Dests: ring.NodeSetOf(4, 6), MsgID: 0xDEADBEEF,
		Fragment: 3, Total: 7,
		Payload: []byte("the quick brown fox jumps over the lazy dog"),
	}
}

func TestDataRoundtrip(t *testing.T) {
	for _, n := range []int{2, 5, 8, 16, 64} {
		p := sampleData()
		p.Src = 1
		p.Dests = ring.Node(0)
		buf, err := EncodeData(p, n)
		if err != nil {
			t.Fatalf("N=%d encode: %v", n, err)
		}
		got, err := DecodeData(buf, n)
		if err != nil {
			t.Fatalf("N=%d decode: %v", n, err)
		}
		if got.Version != p.Version || got.Class != p.Class || got.Src != p.Src ||
			got.Dests != p.Dests || got.MsgID != p.MsgID ||
			got.Fragment != p.Fragment || got.Total != p.Total ||
			string(got.Payload) != string(p.Payload) {
			t.Fatalf("N=%d roundtrip mismatch: %+v vs %+v", n, got, p)
		}
	}
}

func TestDataCRCDetectsCorruption(t *testing.T) {
	buf, err := EncodeData(sampleData(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i++ {
		corrupted := append([]byte(nil), buf...)
		corrupted[i] ^= 0x40
		if _, err := DecodeData(corrupted, 8); err == nil {
			t.Fatalf("flipping a bit in byte %d went undetected", i)
		}
	}
}

func TestDataCRCErrorMessage(t *testing.T) {
	buf, _ := EncodeData(sampleData(), 8)
	buf[5] ^= 1
	_, err := DecodeData(buf, 8)
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("want CRC error, got %v", err)
	}
}

func TestDataEncodeErrors(t *testing.T) {
	base := sampleData()
	cases := []struct {
		name string
		mut  func(*DataPacket)
	}{
		{"version overflow", func(p *DataPacket) { p.Version = 16 }},
		{"class zero", func(p *DataPacket) { p.Class = 0 }},
		{"class overflow", func(p *DataPacket) { p.Class = 4 }},
		{"src negative", func(p *DataPacket) { p.Src = -1 }},
		{"src outside ring", func(p *DataPacket) { p.Src = 8 }},
		{"dests overflow", func(p *DataPacket) { p.Dests = ring.Node(9) }},
		{"no dests", func(p *DataPacket) { p.Dests = 0 }},
		{"fragment >= total", func(p *DataPacket) { p.Fragment = 7 }},
		{"payload too long", func(p *DataPacket) { p.Payload = make([]byte, 1<<16) }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if _, err := EncodeData(p, 8); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDataDecodeErrors(t *testing.T) {
	if _, err := DecodeData(nil, 8); err == nil {
		t.Error("decoded nil")
	}
	if _, err := DecodeData([]byte{1, 2}, 8); err == nil {
		t.Error("decoded 2 bytes")
	}
	// Truncated but with a recomputed valid CRC: length check must fire.
	buf, _ := EncodeData(sampleData(), 8)
	short := buf[:len(buf)-12] // drop payload tail + crc
	crc := CRC16(short)
	short = append(short, byte(crc>>8), byte(crc))
	if _, err := DecodeData(short, 8); err == nil {
		t.Error("decoded truncated body with forged CRC")
	}
	// Wrong version with valid CRC.
	p := sampleData()
	p.Version = 2
	buf2, err := EncodeData(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeData(buf2, 8); err == nil {
		t.Error("accepted unknown version")
	}
}

func TestDataPacketBits(t *testing.T) {
	// Header fits the documented budget: ≈15 bytes on an 8-node ring.
	bits := DataPacketBits(8, 0)
	if bits != 4+2+6+8+32+16+16+16+16 {
		t.Fatalf("DataPacketBits(8,0) = %d", bits)
	}
	if DataPacketBits(8, 4096) != bits+8*4096 {
		t.Fatal("payload accounting wrong")
	}
	// Header overhead below 0.5% of a 4 KiB slot.
	overhead := float64(bits) / float64(8*4096)
	if overhead > 0.005 {
		t.Fatalf("header overhead %.4f above 0.5%%", overhead)
	}
}

func TestCRC16KnownVectors(t *testing.T) {
	// CRC-16/CCITT-FALSE check value for "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 check value = %04x, want 29b1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Fatalf("CRC16(empty) = %04x, want ffff", got)
	}
}

// crc16Bitwise is the bit-at-a-time CRC-16/CCITT-FALSE definition the
// table-driven CRC16 must reproduce.
func crc16Bitwise(buf []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range buf {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwise(t *testing.T) {
	src := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		buf := make([]byte, src.Intn(5000))
		src.Read(buf)
		if got, want := CRC16(buf), crc16Bitwise(buf); got != want {
			t.Fatalf("%d-byte buffer: CRC16 = %04x, bitwise %04x", len(buf), got, want)
		}
	}
}

func TestDataRoundtripProperty(t *testing.T) {
	n := 8
	f := func(src uint8, dests uint8, msgID uint32, frag, total uint16, payload []byte) bool {
		if total == 0 {
			total = 1
		}
		p := DataPacket{
			Version:  DataVersion,
			Class:    1 + uint8(msgID%3),
			Src:      int(src) % n,
			Dests:    ring.NodeSet(dests),
			MsgID:    msgID,
			Fragment: frag % total,
			Total:    total,
			Payload:  payload,
		}
		if p.Dests == 0 {
			p.Dests = ring.Node((p.Src + 1) % n)
		}
		if len(p.Payload) >= 1<<16 {
			p.Payload = p.Payload[:1<<16-1]
		}
		buf, err := EncodeData(p, n)
		if err != nil {
			return false
		}
		got, err := DecodeData(buf, n)
		if err != nil {
			return false
		}
		return got.MsgID == p.MsgID && got.Fragment == p.Fragment &&
			got.Total == p.Total && string(got.Payload) == string(p.Payload) &&
			got.Dests == p.Dests && got.Src == p.Src && got.Class == p.Class
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeData(b *testing.B) {
	p := sampleData()
	p.Payload = make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeData(p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeData(b *testing.B) {
	p := sampleData()
	p.Payload = make([]byte, 4096)
	buf, _ := EncodeData(p, 8)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeData(buf, 8); err != nil {
			b.Fatal(err)
		}
	}
}
