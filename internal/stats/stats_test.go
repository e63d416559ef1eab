package stats

import (
	"math"
	"slices"
	"strings"
	"testing"

	"ccredf/internal/rng"
	"ccredf/internal/timing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []timing.Time{10, 20, 30, 40, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d", h.Count())
	}
	if h.Mean() != 30 {
		t.Fatalf("Mean() = %v, want 30", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Quantile(0.5) != 30 {
		t.Fatalf("p50 = %v, want 30", h.Quantile(0.5))
	}
	if h.Quantile(0) != 10 || h.Quantile(1) != 50 {
		t.Fatalf("p0/p100 = %v/%v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.StdDev() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramStdDev(t *testing.T) {
	h := NewHistogram()
	for _, v := range []timing.Time{2000, 4000, 4000, 4000, 5000, 5000, 7000, 9000} {
		h.Observe(v)
	}
	// Sample stddev of the classic set {2,4,4,4,5,5,7,9} is ~2.138, scaled
	// by 1000 here because StdDev truncates to integer picoseconds.
	got := float64(h.StdDev())
	if math.Abs(got-2138) > 1 {
		t.Fatalf("StdDev() = %v, want ≈2138", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%v count=%d", h.Min(), h.Count())
	}
}

func TestHistogramBucketQuantile(t *testing.T) {
	var h Histogram // no retained samples
	for i := 0; i < 1000; i++ {
		h.Observe(timing.Time(1000))
	}
	q := h.Quantile(0.5)
	// Bucket upper bound for 1000 is 1024.
	if q != 1024 {
		t.Fatalf("bucket p50 = %v, want 1024", q)
	}
}

func TestHistogramQuantileClampsQ(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	if h.Quantile(-1) != 5 || h.Quantile(2) != 5 {
		t.Fatal("out-of-range q not clamped")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 10; i++ {
		a.Observe(timing.Time(i))
	}
	for i := 11; i <= 20; i++ {
		b.Observe(timing.Time(i))
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Fatalf("merged Count() = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 20 {
		t.Fatalf("merged Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 10 { // mean of 1..20 = 10.5, truncated to 10
		t.Fatalf("merged Mean() = %v", a.Mean())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 20 {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	src := rng.New(5)
	for i := 0; i < 2000; i++ {
		h.Observe(timing.Time(src.Intn(1_000_000)))
	}
	prev := timing.Time(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(timing.Microsecond)
	s := h.Summary()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "µs") {
		t.Fatalf("Summary() = %q", s)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value() = %d", c.Value())
	}
	if got := c.Rate(timing.Second); got != 5 {
		t.Fatalf("Rate(1s) = %v", got)
	}
	if got := c.Rate(0); got != 0 {
		t.Fatalf("Rate(0) = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != 0.25 {
		t.Fatal("Ratio(1,4)")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio(1,0) should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Example", "N", "U_max", "note")
	tab.AddRow(8, 0.9532, "ok")
	tab.AddRow(16, 0.0001234, "tiny")
	out := tab.String()
	if !strings.Contains(out, "## Example") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "0.9532") {
		t.Errorf("missing float cell:\n%s", out)
	}
	if !strings.Contains(out, "0.000123") {
		t.Errorf("small float not in scientific/compact form:\n%s", out)
	}
	if tab.Rows() != 2 {
		t.Errorf("Rows() = %d", tab.Rows())
	}
	if tab.Cell(0, 0) != "8" {
		t.Errorf("Cell(0,0) = %q", tab.Cell(0, 0))
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		0.25:    "0.25",
		1234567: "1.23e+06",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	if bucketOf(0) != 0 {
		t.Fatal("bucketOf(0)")
	}
	if bucketOf(1) != 1 {
		t.Fatal("bucketOf(1)")
	}
	if bucketOf(1023) != 10 {
		t.Fatalf("bucketOf(1023) = %d", bucketOf(1023))
	}
	if bucketOf(1024) != 11 {
		t.Fatalf("bucketOf(1024) = %d", bucketOf(1024))
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(timing.Time(i))
	}
}

// refQuantile is the copy-and-sort definition of an exact quantile over the
// clamped samples.
func refQuantile(samples []timing.Time, q float64) timing.Time {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

// randSample draws a latency from a mix of scales: mostly below 2³² ps,
// some at and above it (the wide store), some negative (clamped to 0).
func randSample(src *rng.Source) timing.Time {
	switch src.Intn(6) {
	case 0:
		return -timing.Time(src.Intn(1000))
	case 1:
		return 1<<32 - 2 + timing.Time(src.Intn(4))
	case 2:
		return timing.Time(src.Uint64() >> 1)
	default:
		return timing.Time(src.Intn(1 << 32))
	}
}

var testQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

func checkQuantiles(t *testing.T, h *Histogram, ref []timing.Time, what string) {
	t.Helper()
	for _, q := range testQuantiles {
		if got, want := h.Quantile(q), refQuantile(ref, q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, copy-and-sort %d", what, q, got, want)
		}
	}
}

func clampNeg(v timing.Time) timing.Time { return max(v, 0) }

// TestHistogramQuantileExact checks the compact sample store against the
// copy-and-sort definition: random samples of every scale, merged
// histograms, and Observe calls interleaved with Quantile calls.
func TestHistogramQuantileExact(t *testing.T) {
	src := rng.New(11)
	for round := 0; round < 50; round++ {
		h, ref := NewHistogram(), []timing.Time(nil)
		size, draw := 1+src.Intn(3000), randSample
		switch round % 5 {
		case 0: // several sealed blocks of distinct samples
			size = 1 + src.Intn(5*sampleBlock)
		case 1: // several sealed blocks of heavily repeated samples (run-coded)
			size = 1 + src.Intn(5*sampleBlock)
			draw = func(src *rng.Source) timing.Time {
				if src.Intn(100) == 0 {
					return randSample(src)
				}
				return timing.Time(src.Intn(40)) * timing.Nanosecond
			}
		case 2: // several sealed blocks of wide samples: latencies of a few
			// milliseconds, some a few picoseconds apart, some far apart
			size = 1 + src.Intn(5*sampleBlock)
			draw = func(src *rng.Source) timing.Time {
				switch src.Intn(4) {
				case 0:
					return randSample(src)
				case 1:
					return 1<<32 + timing.Time(src.Intn(300))
				}
				return timing.Time(src.Intn(10)) * timing.Millisecond
			}
		}
		for i := 0; i < size; i++ {
			v := draw(src)
			h.Observe(v)
			ref = append(ref, clampNeg(v))
		}
		checkQuantiles(t, h, ref, "random")

		other, otherRef := NewHistogram(), []timing.Time(nil)
		otherSize := src.Intn(500)
		if round%5 < 3 {
			otherSize = src.Intn(3 * sampleBlock)
		}
		for i := 0; i < otherSize; i++ {
			v := draw(src)
			other.Observe(v)
			otherRef = append(otherRef, clampNeg(v))
		}
		h.Merge(other)
		ref = append(ref, otherRef...)
		checkQuantiles(t, h, ref, "merged")

		for i := 0; i < 200; i++ {
			v := randSample(src)
			h.Observe(v)
			ref = append(ref, clampNeg(v))
			if i%17 == 0 {
				checkQuantiles(t, h, ref, "interleaved")
			}
		}
		checkQuantiles(t, h, ref, "interleaved")
		if int64(len(ref)) != h.Count() {
			t.Fatalf("Count = %d, want %d", h.Count(), len(ref))
		}
	}
}

// TestSealedBlockSize pins the point of the sealed encoding: samples a few
// microseconds apart cost under three bytes each once sealed, not the four
// (or eight, from 2³² ps up) of a raw array.
func TestSealedBlockSize(t *testing.T) {
	src := rng.New(3)
	for _, base := range []timing.Time{0, 5 * timing.Millisecond} {
		var s samples
		for i := 0; i < 8*sampleBlock; i++ {
			s.add(base + timing.Time(src.Intn(100))*timing.Microsecond)
		}
		bytes := 0
		for _, b := range s.sealed {
			bytes += cap(b.data) + 8*cap(b.skip) + 2*cap(b.off) + 8
		}
		if per := float64(bytes) / float64(len(s.sealed)*sampleBlock); per >= 3 {
			t.Fatalf("base %d: sealed samples cost %.2f bytes each, want < 3", base, per)
		}
	}
}

// TestHistogramQuantileNoAlloc checks that Quantile sorts in place: it
// allocates nothing, whether it has new samples to sort or not.
func TestHistogramQuantileNoAlloc(t *testing.T) {
	h := NewHistogram()
	src := rng.New(5)
	for i := 0; i < 10000; i++ {
		h.Observe(randSample(src))
	}
	h.Quantile(0.5)
	allocs := testing.AllocsPerRun(50, func() {
		h.samples.dirty = true // as after new samples: the next Quantile sorts
		h.Quantile(0.99)
		h.Quantile(0.5)
	})
	if allocs != 0 {
		t.Fatalf("Quantile allocates %v times per call pair, want 0", allocs)
	}
}
