// Package stats collects simulation metrics: counters, latency histograms
// with logarithmic buckets, per-connection deadline accounting and simple
// table formatting used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"ccredf/internal/timing"
)

// Histogram accumulates timing.Time samples in logarithmic buckets
// (powers of two of picoseconds) plus exact running moments. The zero value
// is ready to use.
//
// With Retain set it also keeps every sample, compactly (see samples), for
// exact quantiles. Quantile sorts the retained samples in place, so a copy
// of a Histogram that has samples shares them with the original; pass
// histograms by pointer.
type Histogram struct {
	count   int64
	sum     float64
	sumSq   float64
	min     timing.Time
	max     timing.Time
	buckets [64]int64
	samples samples // retained when Retain is set, for exact quantiles
	Retain  bool
}

// NewHistogram returns a Histogram that retains raw samples for exact
// quantiles. For very long runs construct the zero value instead and accept
// bucket-resolution quantiles.
func NewHistogram() *Histogram { return &Histogram{Retain: true} }

// Observe records one sample. Negative samples are clamped to zero (they can
// only arise from caller bugs; clamping keeps the histogram total consistent
// while the caller's own tests catch the bug).
func (h *Histogram) Observe(v timing.Time) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	f := float64(v)
	h.sum += f
	h.sumSq += f * f
	h.buckets[bucketOf(v)]++
	if h.Retain {
		h.samples.add(v)
	}
}

// bucketOf returns the smallest i with v < 2^i (0 for v ≤ 0).
func bucketOf(v timing.Time) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() timing.Time {
	if h.count == 0 {
		return 0
	}
	return timing.Time(h.sum / float64(h.count))
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() timing.Time { return h.min }

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() timing.Time { return h.max }

// StdDev returns the sample standard deviation, or 0 with fewer than two
// samples.
func (h *Histogram) StdDev() timing.Time {
	if h.count < 2 {
		return 0
	}
	n := float64(h.count)
	variance := (h.sumSq - h.sum*h.sum/n) / (n - 1)
	if variance < 0 {
		variance = 0
	}
	return timing.Time(math.Sqrt(variance))
}

// Quantile returns the q-quantile (q in [0,1]). With retained samples it is
// exact; otherwise it is the upper bound of the bucket containing the
// quantile. It returns 0 with no samples.
//
// Quantile sorts the retained samples in place (once per batch of new
// samples) and allocates nothing, so it mutates the histogram: it is not
// safe to call concurrently, not even with other Quantile calls.
func (h *Histogram) Quantile(q float64) timing.Time {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if h.Retain {
		h.samples.sort()
		return h.samples.at(int(q * float64(h.samples.len()-1)))
	}
	target := int64(q * float64(h.count-1))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			if i == 0 {
				return 0
			}
			return 1 << uint(i)
		}
	}
	return h.max
}

// Merge adds every sample of other into h (bucket-wise; raw samples are
// merged when both retain them).
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	h.sumSq += other.sumSq
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	if h.Retain && other.Retain {
		h.samples.merge(&other.samples)
	}
}

// Summary formats count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Counter is a monotonically increasing event count with a helper for rates.
type Counter struct {
	n int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Rate returns counts per second of simulated time, or 0 when elapsed ≤ 0.
func (c *Counter) Rate(elapsed timing.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.n) / elapsed.Seconds()
}

// Ratio returns a/b as a float, or 0 when b is zero.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Table is a simple fixed-column text table used by the experiment harness
// to print paper-style result tables.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	aligned bool
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000 || math.Abs(v) < 0.001:
		return fmt.Sprintf("%.3g", v)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	}
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hcell := range t.header {
		widths[i] = len([]rune(hcell))
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len([]rune(cell)); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
