// Package stats computes the summary statistics, distributions and
// series the pcie-bench control programs report: average, median,
// minimum, maximum and tail percentiles of latency samples, CDFs and
// time series (paper §5.4).
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// ErrNoSamples is returned when a computation needs at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// Sample is one latency observation in nanoseconds.
type Sample = float64

// Summary holds the descriptive statistics of a sample set.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	Median float64
	P95    float64
	P99    float64
	P999   float64
	StdDev float64
}

// Summarize computes a Summary over samples. The input slice is not
// modified.
func Summarize(samples []Sample) (Summary, error) {
	var sc Scratch
	return sc.Summarize(samples)
}

// Scratch is a reusable sort buffer for summary and quantile
// computations. The zero value is ready to use; reusing one Scratch
// across calls (latency benchmarks, sweep probes) avoids the
// copy-and-sort allocation that Summarize/Quantiles otherwise pay per
// call. A Scratch is not safe for concurrent use.
type Scratch struct {
	buf []float64
}

// sorted copies samples into the scratch buffer and sorts it.
func (sc *Scratch) sorted(samples []Sample) []float64 {
	if cap(sc.buf) < len(samples) {
		sc.buf = make([]float64, len(samples))
	}
	s := sc.buf[:len(samples)]
	copy(s, samples)
	sort.Float64s(s)
	return s
}

// Summarize computes a Summary over samples using the scratch buffer.
// The input slice is not modified. Results are identical to the
// package-level Summarize.
func (sc *Scratch) Summarize(samples []Sample) (Summary, error) {
	return SummarizeRuns(sc.sorted(samples))
}

// SummarizeRuns computes the Summary of the concatenation of runs, each
// already sorted ascending, without copying or merging them: it visits
// the samples in merged order, through a binary min-heap of the runs'
// heads (O(N log k) for k non-empty runs), reading the last run left
// straight through. The runs are not modified.
//
// Every field equals Summarize of the concatenation bit for bit,
// provided equal samples are bit-identical, i.e. no NaN and no mix of
// -0 and +0: the sums and order statistics are then the same
// floating-point operations on the same values in the same order,
// whichever run a tie is taken from. Completion latencies,
// non-negative finite sim.Time nanoseconds, meet this.
func SummarizeRuns(runs ...[]Sample) (Summary, error) {
	var buf [32]runHead
	h := buf[:0]
	n := 0
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, runHead{r[0], r[1:]})
			n += len(r)
		}
	}
	if n == 0 {
		return Summary{}, ErrNoSamples
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	w := newRankWalk(n)
	for len(h) > 1 {
		top := &h[0]
		w.add(top.v)
		if len(top.rest) > 0 {
			top.v, top.rest = top.rest[0], top.rest[1:]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	w.add(h[0].v)
	for _, v := range h[0].rest {
		w.add(v)
	}
	return w.summary(), nil
}

// runHead is a sorted run's smallest unvisited sample and the samples
// after it.
type runHead struct {
	v    float64
	rest []Sample
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []runHead, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].v < h[m].v {
			m = r
		}
		if !(h[m].v < h[i].v) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// summaryQuantiles are the quantiles a Summary reports: Min, Median,
// P95, P99, P999 and Max.
var summaryQuantiles = [...]float64{0, 0.5, 0.95, 0.99, 0.999, 1}

// rankWalk accumulates a Summary over n samples visited in ascending
// order: the sum and sum of squares, and the order statistics the
// summary's quantiles interpolate between.
type rankWalk struct {
	n          int
	sum, sumsq float64
	i          int // rank of the next sample visited
	qs         [len(summaryQuantiles)]quantilePos
	// ranks holds every rank a quantile reads, ascending. It is not in
	// field order: at n = 88, P99 and P999 both read ranks 86 and 87.
	ranks [2 * len(summaryQuantiles)]int
	vals  [2 * len(summaryQuantiles)]float64 // vals[j] is the sample at ranks[j]
	j     int                                // next index into ranks
}

func newRankWalk(n int) rankWalk {
	w := rankWalk{n: n}
	for k, q := range summaryQuantiles {
		p := quantileAt(n, q)
		w.qs[k] = p
		w.ranks[2*k], w.ranks[2*k+1] = p.lo, p.hi
	}
	slices.Sort(w.ranks[:])
	return w
}

// add visits the sample of the next rank, keeping it for every wanted
// rank it is.
func (w *rankWalk) add(v float64) {
	w.sum += v
	w.sumsq += v * v
	for w.j < len(w.ranks) && w.ranks[w.j] == w.i {
		w.vals[w.j] = v
		w.j++
	}
	w.i++
}

// at returns the recorded sample at rank r, one of w.ranks.
func (w *rankWalk) at(r int) float64 {
	j, _ := slices.BinarySearch(w.ranks[:], r)
	return w.vals[j]
}

// summary finishes the walk.
func (w *rankWalk) summary() Summary {
	n := float64(w.n)
	mean := w.sum / n
	variance := w.sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	var qv [len(summaryQuantiles)]float64
	for k, p := range w.qs {
		qv[k] = p.value(w.at(p.lo), w.at(p.hi))
	}
	return Summary{
		N:      w.n,
		Mean:   mean,
		Min:    qv[0],
		Max:    qv[5],
		Median: qv[1],
		P95:    qv[2],
		P99:    qv[3],
		P999:   qv[4],
		StdDev: math.Sqrt(variance),
	}
}

// Quantiles computes several quantiles of samples into dst (grown as
// needed) using the scratch buffer, with the same interpolation as the
// package-level Quantiles. The input slice is not modified.
func (sc *Scratch) Quantiles(dst []float64, samples []Sample, qs ...float64) ([]float64, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	sorted := sc.sorted(samples)
	dst = dst[:0]
	for _, q := range qs {
		dst = append(dst, quantileSorted(sorted, q))
	}
	return dst, nil
}

// String renders the summary in one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%.1f med=%.1f p95=%.1f p99=%.1f p99.9=%.1f max=%.1f",
		s.N, s.Mean, s.Min, s.Median, s.P95, s.P99, s.P999, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of samples using linear
// interpolation between order statistics.
func Quantile(samples []Sample, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// Quantiles returns several quantiles of samples in one pass — the
// input is copied and sorted once, then each quantile is extracted
// with the same interpolation as Quantile. It is the multi-percentile
// counterpart of Quantile for callers that need an arbitrary set;
// Summarize's fixed p50/p95/p99/p99.9 columns are built from the same
// interpolation, and the tests pin the two paths to agree exactly.
func Quantiles(samples []Sample, qs ...float64) ([]float64, error) {
	var sc Scratch
	return sc.Quantiles(make([]float64, 0, len(qs)), samples, qs...)
}

func quantileSorted(sorted []float64, q float64) float64 {
	p := quantileAt(len(sorted), q)
	return p.value(sorted[p.lo], sorted[p.hi])
}

// quantilePos locates the q-quantile of n sorted samples: the ranks of
// the two order statistics it interpolates between and the weight of
// the upper one.
type quantilePos struct {
	lo, hi int
	frac   float64
}

func quantileAt(n int, q float64) quantilePos {
	if q <= 0 {
		return quantilePos{}
	}
	if q >= 1 {
		return quantilePos{lo: n - 1, hi: n - 1}
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	return quantilePos{lo: lo, hi: int(math.Ceil(pos)), frac: pos - float64(lo)}
}

// value interpolates between lo and hi, the samples at p's two ranks.
func (p quantilePos) value(lo, hi float64) float64 {
	if p.lo == p.hi {
		return lo
	}
	return lo*(1-p.frac) + hi*p.frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	// Values are the sorted distinct sample values.
	Values []float64
	// Cum[i] is the fraction of samples <= Values[i].
	Cum []float64
}

// NewCDF builds the empirical CDF of samples.
func NewCDF(samples []Sample) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	c := &CDF{}
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to their final (highest)
		// cumulative fraction.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		c.Values = append(c.Values, sorted[i])
		c.Cum = append(c.Cum, float64(i+1)/n)
	}
	return c, nil
}

// At returns the CDF evaluated at x: the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	i := sort.SearchFloat64s(c.Values, x)
	if i < len(c.Values) && c.Values[i] == x {
		return c.Cum[i]
	}
	if i == 0 {
		return 0
	}
	return c.Cum[i-1]
}

// InverseAt returns the smallest sample value v with CDF(v) >= p.
func (c *CDF) InverseAt(p float64) float64 {
	i := sort.SearchFloat64s(c.Cum, p)
	if i >= len(c.Values) {
		return c.Values[len(c.Values)-1]
	}
	return c.Values[i]
}

// TSV renders the CDF as two tab-separated columns (value, fraction).
func (c *CDF) TSV() string {
	var b strings.Builder
	for i := range c.Values {
		fmt.Fprintf(&b, "%.1f\t%.6f\n", c.Values[i], c.Cum[i])
	}
	return b.String()
}

// Series is an (x, y) data series, e.g. bandwidth against transfer size,
// rendered as TSV for plotting.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// TSV renders the series as tab-separated x/y rows with a header line.
func (s *Series) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for i := range s.X {
		fmt.Fprintf(&b, "%g\t%g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// YAt returns the y value at the first x >= want, or the last y. Series
// X values must be ascending.
func (s *Series) YAt(want float64) float64 {
	for i, x := range s.X {
		if x >= want {
			return s.Y[i]
		}
	}
	return s.Y[len(s.Y)-1]
}
