// Package stats computes the summary statistics, distributions and
// series the pcie-bench control programs report: average, median,
// minimum, maximum and tail percentiles of latency samples, CDFs and
// time series (paper §5.4).
package stats

import (
	"errors"
	"fmt"
	"math"
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
// across calls (per-queue latency summaries, sweep probes) avoids the
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
	if len(samples) == 0 {
		return Summary{}, ErrNoSamples
	}
	sorted := sc.sorted(samples)
	var sum, sumsq float64
	for _, v := range sorted {
		sum += v
		sumsq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: quantileSorted(sorted, 0.5),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
		P999:   quantileSorted(sorted, 0.999),
		StdDev: math.Sqrt(variance),
	}, nil
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
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
