package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Median != 2 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{5, 1, 3}
	if _, err := Summarize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestSummaryString(t *testing.T) {
	s, _ := Summarize([]float64{1, 2, 3})
	out := s.String()
	for _, want := range []string{"n=3", "med=2.0", "min=1.0", "max=3.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = float64(i) // 0..100
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 0}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {-1, 0}, {2, 100},
	} {
		got, err := Quantile(samples, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err != ErrNoSamples {
		t.Error("empty quantile should error")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, _ := Quantile([]float64{0, 10}, 0.25)
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		k := int(n%40) + 1
		samples := make([]float64, k)
		for i := range samples {
			samples[i] = rng.Float64() * 1000
		}
		prev := math.Inf(-1)
		lo, _ := Quantile(samples, 0)
		hi, _ := Quantile(samples, 1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, err := Quantile(samples, q)
			if err != nil || v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 1, 2, 3, 3, 3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Values) != 4 {
		t.Fatalf("distinct values = %d, want 4", len(c.Values))
	}
	cases := map[float64]float64{
		0.5: 0, 1: 2.0 / 7, 1.5: 2.0 / 7, 2: 3.0 / 7, 3: 6.0 / 7, 10: 1, 99: 1,
	}
	for x, want := range cases {
		if got := c.At(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
	if v := c.InverseAt(0.5); v != 3 {
		t.Errorf("InverseAt(0.5) = %v, want 3", v)
	}
	if v := c.InverseAt(1.0); v != 10 {
		t.Errorf("InverseAt(1.0) = %v, want 10", v)
	}
	if _, err := NewCDF(nil); err != ErrNoSamples {
		t.Error("empty CDF should error")
	}
}

func TestCDFTSV(t *testing.T) {
	c, _ := NewCDF([]float64{1, 2})
	out := c.TSV()
	if !strings.Contains(out, "1.0\t0.500000") || !strings.Contains(out, "2.0\t1.000000") {
		t.Errorf("TSV = %q", out)
	}
}

// Property: a CDF is monotone non-decreasing and ends at 1.
func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(n uint8) bool {
		k := int(n%50) + 1
		samples := make([]float64, k)
		for i := range samples {
			samples[i] = math.Floor(rng.Float64() * 20)
		}
		c, err := NewCDF(samples)
		if err != nil {
			return false
		}
		prev := 0.0
		for i := range c.Values {
			if i > 0 && c.Values[i] <= c.Values[i-1] {
				return false
			}
			if c.Cum[i] < prev {
				return false
			}
			prev = c.Cum[i]
		}
		return math.Abs(c.Cum[len(c.Cum)-1]-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "bw"
	s.Append(64, 30.5)
	s.Append(128, 44.0)
	s.Append(256, 50.1)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.YAt(128); got != 44.0 {
		t.Errorf("YAt(128) = %v", got)
	}
	if got := s.YAt(100); got != 44.0 {
		t.Errorf("YAt(100) = %v (first x >= 100 is 128)", got)
	}
	if got := s.YAt(9999); got != 50.1 {
		t.Errorf("YAt(9999) = %v, want last", got)
	}
	tsv := s.TSV()
	if !strings.HasPrefix(tsv, "# bw\n") || !strings.Contains(tsv, "64\t30.5") {
		t.Errorf("TSV = %q", tsv)
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(n uint8) bool {
		k := int(n%100) + 1
		samples := make([]float64, k)
		for i := range samples {
			samples[i] = rng.Float64() * 100
		}
		s, err := Summarize(samples)
		if err != nil {
			return false
		}
		ordered := []float64{s.Min, s.Median, s.P95, s.P99, s.P999, s.Max}
		return sort.Float64sAreSorted(ordered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
