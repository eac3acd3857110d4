package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSummarize is the Summary arithmetic this package used before
// SummarizeRuns: every order statistic is read by index from the sorted
// samples. It is kept as the oracle that the rank walk, which serves
// Summarize and SummarizeRuns alike, must match bit for bit.
func refSummarize(sorted []float64) Summary {
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
	}
}

// sameBits reports whether two summaries agree field by field, bit for
// bit, and names the first field that does not.
func sameBits(a, b Summary) (string, bool) {
	if a.N != b.N {
		return "N", false
	}
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"Mean", a.Mean, b.Mean}, {"Min", a.Min, b.Min}, {"Max", a.Max, b.Max},
		{"Median", a.Median, b.Median}, {"P95", a.P95, b.P95}, {"P99", a.P99, b.P99},
		{"P999", a.P999, b.P999}, {"StdDev", a.StdDev, b.StdDev},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return f.name, false
		}
	}
	return "", true
}

// Bounds of one fuzz input: at most maxFuzzRuns runs of at most
// maxFuzzRun samples each.
const (
	maxFuzzRuns = 64
	maxFuzzRun  = 2048
)

// fuzzRuns decodes sorted latency runs. Each 2-byte little-endian group
// of lens is one run's length (mod maxFuzzRun+1); every sample is
// levels+1 distinct values wide, stepPS picoseconds apart, in ns as
// sim.Time.Nanoseconds gives it, drawn from seed. A small levels gives
// heavy duplicates within and across runs; levels or stepPS 0 makes
// every sample 0.
func fuzzRuns(lens []byte, seed int64, levels, stepPS uint16) [][]Sample {
	rng := rand.New(rand.NewSource(seed))
	runs := make([][]Sample, min(len(lens)/2, maxFuzzRuns))
	for i := range runs {
		r := make([]Sample, int(binary.LittleEndian.Uint16(lens[2*i:]))%(maxFuzzRun+1))
		for j := range r {
			ps := int64(rng.Intn(int(levels)+1)) * int64(stepPS)
			r[j] = float64(ps) / 1000
		}
		sort.Float64s(r)
		runs[i] = r
	}
	return runs
}

// checkRuns holds SummarizeRuns over runs to Summarize of their
// concatenation and to the index-reading oracle.
func checkRuns(t *testing.T, runs [][]Sample) {
	t.Helper()
	var all []Sample
	for _, r := range runs {
		all = append(all, r...)
	}
	got, gerr := SummarizeRuns(runs...)
	want, werr := Summarize(all)
	if len(all) == 0 {
		if gerr != ErrNoSamples || werr != ErrNoSamples {
			t.Fatalf("no samples: SummarizeRuns err %v, Summarize err %v, want ErrNoSamples", gerr, werr)
		}
		return
	}
	if gerr != nil || werr != nil {
		t.Fatalf("%d samples in %d runs: SummarizeRuns err %v, Summarize err %v", len(all), len(runs), gerr, werr)
	}
	if f, ok := sameBits(got, want); !ok {
		t.Fatalf("%d samples in %d runs: SummarizeRuns %s differs from Summarize:\n got %+v\nwant %+v", len(all), len(runs), f, got, want)
	}
	sort.Float64s(all)
	if f, ok := sameBits(got, refSummarize(all)); !ok {
		t.Fatalf("%d samples in %d runs: %s differs from the indexed oracle:\n got %+v\nwant %+v", len(all), len(runs), f, got, refSummarize(all))
	}
}

// FuzzSummarizeRunsMatchesSummarize holds the merged-order walk to a
// sort of the concatenation, bit for bit. The seed corpus
// (testdata/fuzz/FuzzSummarizeRunsMatchesSummarize) has n = 88, where
// P99 and P999 read the same two ranks, a single run, one non-empty run
// among empty ones, one sample, heavy duplicates across 64 runs, and 16
// runs of 2,000 shaped like a 16-endpoint fabric batch.
func FuzzSummarizeRunsMatchesSummarize(f *testing.F) {
	f.Fuzz(func(t *testing.T, lens []byte, seed int64, levels, stepPS uint16) {
		checkRuns(t, fuzzRuns(lens, seed, levels, stepPS))
	})
}

// TestSummarizeRunsMatchesSummarize runs 300 random shapes through the
// fuzz target's check: up to 24 runs, empty ones included, of up to 300
// samples from 1 to 4,000 distinct values.
func TestSummarizeRunsMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		lens := make([]byte, 2*rng.Intn(25))
		for i := 0; i < len(lens); i += 2 {
			if rng.Intn(4) > 0 {
				binary.LittleEndian.PutUint16(lens[i:], uint16(rng.Intn(301)))
			}
		}
		checkRuns(t, fuzzRuns(lens, rng.Int63(), uint16(rng.Intn(4000)), uint16(1+rng.Intn(8))))
	}
}

// Every n up to 300 through one run and through n runs of one sample,
// so each rank pattern the four quantiles can read is visited.
func TestSummarizeRunsEveryCount(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for n := 1; n <= 300; n++ {
		all := make([]Sample, n)
		for i := range all {
			all[i] = float64(rng.Intn(2*n)) / 1000
		}
		sort.Float64s(all)
		checkRuns(t, [][]Sample{all})
		singles := make([][]Sample, n)
		for i := range singles {
			singles[i] = all[i : i+1]
		}
		rng.Shuffle(n, func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
		checkRuns(t, singles)
	}
}

func TestSummarizeRunsDoesNotMutate(t *testing.T) {
	a, b := []Sample{1, 4, 9}, []Sample{2, 3, 10}
	if _, err := SummarizeRuns(a, nil, b); err != nil {
		t.Fatal(err)
	}
	if a[0] != 1 || a[1] != 4 || a[2] != 9 || b[0] != 2 || b[1] != 3 || b[2] != 10 {
		t.Errorf("runs mutated: %v %v", a, b)
	}
	if _, err := SummarizeRuns(); err != ErrNoSamples {
		t.Errorf("no runs: err = %v, want ErrNoSamples", err)
	}
	if _, err := SummarizeRuns(nil, []Sample{}); err != ErrNoSamples {
		t.Errorf("empty runs: err = %v, want ErrNoSamples", err)
	}
}
