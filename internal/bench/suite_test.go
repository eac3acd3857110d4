package bench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pciebench/internal/device/netfpga"
)

func TestDefaultSuiteShape(t *testing.T) {
	cfg := DefaultSuite()
	// The paper's control program runs ~2500 individual tests; the
	// default matrix is in that ballpark.
	if n := cfg.Count(); n < 2000 || n > 4000 {
		t.Errorf("suite size = %d, want ~2500", n)
	}
}

// sharedTarget is a factory that hands every cell the same target; it
// is only safe at Workers: 1, where cells run one after another.
func sharedTarget(tgt *Target) TargetFactory {
	return func(int64) (*Target, error) { return tgt, nil }
}

func TestRunSuiteSmall(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 43)
	cfg := SuiteConfig{
		Benchmarks:   []string{"LAT_RD", "BW_RD", "BW_WR"},
		Transfers:    []int{64, 512},
		Windows:      []int{8 << 10, 1 << 20},
		CacheStates:  []CacheState{HostWarm},
		Patterns:     []Pattern{Random},
		Transactions: 200,
	}
	var calls int
	results, err := RunSuiteParallel(context.Background(), sharedTarget(tgt), cfg, SuiteOptions{
		Workers: 1,
		Progress: func(done, total int) {
			calls++
			if total != cfg.Count() {
				t.Errorf("total = %d, want %d", total, cfg.Count())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != cfg.Count() {
		t.Fatalf("results = %d, want %d", len(results), cfg.Count())
	}
	if calls != cfg.Count() {
		t.Errorf("progress calls = %d", calls)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s %s: %v", r.Bench, r.Params, r.Err)
		}
		switch {
		case strings.HasPrefix(r.Bench, "LAT"):
			if r.Summary.Median <= 0 {
				t.Errorf("%s %s: no latency", r.Bench, r.Params)
			}
		default:
			if r.Gbps <= 0 {
				t.Errorf("%s %s: no bandwidth", r.Bench, r.Params)
			}
		}
	}
}

func TestRunSuiteSkipsInvalid(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 47) // 32MB buffer
	cfg := SuiteConfig{
		Benchmarks:   []string{"LAT_RD"},
		Transfers:    []int{64},
		Windows:      []int{64 << 20}, // larger than the buffer
		CacheStates:  []CacheState{Cold},
		Patterns:     []Pattern{Random},
		Transactions: 10,
	}
	results, err := RunSuiteParallel(context.Background(), sharedTarget(tgt), cfg, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Skipped {
		t.Errorf("oversized window not skipped: %+v", results)
	}
}

func TestRunSuiteUnknownBench(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 53)
	cfg := SuiteConfig{
		Benchmarks:  []string{"NOPE"},
		Transfers:   []int{64},
		Windows:     []int{8 << 10},
		CacheStates: []CacheState{Cold},
		Patterns:    []Pattern{Random},
	}
	results, err := RunSuiteParallel(context.Background(), sharedTarget(tgt), cfg, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// parallelSuiteConfig is a small matrix shared by the parallel-suite
// tests: 24 cells across both benchmark families.
func parallelSuiteConfig() SuiteConfig {
	return SuiteConfig{
		Benchmarks:   []string{"LAT_RD", "BW_RD", "BW_WR"},
		Transfers:    []int{64, 512},
		Windows:      []int{8 << 10, 1 << 20},
		CacheStates:  []CacheState{Cold, HostWarm},
		Patterns:     []Pattern{Random},
		Transactions: 100,
	}
}

func TestSuiteCellsOrderStable(t *testing.T) {
	cfg := parallelSuiteConfig()
	cells := cfg.Cells()
	if len(cells) != cfg.Count() {
		t.Fatalf("cells = %d, want %d", len(cells), cfg.Count())
	}
	// Regression: the suite's result order is exactly the Cells order
	// (benchmark-major enumeration), and indices are positional.
	tgt := buildTarget(t, netfpga.Config(), 61)
	results, err := RunSuiteParallel(context.Background(), sharedTarget(tgt), cfg, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if results[i].Bench != c.Bench || results[i].Params != c.Params {
			t.Fatalf("result %d = %s %s, want %s %s",
				i, results[i].Bench, results[i].Params, c.Bench, c.Params)
		}
	}
	if cells[0].Bench != "LAT_RD" || cells[len(cells)-1].Bench != "BW_WR" {
		t.Errorf("enumeration not benchmark-major: %s..%s",
			cells[0].Bench, cells[len(cells)-1].Bench)
	}
}

func TestRunSuiteParallelDeterministic(t *testing.T) {
	cfg := parallelSuiteConfig()
	factory := func(seed int64) (*Target, error) {
		return newTestTarget(netfpga.Config(), seed)
	}
	run := func(workers int) string {
		results, err := RunSuiteParallel(context.Background(), factory, cfg,
			SuiteOptions{Workers: workers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return RenderSuite(results)
	}
	want := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d output differs from workers=1:\n%s\n--- vs ---\n%s",
				workers, got, want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(want), "\n")[1:] {
		if !strings.HasSuffix(line, "ok") {
			t.Errorf("cell not ok: %s", line)
		}
	}
}

func TestRunSuiteParallelProgressAndErrors(t *testing.T) {
	cfg := parallelSuiteConfig()
	factory := func(seed int64) (*Target, error) {
		return newTestTarget(netfpga.Config(), seed)
	}
	var calls int
	last := 0
	results, err := RunSuiteParallel(context.Background(), factory, cfg, SuiteOptions{
		Workers: 4,
		Progress: func(done, total int) {
			calls++
			if total != cfg.Count() || done != last+1 {
				t.Errorf("progress (%d,%d) after %d", done, total, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Count() || len(results) != cfg.Count() {
		t.Errorf("calls = %d, results = %d, want %d", calls, len(results), cfg.Count())
	}

	// A factory failure aborts the run with an error.
	bad := func(int64) (*Target, error) { return nil, errors.New("no hardware") }
	if _, err := RunSuiteParallel(context.Background(), bad, cfg, SuiteOptions{Workers: 2}); err == nil {
		t.Error("factory error not surfaced")
	}

	// Cancellation aborts promptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSuiteParallel(ctx, factory, cfg, SuiteOptions{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v", err)
	}
}

func TestRenderSuite(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 59)
	cfg := SuiteConfig{
		Benchmarks:   []string{"LAT_RD", "BW_RD"},
		Transfers:    []int{64},
		Windows:      []int{8 << 10},
		CacheStates:  []CacheState{HostWarm},
		Patterns:     []Pattern{Random},
		Transactions: 100,
	}
	results, err := RunSuiteParallel(context.Background(), sharedTarget(tgt), cfg, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderSuite(results)
	for _, want := range []string{"bench\twindow", "LAT_RD", "BW_RD", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
