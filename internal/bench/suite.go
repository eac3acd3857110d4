package bench

import (
	"context"
	"fmt"
	"strings"

	"pciebench/internal/runner"
	"pciebench/internal/stats"
)

// SuiteConfig generates the cross-product of micro-benchmark runs the
// paper's control programs execute: "A complete run takes about 4 hours
// and executes around 2500 individual tests" (§5.4). The default
// configuration spans the same axes — benchmark type, transfer size,
// window size, cache state and access pattern — with simulation-sized
// transaction counts.
type SuiteConfig struct {
	Benchmarks   []string // LAT_RD, LAT_WRRD, BW_RD, BW_WR, BW_RDWR
	Transfers    []int
	Windows      []int
	CacheStates  []CacheState
	Patterns     []Pattern
	Transactions int
}

// DefaultSuite returns the paper-shaped test matrix (~2,880 runs).
func DefaultSuite() SuiteConfig {
	return SuiteConfig{
		Benchmarks: []string{"LAT_RD", "LAT_WRRD", "BW_RD", "BW_WR", "BW_RDWR"},
		Transfers:  []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048},
		Windows: []int{
			4 << 10, 16 << 10, 64 << 10, 256 << 10,
			1 << 20, 4 << 20, 16 << 20, 64 << 20,
		},
		CacheStates:  []CacheState{Cold, HostWarm, DeviceWarm},
		Patterns:     []Pattern{Random, Sequential},
		Transactions: 300,
	}
}

// Count returns the number of runs the configuration expands to
// (before invalid-combination skips).
func (c SuiteConfig) Count() int {
	return len(c.Benchmarks) * len(c.Transfers) * len(c.Windows) *
		len(c.CacheStates) * len(c.Patterns)
}

// normalized fills configuration defaults.
func (c SuiteConfig) normalized() SuiteConfig {
	if c.Transactions <= 0 {
		c.Transactions = 300
	}
	return c
}

// Cell is one point of the suite matrix: a benchmark name with its
// fully expanded parameters. Index is the cell's position in the
// deterministic benchmark-major enumeration order; it identifies the
// cell independently of execution order, so per-cell seeds and result
// slots derive from it.
type Cell struct {
	Index  int
	Bench  string
	Params Params
}

// Cells expands the matrix into its deterministic run order
// (benchmark, transfer, window, cache state, pattern — outermost
// first).
func (c SuiteConfig) Cells() []Cell {
	c = c.normalized()
	cells := make([]Cell, 0, c.Count())
	for _, bm := range c.Benchmarks {
		for _, sz := range c.Transfers {
			for _, win := range c.Windows {
				for _, cache := range c.CacheStates {
					for _, pat := range c.Patterns {
						cells = append(cells, Cell{
							Index: len(cells),
							Bench: bm,
							Params: Params{
								WindowSize:   win,
								TransferSize: sz,
								Pattern:      pat,
								Cache:        cache,
								Transactions: c.Transactions,
								Direct:       sz <= 128 && strings.HasPrefix(bm, "LAT"),
							},
						})
					}
				}
			}
		}
	}
	return cells
}

// SuiteResult is the outcome of one run in the suite.
type SuiteResult struct {
	Bench  string
	Params Params
	// Latency benches fill Summary; bandwidth benches fill Gbps.
	Summary stats.Summary
	Gbps    float64
	Skipped bool
	Err     error
}

// TargetFactory builds an independent benchmark target for one suite
// cell. The seed drives all simulation randomness of that target; the
// factory must not hand the same simulator instance to two cells, since
// cells run concurrently.
type TargetFactory func(seed int64) (*Target, error)

// SuiteOptions tunes a RunSuiteParallel call.
type SuiteOptions struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Seed is the base seed from which every cell derives its own
	// deterministic seed (0 uses 1, matching sysconf.Options).
	Seed int64
	// Progress, when non-nil, receives (done, total) after every cell;
	// calls are serialized.
	Progress func(done, total int)
}

// RunSuiteParallel executes the matrix across a worker pool. Each cell
// builds its own target from factory with a seed derived from the base
// seed and the cell index, so results are byte-identical for every
// worker count. The result slice is in Cells order. Per-cell benchmark
// failures are reported in the cell's SuiteResult, and invalid
// combinations (window smaller than a unit, window larger than the
// buffer) as skipped rather than failing the suite; a factory error or
// context cancellation aborts the run.
func RunSuiteParallel(ctx context.Context, factory TargetFactory, cfg SuiteConfig, opt SuiteOptions) ([]SuiteResult, error) {
	base := opt.Seed
	if base == 0 {
		base = 1
	}
	return runner.Map(ctx, cfg.Cells(),
		runner.Options{Workers: opt.Workers, Progress: opt.Progress},
		func(ctx context.Context, _ int, c Cell) (SuiteResult, error) {
			t, err := factory(runner.Seed(base, c.Index))
			if err != nil {
				return SuiteResult{}, fmt.Errorf("bench: cell %d (%s %s): target: %w", c.Index, c.Bench, c.Params, err)
			}
			return runOne(t, c.Bench, c.Params), nil
		})
}

func runOne(t *Target, bm string, p Params) SuiteResult {
	res := SuiteResult{Bench: bm, Params: p}
	if err := p.Validate(t.Buffer.Size); err != nil {
		res.Skipped = true
		res.Err = err
		return res
	}
	switch bm {
	case "LAT_RD", "LAT_WRRD":
		run := LatRd
		if bm == "LAT_WRRD" {
			run = LatWrRd
		}
		out, err := run(t, p)
		if err != nil {
			res.Err = err
			return res
		}
		res.Summary = out.Summary
	case "BW_RD", "BW_WR", "BW_RDWR":
		run := BwRd
		switch bm {
		case "BW_WR":
			run = BwWr
		case "BW_RDWR":
			run = BwRdWr
		}
		out, err := run(t, p)
		if err != nil {
			res.Err = err
			return res
		}
		res.Gbps = out.Gbps
	default:
		res.Err = fmt.Errorf("bench: unknown benchmark %q", bm)
	}
	return res
}

// RenderSuite formats suite results as a TSV report, one line per run.
func RenderSuite(results []SuiteResult) string {
	var b strings.Builder
	b.WriteString("bench\twindow\txfer\tpattern\tcache\tmedian_ns\tgbps\tstatus\n")
	for _, r := range results {
		status := "ok"
		if r.Skipped {
			status = "skipped"
		} else if r.Err != nil {
			status = "error: " + r.Err.Error()
		}
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s\t%s\t%.1f\t%.2f\t%s\n",
			r.Bench, r.Params.WindowSize, r.Params.TransferSize,
			r.Params.Pattern, r.Params.Cache, r.Summary.Median, r.Gbps, status)
	}
	return b.String()
}
