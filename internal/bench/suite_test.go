package bench_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pciebench/internal/bench"
	"pciebench/internal/sweep"
)

// The §5.4 suite (pcie-bench -suite) runs this package's micro-benchmarks
// as the cells of a sweep grid, bench × transfer × window × cache ×
// pattern, on sweep.Engine. These tests run trimmed copies of that grid;
// cmd/pcie-bench tests the full spec and its TSV report.

// suiteGrid is a suite-shaped spec over the given axis values with the
// suite's base keys (direct on every cell) at n transactions.
func suiteGrid(benches, transfers, windows, caches []string, n string) *sweep.Spec {
	return &sweep.Spec{
		Name: "suite",
		Axes: []sweep.Axis{
			sweep.StrAxis("bench", benches...),
			sweep.StrAxis("transfer", transfers...),
			sweep.StrAxis("window", windows...),
			sweep.StrAxis("cache", caches...),
			sweep.StrAxis("pattern", "rand"),
		},
		Base: map[string]string{"system": "NetFPGA-HSW", "n": n, "direct": "true"},
		Seed: 7,
	}
}

// parallelSuiteGrid is the 24-cell grid shared by the order tests: both
// benchmark families, two transfers, two windows, two cache states.
func parallelSuiteGrid() *sweep.Spec {
	return suiteGrid([]string{"lat_rd", "bw_rd", "bw_wr"}, []string{"64", "512"},
		[]string{"8192", "1048576"}, []string{"cold", "warm"}, "100")
}

// isLatency reports whether a suite cell runs a latency benchmark.
func isLatency(c sweep.Cell) bool { return strings.HasPrefix(c.Get("bench"), "lat_") }

// TestRunSuiteSmall: every cell of a small grid runs, latency cells
// yield a median and bandwidth cells a rate, and progress reports each
// cell against the grid's size.
func TestRunSuiteSmall(t *testing.T) {
	s := suiteGrid([]string{"lat_rd", "bw_rd", "bw_wr"}, []string{"64", "512"},
		[]string{"8192", "1048576"}, []string{"warm"}, "200")
	var calls int
	e := &sweep.Engine{Workers: 1, Progress: func(done, total int) {
		calls++
		if total != s.Count() {
			t.Errorf("total = %d, want %d", total, s.Count())
		}
	}}
	res, _, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != s.Count() {
		t.Fatalf("results = %d, want %d", len(res.Cells), s.Count())
	}
	if calls != s.Count() {
		t.Errorf("progress calls = %d", calls)
	}
	for _, r := range res.Cells {
		m := r.Meas[0]
		if isLatency(r.Cell) && m.Median <= 0 {
			t.Errorf("%v: no latency", r.Cell.Coord)
		}
		if !isLatency(r.Cell) && m.Gbps <= 0 {
			t.Errorf("%v: no bandwidth", r.Cell.Coord)
		}
	}
}

// TestRunSuiteSkipsInvalid: a window larger than the host buffer is
// never run. The spec fails validation with the benchmark's own error
// before any cell executes, so the suite fails rather than printing a
// skipped row.
func TestRunSuiteSkipsInvalid(t *testing.T) {
	s := suiteGrid([]string{"lat_rd"}, []string{"64"}, []string{"8192", "67108864"}, []string{"cold"}, "10")
	s.Base["buffer"] = "32M"
	if err := s.Validate(); !errors.Is(err, bench.ErrBufferTooSmall) {
		t.Fatalf("Validate = %v, want %v", err, bench.ErrBufferTooSmall)
	}
	var calls int
	e := &sweep.Engine{Workers: 1, Progress: func(int, int) { calls++ }}
	_, st, err := e.Run(context.Background(), s)
	if !errors.Is(err, bench.ErrBufferTooSmall) {
		t.Errorf("Run = %v, want %v", err, bench.ErrBufferTooSmall)
	}
	if st.Executed != 0 || calls != 0 {
		t.Errorf("oversized window ran: executed %d, progress calls %d", st.Executed, calls)
	}
}

// TestRunSuiteUnknownBench: an unknown benchmark name is rejected before
// any cell executes.
func TestRunSuiteUnknownBench(t *testing.T) {
	s := suiteGrid([]string{"lat_rd", "nope"}, []string{"64"}, []string{"8192"}, []string{"cold"}, "10")
	var calls int
	e := &sweep.Engine{Workers: 1, Progress: func(int, int) { calls++ }}
	_, st, err := e.Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Errorf("unknown benchmark accepted: %v", err)
	}
	if st.Executed != 0 || calls != 0 {
		t.Errorf("cells ran: executed %d, progress calls %d", st.Executed, calls)
	}
}

// TestSuiteCellsOrderStable: results come back in Cells order
// (benchmark-major enumeration, positional indices) under a parallel
// pool, so cell i always runs from the seed of index i.
func TestSuiteCellsOrderStable(t *testing.T) {
	s := parallelSuiteGrid()
	cells := s.Cells()
	if len(cells) != s.Count() {
		t.Fatalf("cells = %d, want %d", len(cells), s.Count())
	}
	res, _, err := (&sweep.Engine{Workers: 4}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if got := res.Cells[i].Cell; got.Index != i || !slices.Equal(got.Coord, c.Coord) {
			t.Fatalf("result %d = cell %d %v, want %v", i, got.Index, got.Coord, c.Coord)
		}
	}
	if cells[0].Get("bench") != "lat_rd" || cells[len(cells)-1].Get("bench") != "bw_wr" {
		t.Errorf("enumeration not benchmark-major: %s..%s",
			cells[0].Get("bench"), cells[len(cells)-1].Get("bench"))
	}
}

// TestRenderSuite: a suite-shaped result renders one row per cell, the
// cell's coordinates then one value column holding the latency
// benchmark's median or the bandwidth benchmark's rate. Each measurement
// leaves the other family's field zero, which the -suite report prints
// in its median_ns and gbps columns.
func TestRenderSuite(t *testing.T) {
	s := suiteGrid([]string{"lat_rd", "bw_rd"}, []string{"64"}, []string{"8192"}, []string{"warm"}, "100")
	res, _, err := (&sweep.Engine{Workers: 1}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	emit, err := sweep.EmitterFor("tsv")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := emit(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2+len(res.Cells) {
		t.Fatalf("%d lines, want a title, a header and %d rows:\n%s", len(lines), len(res.Cells), out.String())
	}
	if lines[1] != "bench\ttransfer\twindow\tcache\tpattern\tvalue" {
		t.Errorf("header = %q", lines[1])
	}
	for i, r := range res.Cells {
		m := r.Meas[0]
		value, other := m.Gbps, m.Median
		if isLatency(r.Cell) {
			value, other = m.Median, m.Gbps
		}
		want := strings.Join(append(slices.Clone(r.Cell.Coord), strconv.FormatFloat(value, 'f', 3, 64)), "\t")
		if lines[2+i] != want || value <= 0 || other != 0 {
			t.Errorf("row %d = %q (median %v, gbps %v), want %q", i, lines[2+i], m.Median, m.Gbps, want)
		}
	}
}
