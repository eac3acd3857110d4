package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pciebench/internal/sweep"
)

// smallSuite trims the -suite spec to a fast 24-cell grid that keeps
// both benchmark families, the suite's base keys and its seeding.
func smallSuite(seed int64) *sweep.Spec {
	s := suiteSpec("NetFPGA-HSW", false, "", false, seed)
	s.Axes[0].Values = []string{"lat_rd", "bw_rd", "bw_wr"}
	s.Axes[1].Values = []string{"64", "512"}
	s.Axes[2].Values = []string{"8192", "1048576"}
	s.Axes[3].Values = []string{"cold", "warm"}
	s.Axes[4].Values = []string{"rand"}
	s.Base["n"] = "100"
	return s
}

// runSmallSuite runs a suite at GOMAXPROCS workers, the engine's pool
// size.
func runSmallSuite(ctx context.Context, s *sweep.Spec, workers int) (stdout, stderr string, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var out, errOut bytes.Buffer
	err = runSuite(ctx, s, &out, &errOut)
	return out.String(), errOut.String(), err
}

// TestSuiteSpecShape: the -suite matrix is the paper's ~2,500-test
// scale (§5.4), validates, and enumerates benchmark-major — the order
// under which cell i runs from the per-cell seed of index i.
func TestSuiteSpecShape(t *testing.T) {
	s := suiteSpec("NFP6000-HSW", true, "per-socket", true, 1)
	if n := s.Count(); n != 2160 {
		t.Errorf("suite size = %d, want 2160", n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var axes []string
	for _, a := range s.Axes {
		axes = append(axes, a.Name)
	}
	if got := strings.Join(axes, " "); got != "bench transfer window cache pattern" {
		t.Errorf("axis order = %s", got)
	}
	cells := s.Cells()
	if cells[0].Get("bench") != "lat_rd" || cells[len(cells)-1].Get("bench") != "bw_rdwr" {
		t.Errorf("enumeration not benchmark-major: %s..%s", cells[0].Get("bench"), cells[len(cells)-1].Get("bench"))
	}
	if s.Base["iommuscope"] != "per-socket" || s.Base["sp"] != "true" || s.Base["direct"] != "true" {
		t.Errorf("base = %v", s.Base)
	}
}

// TestSuiteSmall runs a trimmed suite end to end: one ok row per cell
// in enumeration order, latency rows carrying a median and bandwidth
// rows a rate.
func TestSuiteSmall(t *testing.T) {
	s := smallSuite(7)
	out, _, err := runSmallSuite(context.Background(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "bench\twindow\txfer\tpattern\tcache\tmedian_ns\tgbps\tstatus" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines)-1 != s.Count() {
		t.Fatalf("%d rows, want %d:\n%s", len(lines)-1, s.Count(), out)
	}
	for i, c := range s.Cells() {
		f := strings.Split(lines[i+1], "\t")
		want := []string{strings.ToUpper(c.Get("bench")), c.Get("window"), c.Get("transfer"), c.Get("pattern"), c.Get("cache")}
		if len(f) != 8 || !slices.Equal(f[:5], want) || f[7] != "ok" {
			t.Fatalf("row %d = %q, want cell %v ok", i, lines[i+1], want)
		}
		median, _ := strconv.ParseFloat(f[5], 64)
		gbps, _ := strconv.ParseFloat(f[6], 64)
		ok := gbps > 0 && median == 0
		if strings.HasPrefix(f[0], "LAT") {
			ok = median > 0 && gbps == 0
		}
		if !ok {
			t.Errorf("row %d = %q: want a median for latency, a rate for bandwidth", i, lines[i+1])
		}
	}
}

// TestSuiteParallelDeterministic: the report is byte-identical at any
// worker count.
func TestSuiteParallelDeterministic(t *testing.T) {
	want, _, err := runSmallSuite(context.Background(), smallSuite(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		got, _, err := runSmallSuite(context.Background(), smallSuite(7), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d output differs from workers=1:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}

// TestSuiteProgressAndErrors: the stderr meter ends at done == total
// under a parallel pool, and a cancelled run fails with the context's
// error.
func TestSuiteProgressAndErrors(t *testing.T) {
	s := smallSuite(1)
	_, meter, err := runSmallSuite(context.Background(), s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\r%d/%d\n", s.Count(), s.Count()); meter != want {
		t.Errorf("meter = %q, want %q", meter, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runSmallSuite(ctx, smallSuite(1), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v", err)
	}
}

// TestSuiteRejectsInvalid: a cell that could only fail mid-run — a
// window beyond the host buffer, an unknown benchmark or system —
// fails the whole suite before any cell executes, as in every sweep.
func TestSuiteRejectsInvalid(t *testing.T) {
	for i, mutate := range []func(*sweep.Spec){
		func(s *sweep.Spec) { s.Base["buffer"] = "512K" },
		func(s *sweep.Spec) { s.Axes[0].Values = []string{"nope"} },
		func(s *sweep.Spec) { s.Base["system"] = "PDP-11" },
	} {
		s := smallSuite(1)
		mutate(s)
		out, meter, err := runSmallSuite(context.Background(), s, 2)
		if err == nil {
			t.Errorf("case %d: invalid suite accepted", i)
		}
		if out != "" || meter != "\n" {
			t.Errorf("case %d: cells ran before the error (stdout %q, meter %q)", i, out, meter)
		}
	}
}
