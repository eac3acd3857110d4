package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pciebench/internal/tlp"
	"pciebench/internal/trace"
)

// traceArgs are the instance and run settings of the retired pcie-trace
// command as pcie-bench flags: a 1 MB buffer without jitter, a 64 KB
// window and one warm-up DMA. Its seed 0 read as 1, pcie-bench's
// default.
var traceArgs = []string{"-window", "64K", "-buffer", "1M", "-warmup", "1", "-nojitter"}

// TestTraceMatchesPcieTrace runs pcie-trace's two documented runs
// through pcie-bench -trace. testdata/trace holds what pcie-trace
// wrote for each (`pcie-trace -transfer 1024 -n 3` and
// `pcie-trace -bench lat_wrrd -transfer 300 -offset 16`, n defaulting
// to 2): the journal must match byte for byte, the measurement, decoded
// TLP lines and summary line for line, in text and -json mode alike.
func TestTraceMatchesPcieTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"lat-rd-1024", []string{"-transfer", "1024", "-n", "3"}},
		{"lat-wrrd-300-off16", []string{"-bench", "lat_wrrd", "-transfer", "300", "-offset", "16", "-n", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "trace", tc.name)
			wantJournal, err := os.ReadFile(golden + ".tlpj")
			if err != nil {
				t.Fatal(err)
			}
			text, err := os.ReadFile(golden + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			head, wantLog, _ := strings.Cut(string(text), "\n#\n")
			_, measured, _ := strings.Cut(head, "# measured: ")

			path := filepath.Join(t.TempDir(), "run.tlpj")
			args := append(append(slices.Clone(traceArgs), tc.args...), "-trace", path)
			for _, jsonOut := range []bool{false, true} {
				if jsonOut {
					args = append(args, "-json")
				}
				out, err := runCLI(t, args...)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantJournal) {
					t.Errorf("json=%v: journal differs from %s.tlpj (read error %v)", jsonOut, golden, err)
				}
				if jsonOut {
					if !json.Valid([]byte(out)) {
						t.Errorf("-json -trace output is not JSON:\n%s", out)
					}
					continue
				}
				if !strings.Contains(out, " "+measured+"\n") {
					t.Errorf("result line lacks pcie-trace's measurement %q:\n%s", measured, out)
				}
				if _, gotLog, _ := strings.Cut(out, "\n#\n"); gotLog != wantLog {
					t.Errorf("TLP log and summary diverged from %s.txt:\n%s\n--- want ---\n%s", golden, gotLog, wantLog)
				}
			}
		})
	}
}

// TestTraceKindSummaryOrdered: the per-kind summary lists TLP kinds in
// tlp.Kind order on every run. Ranging over the counts map printed
// them in a different order from run to run.
func TestTraceKindSummaryOrdered(t *testing.T) {
	kindOf := map[string]tlp.Kind{}
	for k := tlp.KindInvalid; k <= tlp.KindCplD; k++ {
		kindOf[k.String()] = k
	}
	path := filepath.Join(t.TempDir(), "run.tlpj")
	for run := 0; run < 20; run++ {
		out, err := runCLI(t, "-bench", "lat_wrrd", "-transfer", "300", "-n", "2", "-trace", path)
		if err != nil {
			t.Fatal(err)
		}
		var kinds []tlp.Kind
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(strings.TrimPrefix(line, "#"))
			if len(f) != 2 || !strings.HasPrefix(f[1], "x") {
				continue
			}
			if k, ok := kindOf[f[0]]; ok {
				kinds = append(kinds, k)
			}
		}
		if len(kinds) != 3 || !slices.IsSorted(kinds) {
			t.Fatalf("run %d: kind summary %v, want MRd, MWr, CplD in that order:\n%s", run, kinds, out)
		}
	}
}

// TestTraceKeepsLastTLPs: a run of more than 10,000 TLPs keeps the
// last 10,000, in the journal and the log, and says how many it
// dropped.
func TestTraceKeepsLastTLPs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.tlpj")
	out, err := runCLI(t, "-n", "6000", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	// 6,300 DMAs (300 of them warm-up) of one MRd and one CplD each.
	if len(records) != 10000 || !strings.Contains(out, "\n# 2600 records dropped (limit 10000)\n") {
		t.Errorf("journal holds %d records, want 10000; log tail:\n%s", len(records), out[max(0, len(out)-300):])
	}
}

// TestTraceErrors: -trace is refused where it cannot record the run (a
// fabric or p2p run, whose other endpoints' links it would miss, or the
// suite) and fails on an unwritable journal path.
func TestTraceErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.tlpj")
	for _, args := range [][]string{
		{"-bench", "p2p", "-transfer", "256", "-n", "10"},
		{"-bench", "workload", "-endpoints", "2", "-n", "10"},
		{"-suite"},
	} {
		if _, err := runCLI(t, append(args, "-trace", path)...); err == nil {
			t.Errorf("%v -trace succeeded, want error", args)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused -trace left a journal behind (stat: %v)", err)
	}
	if _, err := runCLI(t, "-n", "10", "-trace", filepath.Join(path, "missing", "run.tlpj")); err == nil {
		t.Error("-trace into a missing directory succeeded, want error")
	}
}
