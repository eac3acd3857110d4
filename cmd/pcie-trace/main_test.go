package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pciebench/internal/tlp"
)

// runCLI invokes the command as the shell would and captures stdout.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

func TestHelpIsNotAnError(t *testing.T) {
	// -h must exit 0: main treats flag.ErrHelp as success.
	_, err := runCLI(t, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

func TestTraceSmoke(t *testing.T) {
	out, err := runCLI(t, "-transfer", "256", "-n", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LAT_RD", "# measured:", "MRd", "CplD", "TLPs"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%.400s", want, out)
		}
	}
}

func TestTraceWrRdShowsWrites(t *testing.T) {
	out, err := runCLI(t, "-bench", "lat_wrrd", "-transfer", "128", "-n", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MWr") {
		t.Errorf("lat_wrrd trace shows no MWr TLPs:\n%.400s", out)
	}
}

func TestTraceJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.tlpj")
	out, err := runCLI(t, "-n", "1", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "journal written") {
		t.Errorf("output:\n%s", out)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("journal file is empty")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus-flag"},
		{"-bench", "bw_rd"}, // only latency benches are traceable here
		{"-system", "PDP-11"},
		{"-transfer", "0"},
		{"stray-arg"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
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
	for run := 0; run < 20; run++ {
		out, err := runCLI(t, "-bench", "lat_wrrd", "-transfer", "300", "-n", "2")
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
