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
	if _, err := runCLI(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

func TestListSweeps(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2", "fig4", "fig9", "table2-ddio", "wl-imix", "wl-burst", "cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestRunRegisteredSweep(t *testing.T) {
	out, err := runCLI(t, "-run", "table2-ddio")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache", "warm", "cold", "lat_rd:median"} {
		if !strings.Contains(out, want) {
			t.Errorf("-run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithOverrides(t *testing.T) {
	// Shrink the grid and move it to another system: the overrides must
	// land in the emitted header and rows.
	out, err := runCLI(t, "-run", "table2-ddio", "-format", "tsv",
		"cache=warm", "system=NFP6000-SNB", "n=50")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "\ncold\t") {
		t.Errorf("axis override did not replace values:\n%s", out)
	}
	if !strings.Contains(out, "\nwarm\t") {
		t.Errorf("override output missing warm row:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus-flag"},                            // unknown flag
		{"-run", "no-such-sweep"},                  // unknown sweep
		{"-run", "table2-ddio", "bogus=1"},         // unknown override key
		{"-run", "table2-ddio", "-format", "yaml"}, // unknown emitter
		{"-spec", "does-not-exist.json"},           // missing spec file
		{"stray-arg"},                              // overrides without -run/-spec
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func TestSpecFile(t *testing.T) {
	dir := t.TempDir()

	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{
		"name": "cli-test",
		"axes": [{"name": "transfer", "values": ["8", "64"]}],
		"base": {"system": "NFP6000-HSW", "bench": "lat_rd",
		         "window": "4K", "buffer": "64K", "nojitter": "true", "n": "40"}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-spec", good, "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "transfer,lat_rd:median") {
		t.Errorf("csv output:\n%s", out)
	}

	for name, body := range map[string]string{
		"syntax.json":  `{"name": "x", "axes": [`,
		"unknown.json": `{"name": "x", "axes": [{"name": "transfer", "values": ["8"]}], "frobnicate": 1}`,
		"badaxis.json": `{"name": "x", "axes": [{"name": "warp", "values": ["9"]}]}`,
		"badval.json":  `{"name": "x", "axes": [{"name": "cache", "values": ["lukewarm"]}]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := runCLI(t, "-spec", path); err == nil {
			t.Errorf("%s accepted, want error", name)
		}
	}
}

func TestReproduceSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measured experiment; run without -short")
	}
	dir := t.TempDir()
	out, err := runCLI(t, "-only", "table1", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "NFP6000-HSW") {
		t.Errorf("table1 output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.tsv")); err != nil {
		t.Errorf("table1.tsv not written: %v", err)
	}
}

// TestOnlyRejectsUnknownID: an -only value that no experiment id
// starts with fails up front, naming the ids, instead of measuring
// every figure for the expectations table and exiting 0.
func TestOnlyRejectsUnknownID(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	_, err := runCLI(t, "-only", "fig3", "-out", dir)
	if err == nil || !strings.Contains(err.Error(), "fig4") {
		t.Fatalf("-only fig3 returned %v, want an error listing the ids", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("-only fig3 created the output directory (stat: %v)", err)
	}
}

// TestFaultOverrides: trailing ber=/cto=/retrain= overrides reach a
// -run grid as validated axis overrides, bad values fail fast, and the
// fault keys have no flag spelling.
func TestFaultOverrides(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "ber-goodput", "-format", "tsv",
		"ber=1e-6", "cto=1ms", "retrain=1s", "n=100"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "1e-6") {
		t.Errorf("ber override missing from grid:\n%s", stdout.String())
	}
	for _, bad := range [][]string{
		{"-run", "ber-goodput", "ber=2"},
		{"-run", "ber-goodput", "cto=soon"},
		{"-run", "ber-goodput", "retrain=-1us"},
		{"ber=1e-6"},                            // overrides need -run or -spec
		{"-run", "ber-goodput", "-ber", "1e-6"}, // no -ber flag
	} {
		if err := run(bad, &stdout, &stderr); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// nicModelSpec is the analytical model's curves as a spec file.
const nicModelSpec = "../../examples/sweeps/nic-model.json"

// rows parses TSV output into its data rows (comment lines dropped),
// keeping the first n fields of each.
func rows(out string, n int) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") {
			rows = append(rows, strings.Split(line, "\t")[:n])
		}
	}
	return rows
}

// TestNICModelMatchesPcieModel: nic-model.json prints the six curves
// of the removed pcie-model command, value for value. The testdata
// files are that command's output for the three runs named after them
// (its defaults, "-gen 4 -lanes 16 -mps 128 -mrrs 256" and "-gen 1
// -lanes 1 -sizes 1,63,257,4096,9216"); each run's flags map to the
// overrides below. Its trailing 40eth column has no counterpart.
func TestNICModelMatchesPcieModel(t *testing.T) {
	for _, run := range []struct {
		file      string
		overrides []string
	}{
		{"default.tsv", nil},
		{"gen4-x16-mps128-mrrs256.tsv", []string{"gen=4", "lanes=16", "mps=128", "mrrs=256"}},
		{"gen1-x1-sizes.tsv", []string{"gen=1", "lanes=1", "transfer=1,63,257,4096,9216"}},
	} {
		t.Run(run.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "pcie-model", run.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := runCLI(t, append([]string{"-spec", nicModelSpec, "-format", "tsv"}, run.overrides...)...)
			if err != nil {
				t.Fatal(err)
			}
			// pcie-model's column header is its second comment line.
			header := strings.Split(strings.Split(string(want), "\n")[1], "\t")[1:7]
			g, w := rows(got, 7), rows(string(want), 7)
			if !slices.Equal(g[0][1:], header) {
				t.Errorf("columns %v, pcie-model's %v", g[0][1:], header)
			}
			if g = g[1:]; len(g) != len(w) {
				t.Fatalf("%d rows, pcie-model printed %d", len(g), len(w))
			}
			for i := range w {
				if !slices.Equal(g[i], w[i]) {
					t.Errorf("row %d: %v, pcie-model printed %v", i, g[i], w[i])
				}
			}
		})
	}
}

// TestNICModelErrors: the link and size values pcie-model rejected
// fail as overrides of nic-model.json, as do NIC-design frames above
// the 9,216 B jumbo frame.
func TestNICModelErrors(t *testing.T) {
	for _, override := range []string{
		"gen=9", "lanes=3", "mps=100", "mrrs=8K", "transfer=64,zero",
		"transfer=-5", "transfer=0", "transfer=9217", "nic=quantum", "stray-arg",
	} {
		if _, err := runCLI(t, "-spec", nicModelSpec, override); err == nil {
			t.Errorf("override %s accepted", override)
		}
	}
}
