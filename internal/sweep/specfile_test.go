package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// exampleSpecs is where the repository's example grids live.
const exampleSpecs = "../../examples/sweeps/*.json"

// specFiles lists the spec files matching each pattern, failing on a
// pattern that matches none.
func specFiles(tb testing.TB, patterns ...string) []string {
	tb.Helper()
	var paths []string
	for _, pattern := range patterns {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			tb.Fatalf("no spec files match %s (%v)", pattern, err)
		}
		paths = append(paths, m...)
	}
	return paths
}

// TestExampleSpecsRun decodes, validates and runs every example spec
// at a small n; each cell must measure something for every probe.
func TestExampleSpecsRun(t *testing.T) {
	for _, path := range specFiles(t, exampleSpecs) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := LoadSpecFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyOverrides([]string{"n=200"}); err != nil {
				t.Fatal(err)
			}
			res, _, err := (&Engine{}).Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Cells) != s.Count() {
				t.Fatalf("%d cell results for %d cells", len(res.Cells), s.Count())
			}
			for _, c := range res.Cells {
				if len(c.Meas) != len(s.probes()) || len(c.Values) != len(s.probes()) {
					t.Fatalf("cell %d: %d measurements and %d values for %d probes",
						c.Cell.Index, len(c.Meas), len(c.Values), len(s.probes()))
				}
				for pi, m := range c.Meas {
					if m.Median == 0 && m.Gbps == 0 && m.PPS == 0 {
						t.Errorf("cell %d %v probe %d measured nothing", c.Cell.Index, c.Cell.Coord, pi)
					}
				}
			}
		})
	}
}

// TestBerGoodputSpecMirrorsRegistered: examples/sweeps/ber-goodput.json
// drives the registered ber-goodput grid through the wire format: the
// same axes, base, probes and seeding, so the same cells and keys;
// only the names and titles differ.
func TestBerGoodputSpecMirrorsRegistered(t *testing.T) {
	file, err := LoadSpecFile("../../examples/sweeps/ber-goodput.json")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := ByName("ber-goodput")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Spec{file, reg} {
		s.Name, s.Title, s.Description, s.XLabel, s.YLabel = "", "", "", "", ""
	}
	if !reflect.DeepEqual(file, reg) {
		t.Errorf("ber-goodput.json\n%+v\ndiffers from the registered sweep\n%+v", file, reg)
	}
}

// FuzzDecode holds the spec wire format to its contract on inputs
// nobody wrote, seeded with every spec file in the repository. A
// document Decode accepts expands to exactly Count cells, indexed in
// order, each assigning its coordinates; every probe of every cell
// (and its contrast) resolves from its layers exactly as from their
// merged map, with the same error or none; and it survives a JSON round
// trip with the same cells and probe labels. No cell runs; Validate's
// measurement bound keeps expansion small.
func FuzzDecode(f *testing.F) {
	for _, path := range specFiles(f, exampleSpecs, "testdata/*.json") {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		cells := s.Cells()
		if len(cells) != s.Count() {
			t.Fatalf("%d cells, Count %d", len(cells), s.Count())
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d has index %d", i, c.Index)
			}
			for ai, a := range s.Axes {
				if v := c.KV[a.Name]; v != c.Coord[ai] || !slices.Contains(a.Values, v) {
					t.Fatalf("cell %d: %s=%q, coordinate %q", i, a.Name, v, c.Coord[ai])
				}
			}
			for pi, p := range s.probes() {
				stacks := [][]map[string]string{{c.KV, p.Set}}
				if s.Contrast != nil {
					stacks = append(stacks, []map[string]string{c.KV, p.Set, s.Contrast.Set})
				}
				for _, layers := range stacks {
					merged := map[string]string{}
					for _, m := range layers {
						maps.Copy(merged, m)
					}
					got, gotErr := resolveConfig(layers...)
					want, wantErr := resolveConfig(merged)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("cell %d probe %d: layers %v resolve to %+v (%v), merged to %+v (%v)",
							i, pi, layers, got, gotErr, want, wantErr)
					}
				}
			}
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if !reflect.DeepEqual(back.Cells(), cells) {
			t.Errorf("round trip through %s changed the cells", enc)
		}
		if !slices.Equal(back.ProbeLabels(), s.ProbeLabels()) {
			t.Errorf("round trip changed the probe labels: %v, want %v", back.ProbeLabels(), s.ProbeLabels())
		}
	})
}
