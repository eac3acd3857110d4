package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRoundTrip is the spec round-trip contract: JSON-decode ->
// expand -> run -> emit produces identical cells and stable ordering
// at every given worker count, and the emitted TSV matches the
// checked-in golden file. Regenerate with `go test ./internal/sweep
// -run Golden -update`.
func goldenRoundTrip(t *testing.T, specFile, goldenFile string, workers []int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", specFile))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// The spec survives a marshal/decode cycle with an identical grid.
	reencoded, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := Decode(bytes.NewReader(reencoded))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Cells(), spec2.Cells()) {
		t.Fatal("cells differ after JSON round trip")
	}

	// Execution and every emitter are byte-stable at any worker count.
	outputs := map[string]string{}
	for _, w := range workers {
		res, _, err := (&Engine{Workers: w}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Cells {
			if c.Cell.Index != i {
				t.Fatalf("workers=%d: cell %d carries index %d", w, i, c.Cell.Index)
			}
		}
		for _, format := range Formats() {
			emit, err := EmitterFor(format)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, res); err != nil {
				t.Fatal(err)
			}
			if prev, seen := outputs[format]; seen && prev != buf.String() {
				t.Errorf("workers=%d: %s output differs from workers=%d:\n%s\n--- vs ---\n%s",
					w, format, workers[0], buf.String(), prev)
			}
			outputs[format] = buf.String()
		}
	}

	golden := filepath.Join("testdata", goldenFile)
	if *update {
		if err := os.WriteFile(golden, []byte(outputs["tsv"]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if outputs["tsv"] != string(want) {
		t.Errorf("TSV output diverged from %s:\n%s\n--- want ---\n%s",
			golden, outputs["tsv"], want)
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	goldenRoundTrip(t, "tiny.json", "tiny.golden.tsv", []int{1, 4, 7})
}

// TestWorkloadGoldenRoundTrip pins the multi-queue traffic engine end
// to end: a queues x arrival grid with per-queue packet-rate and
// latency-percentile columns must emit byte-identically at workers
// 1, 4 and 7 and match the checked-in golden TSV.
func TestWorkloadGoldenRoundTrip(t *testing.T) {
	goldenRoundTrip(t, "workload.json", "workload.golden.tsv", []int{1, 4, 7})
}

// TestWorkloadParallelismByteIdentity drives the same workload sweep
// at every pool size from 1 to 16 (beyond the 6-cell grid, so
// oversubscription is covered too): the emitted bytes must be
// identical for every worker count, the invariant the parallel runner
// guarantees. Exhaustive beats sampled here — the grid is cheap and a
// failure pins the exact worker count.
func TestWorkloadParallelismByteIdentity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "workload.json"))
	if err != nil {
		t.Fatal(err)
	}
	runTSV := func(workers int) string {
		spec, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := (&Engine{Workers: workers}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		emit, err := EmitterFor("tsv")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := emit(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := runTSV(1)
	for w := 2; w <= 16; w++ {
		if got := runTSV(w); got != base {
			t.Errorf("workers=%d output differs from workers=1:\n%s\n--- vs ---\n%s", w, got, base)
		}
	}
}
