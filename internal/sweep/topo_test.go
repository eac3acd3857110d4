package sweep

import (
	"context"
	"strings"
	"testing"
)

// TestTopoContendGolden pins the shared-uplink contention sweep: the
// JSON spec round-trips, runs byte-identically at workers 1/4/7 in
// every format, and matches the checked-in golden TSV.
func TestTopoContendGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("topology golden skipped in -short")
	}
	goldenRoundTrip(t, "topo-contend.json", "topo-contend.golden.tsv", []int{1, 4, 7})
}

// TestTopoP2PGolden pins the peer-to-peer sweep the same way.
func TestTopoP2PGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("topology golden skipped in -short")
	}
	goldenRoundTrip(t, "topo-p2p.json", "topo-p2p.golden.tsv", []int{1, 4, 7})
}

// TestTopoContendShape is the acceptance property behind the golden:
// running the *registered* topo-contend sweep, per-NIC p99 latency
// degrades strictly monotonically as endpoints behind one uplink grow
// 1→8, while bandwidth partitions near-equally (min/max endpoint rate
// ≥ 0.9) in every multi-endpoint cell.
func TestTopoContendShape(t *testing.T) {
	if testing.Short() {
		t.Skip("topology sweep skipped in -short")
	}
	spec, err := ByName("topo-contend")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.ApplyOverrides([]string{"n=250"}); err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	labels := spec.ProbeLabels()
	col := func(name string) int {
		for i, l := range labels {
			if l == name {
				return i
			}
		}
		t.Fatalf("probe %q missing from %v", name, labels)
		return -1
	}
	p99, emin, emax := col("p99_ns"), col("epps_min"), col("epps_max")
	var lastP99 float64
	for _, c := range res.Cells {
		v99 := c.Values[p99]
		if v99 <= lastP99 {
			t.Errorf("endpoints=%s: p99 %.0fns not above previous %.0fns", c.Cell.Coord[0], v99, lastP99)
		}
		lastP99 = v99
		lo, hi := c.Values[emin], c.Values[emax]
		if lo <= 0 || hi <= 0 {
			t.Fatalf("endpoints=%s: non-positive endpoint rates %v/%v", c.Cell.Coord[0], lo, hi)
		}
		if lo/hi < 0.9 {
			t.Errorf("endpoints=%s: bandwidth partitioning %.0f/%.0f pps below 0.9", c.Cell.Coord[0], lo, hi)
		}
	}
}

// TestUnknownKeyErrorsNameValidKeys is the satellite error-message
// contract: an unknown key in a cell whose benchmark kind is known
// lists exactly that kind's valid keys; without a kind the error lists
// the groups.
func TestUnknownKeyErrorsNameValidKeys(t *testing.T) {
	_, err := resolveConfig(map[string]string{"bench": BenchWorkload, "bogus": "1"})
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	msg := err.Error()
	for _, want := range []string{`for bench "workload"`, "queues", "endpoints", "arrival"} {
		if !strings.Contains(msg, want) {
			t.Errorf("workload unknown-key error missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "offset") {
		t.Errorf("workload unknown-key error lists micro-bench key \"offset\":\n%s", msg)
	}

	_, err = resolveConfig(map[string]string{"bench": BenchLatRd, "bogus": "1"})
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	msg = err.Error()
	for _, want := range []string{`for bench "lat_rd"`, "offset", "window"} {
		if !strings.Contains(msg, want) {
			t.Errorf("lat_rd unknown-key error missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "queues") {
		t.Errorf("lat_rd unknown-key error lists workload key \"queues\":\n%s", msg)
	}

	_, err = resolveConfig(map[string]string{"bogus": "1"})
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	if msg = err.Error(); !strings.Contains(msg, "topology:") || !strings.Contains(msg, "workload:") {
		t.Errorf("ungrouped unknown-key error missing groups:\n%s", msg)
	}

	// A key another kind takes fails the same way, in a cell or in a
	// contrast set, and a cell naming no kind is a lat_rd cell.
	bw := map[string]string{"bench": BenchBwRd, "transfer": "64", "window": "8K", "n": "100"}
	for name, c := range map[string]struct {
		s    *Spec
		want string
	}{
		"cell": {&Spec{Name: "t", Axes: []Axis{StrAxis("arrival", "poisson:1M")}, Base: bw},
			`arrival="poisson:1M": unknown parameter for bench "bw_rd" (valid: `},
		"contrast": {&Spec{Name: "t", Axes: []Axis{IntAxis("n", 100)}, Base: bw, Contrast: &Contrast{Set: map[string]string{"queues": "4"}}},
			`probe 0 contrast: sweep: queues="4": unknown parameter for bench "bw_rd" (valid: `},
		"no kind": {&Spec{Name: "t", Axes: []Axis{IntAxis("endpoints", 2)}},
			`endpoints="2": unknown parameter for bench "lat_rd" (valid: `},
	} {
		err := c.s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", name, err, c.want)
			continue
		}
		if kind := c.s.Base["bench"]; kind != "" && !strings.Contains(err.Error(), strings.Join(KeysFor(kind), " ")) {
			t.Errorf("%s: %v does not list the %s keys", name, err, kind)
		}
	}
}

// TestTopologyKeyRules: topology keys are rejected on micro-benchmark
// cells, p2p defaults are applied, and shared_instance refuses fabric
// cells.
func TestTopologyKeyRules(t *testing.T) {
	if _, err := resolveConfig(map[string]string{"bench": BenchBwRd, "endpoints": "4"}); err == nil {
		t.Error("endpoints on bw_rd accepted")
	}
	if _, err := resolveConfig(map[string]string{"bench": BenchLatRd, "p2p": "direct"}); err == nil {
		t.Error("p2p key on lat_rd accepted")
	}
	cfg, err := resolveConfig(map[string]string{"bench": BenchP2P})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shape.Endpoints != 2 || cfg.Shape.Switch == nil || cfg.P2P != "direct" {
		t.Errorf("p2p defaults not applied: %+v p2p=%q", cfg.Shape, cfg.P2P)
	}
	cfg, err = resolveConfig(map[string]string{"bench": BenchP2P, "switch": "none"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shape.Switch != nil {
		t.Error("switch=none overridden by the p2p default")
	}

	s := &Spec{
		Name:           "shared-topo",
		Axes:           []Axis{StrAxis("endpoints", "2")},
		Base:           map[string]string{"bench": BenchWorkload, "switch": "on"},
		SharedInstance: true,
	}
	if err := s.Validate(); err == nil {
		t.Error("shared_instance over a fabric cell accepted")
	}
}
