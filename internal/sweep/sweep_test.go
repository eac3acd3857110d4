package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pciebench/internal/bench"
	"pciebench/internal/pcie"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"64", 64, true},
		{"8K", 8 << 10, true},
		{"16m", 16 << 20, true},
		{"1G", 1 << 30, true},
		{" 2K ", 2 << 10, true},
		{"", 0, false},
		{"x", 0, false},
		{"4KB", 0, false},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestResolveConfig(t *testing.T) {
	cfg, err := resolveConfig(map[string]string{
		"system": "NFP6000-BDW", "bench": "bw_rdwr",
		"window": "16M", "transfer": "256", "offset": "4",
		"pattern": "seq", "cache": "devwarm", "n": "123",
		"direct": "true", "node": "1", "iommu": "on", "sp": "off",
		"nojitter": "1", "buffer": "32M", "seed": "7",
		"walkers": "3", "dmainflight": "12",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System != "NFP6000-BDW" || cfg.Bench != BenchBwRdWr {
		t.Errorf("system/bench = %q/%q", cfg.System, cfg.Bench)
	}
	p := cfg.Params
	if p.WindowSize != 16<<20 || p.TransferSize != 256 || p.Offset != 4 ||
		p.Pattern != bench.Sequential || p.Cache != bench.DeviceWarm ||
		p.Transactions != 123 || !p.Direct {
		t.Errorf("params = %+v", p)
	}
	o := cfg.Opt
	if o.BufferNode != 1 || !o.IOMMU || o.SuperPages || !o.NoJitter ||
		o.BufferSize != 32<<20 || o.Seed != 7 ||
		o.IOMMUWalkers != 3 || o.MaxInFlight != 12 {
		t.Errorf("options = %+v", o)
	}
	if o.Link != nil {
		t.Error("link set without link keys")
	}
}

func TestResolveConfigLink(t *testing.T) {
	cfg, err := resolveConfig(map[string]string{"gen": "5", "lanes": "16", "mps": "512"})
	if err != nil {
		t.Fatal(err)
	}
	l := cfg.Opt.Link
	if l == nil || l.Gen != pcie.Gen5 || l.Lanes != 16 || l.MPS != 512 {
		t.Fatalf("link = %+v", l)
	}
	// Unset link fields keep the paper's Gen3 x8 defaults.
	if l.MRRS != 512 || l.RCB != 64 {
		t.Errorf("link defaults lost: %+v", l)
	}
}

func TestResolveConfigErrors(t *testing.T) {
	for _, kv := range []map[string]string{
		{"nope": "1"},
		{"bench": "bw_up"},
		{"pattern": "zigzag"},
		{"cache": "lukewarm"},
		{"window": "huge"},
		{"direct": "maybe"},
		{"system": "PDP-11"},
		{"gen": "9"},
		{"lanes": "3"},
		// Zero would silently select a default.
		{"endpoints": "0"},
		{"walkers": "0"},
		{"walkers": "-1"},
		{"dmainflight": "0"},
		{"dmainflight": "-1"},
		// Workload counts out of range would silently run the poll
		// mode, the design's moderation or a default.
		{"bench": "workload", "intrmod": "0"},
		{"bench": "workload", "intrmod": "-7"},
		{"bench": "workload", "queues": "-3"},
		{"bench": "workload", "queues": "0"},
		{"bench": "workload", "flows": "0"},
		{"bench": "workload", "inflight": "-1"},
		{"bench": "workload", "doorbell": "-4"},
		{"bench": "workload", "descbatch": "-1"},
		{"bench": "workload", "wbbatch": "-2"},
	} {
		if _, err := resolveConfig(kv); err == nil {
			t.Errorf("resolveConfig(%v) accepted", kv)
		}
	}
}

func testSpec() *Spec {
	return &Spec{
		Name: "t",
		Axes: []Axis{
			StrAxis("cache", "cold", "warm"),
			IntAxis("transfer", 8, 64),
		},
		Base: map[string]string{
			"system": "NFP6000-HSW", "bench": "lat_rd",
			"window": "4K", "buffer": "64K", "nojitter": "true", "n": "40",
		},
	}
}

func TestCellsEnumeration(t *testing.T) {
	s := testSpec()
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	cells := s.Cells()
	wantCoords := [][]string{
		{"cold", "8"}, {"cold", "64"}, {"warm", "8"}, {"warm", "64"},
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d index %d", i, c.Index)
		}
		for j, v := range wantCoords[i] {
			if c.Coord[j] != v {
				t.Errorf("cell %d coord = %v, want %v", i, c.Coord, wantCoords[i])
			}
		}
		if c.Get("system") != "NFP6000-HSW" || c.Get("cache") != wantCoords[i][0] {
			t.Errorf("cell %d kv merge broken: %v", i, c.KV)
		}
		if c.Int("window") != 4<<10 {
			t.Errorf("cell %d Int(window) = %d", i, c.Int("window"))
		}
	}
}

func TestApplyOverrides(t *testing.T) {
	s := testSpec()
	// Replace an axis, add a new axis, set a base value.
	if err := s.ApplyOverrides([]string{"transfer=16,32", "mps=128,256", "system=NFP6000-SNB"}); err != nil {
		t.Fatal(err)
	}
	if got := s.axis("transfer").Values; len(got) != 2 || got[0] != "16" {
		t.Errorf("transfer override: %v", got)
	}
	if ax := s.axis("mps"); ax == nil || len(ax.Values) != 2 {
		t.Error("mps axis not added")
	}
	if s.Base["system"] != "NFP6000-SNB" {
		t.Errorf("base override: %v", s.Base)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{"", "=1", "transfer=", "bogus=1", "transfer"} {
		if err := testSpec().ApplyOverrides([]string{bad}); err == nil {
			t.Errorf("override %q accepted", bad)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Axes = nil },
		func(s *Spec) { s.Axes = append(s.Axes, StrAxis("cache", "warm")) },
		func(s *Spec) { s.Axes = append(s.Axes, StrAxis("frobnicate", "1")) },
		func(s *Spec) { s.Axes[0].Values = nil },
		func(s *Spec) { s.Base["bogus"] = "1" },
		func(s *Spec) { s.Base["cache"] = "lukewarm"; s.Axes = s.Axes[1:] },
		func(s *Spec) { s.SeedMode = "random" },
		func(s *Spec) { s.Probes = []Probe{{Metric: "p42"}} },
		func(s *Spec) { s.Probes = []Probe{{Metric: "qpps"}} },
		func(s *Spec) { s.Probes = []Probe{{Metric: "qpps-1"}} },
		func(s *Spec) { s.Probes = []Probe{{Metric: "qppsx"}} },
		func(s *Spec) { s.Probes = []Probe{{Set: map[string]string{"bench": "nope"}}} },
		func(s *Spec) { s.Contrast = &Contrast{} },
		func(s *Spec) { s.Contrast = &Contrast{Set: map[string]string{"node": "1"}, Reduce: "max"} },
		func(s *Spec) {
			s.Contrast = &Contrast{Set: map[string]string{"node": "1"}}
			s.SharedInstance = true
		},
		// A contrast may not swap the benchmark out from under the metric.
		func(s *Spec) { s.Contrast = &Contrast{Set: map[string]string{"bench": "bw_rd"}} },
		// Shared-instance probes may not change how the instance builds.
		func(s *Spec) {
			s.SharedInstance = true
			s.Probes = []Probe{{Set: map[string]string{"node": "1"}}}
		},
		func(s *Spec) {
			s.SharedInstance = true
			s.Probes = []Probe{{Set: map[string]string{"iommu": "true"}}}
		},
		// Micro-benchmark parameters that could only fail mid-run: a
		// window beyond the 64K buffer (also under a contrast), no
		// window at all, an offset past the cache line, a negative n.
		func(s *Spec) { s.Base["window"] = "128K" },
		func(s *Spec) { s.Contrast = &Contrast{Set: map[string]string{"buffer": "2K"}} },
		func(s *Spec) { delete(s.Base, "window") },
		func(s *Spec) { s.Base["offset"] = "64" },
		func(s *Spec) { s.Base["n"] = "-1" },
		// Workload, p2p and loopback cells that could only fail mid-run:
		// a negative n (even after a valid cell), no transfer to move.
		func(s *Spec) {
			s.Axes = []Axis{IntAxis("n", 100, -5)}
			s.Base = map[string]string{"bench": "p2p", "transfer": "256"}
		},
		func(s *Spec) {
			s.Axes = []Axis{IntAxis("n", -5)}
			s.Base = map[string]string{"bench": "workload"}
		},
		func(s *Spec) {
			s.Axes = []Axis{IntAxis("n", -3)}
			s.Base = map[string]string{"bench": "loopback", "transfer": "64"}
		},
		func(s *Spec) {
			s.Axes = []Axis{IntAxis("transfer", 0)}
			s.Base = map[string]string{"bench": "loopback", "n": "100"}
		},
		func(s *Spec) {
			s.Axes = []Axis{IntAxis("n", 100)}
			s.Base = map[string]string{"bench": "p2p"}
		},
	}
	for i, mutate := range cases {
		s := testSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// An unset n is resolved from the quality level at run time.
	s := testSpec()
	delete(s.Base, "n")
	if err := s.Validate(); err != nil {
		t.Fatalf("spec without n rejected: %v", err)
	}
	for _, kind := range []string{BenchP2P, BenchLoopback} {
		s := &Spec{Name: "t", Axes: []Axis{IntAxis("transfer", 64)}, Base: map[string]string{"bench": kind}}
		if err := s.Validate(); err != nil {
			t.Errorf("%s spec without n rejected: %v", kind, err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := testSpec()
	s.Probes = []Probe{{Label: "p", Set: map[string]string{"bench": "lat_rd"}}}
	s.Contrast = &Contrast{Set: map[string]string{"node": "1"}}
	c := s.Clone()
	c.Axes[0].Values[0] = "devwarm"
	c.Base["system"] = "NFP6000-IB"
	c.Probes[0].Set["bench"] = "bw_rd"
	c.Contrast.Set["node"] = "0"
	if s.Axes[0].Values[0] != "cold" || s.Base["system"] != "NFP6000-HSW" ||
		s.Probes[0].Set["bench"] != "lat_rd" || s.Contrast.Set["node"] != "1" {
		t.Error("clone shares state with the original")
	}
}

func TestRegistry(t *testing.T) {
	s := testSpec()
	s.Name = "registry-test"
	Register(s)
	got, err := ByName("registry-test")
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the lookup result must not affect the registry.
	got.Base["system"] = "NFP6000-IB"
	again, _ := ByName("registry-test")
	if again.Base["system"] != "NFP6000-HSW" {
		t.Error("registry returned a shared spec")
	}
	found := false
	for _, r := range Specs() {
		if r.Name == "registry-test" {
			found = true
		}
	}
	if !found {
		t.Error("Specs() missing registered spec")
	}
	if _, err := ByName("no-such-sweep"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestQualityTransactions(t *testing.T) {
	cases := []struct {
		q      Quality
		bench  string
		metric string
		want   int
	}{
		{Quick, BenchLatRd, MetricMedian, 400},
		{Quick, BenchBwRd, MetricGbps, 4000},
		{Quick, BenchLatRd, MetricCDF, 20000},
		{Quick, BenchLoopback, MetricMedian, 16},
		{Full, BenchLatWrRd, MetricMedian, 20000},
		{Full, BenchBwRdWr, MetricGbps, 60000},
		{Full, BenchLatRd, MetricCDF, 200000},
		{Full, BenchLoopback, MetricFrac, 200},
	}
	for _, c := range cases {
		if got := c.q.Transactions(c.bench, c.metric); got != c.want {
			t.Errorf("%v.Transactions(%s, %s) = %d, want %d", c.q, c.bench, c.metric, got, c.want)
		}
	}
}

func TestProbeLabels(t *testing.T) {
	s := testSpec()
	if got := s.ProbeLabels(); len(got) != 1 || got[0] != "lat_rd:median" {
		t.Errorf("default label = %v", got)
	}
	s.Probes = []Probe{
		{Label: "a"},
		{Set: map[string]string{"bench": "bw_rd"}},
		{Set: map[string]string{"bench": "bw_rd"}},
	}
	got := s.ProbeLabels()
	if got[0] != "a" || got[1] != "bw_rd:gbps" || got[2] != "bw_rd:gbps#2" {
		t.Errorf("labels = %v", got)
	}
}

func TestEmitters(t *testing.T) {
	if _, err := EmitterFor("yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	res, _, err := (&Engine{Workers: 2}).Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range Formats() {
		emit, err := EmitterFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := emit(&buf, res); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out := buf.String()
		for _, want := range []string{"cache", "transfer", "warm", "64"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", format, want, out)
			}
		}
	}
}

// TestContrastRun checks the differential path: an IOMMU perturbation
// beyond the IO-TLB reach must report a large negative pct_delta.
func TestContrastRun(t *testing.T) {
	if testing.Short() {
		t.Skip("measured contrast sweep; run without -short")
	}
	s := &Spec{
		Name: "contrast-test",
		Axes: []Axis{IntAxis("transfer", 64)},
		Base: map[string]string{
			"system": "NFP6000-BDW", "bench": "bw_rd", "cache": "warm",
			"window": "16M", "nojitter": "true", "n": "2000",
		},
		Contrast: &Contrast{Set: map[string]string{"iommu": "true"}},
		SeedMode: SeedFixed,
	}
	res, _, err := (&Engine{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Values[0]; v > -40 {
		t.Errorf("IOMMU pct_delta = %.1f, want strongly negative", v)
	}
}

// TestSharedInstanceOrder checks that probes of a shared-instance cell
// observe one simulator in probe order: the second cold-read probe runs
// after the first has pulled the window toward the cache, so its median
// must not exceed the first probe's.
func TestSharedInstanceRun(t *testing.T) {
	s := &Spec{
		Name: "shared-test",
		Axes: []Axis{StrAxis("cache", "warm")},
		Base: map[string]string{
			"system": "NFP6000-HSW", "bench": "lat_rd", "window": "4K",
			"transfer": "8", "buffer": "64K", "nojitter": "true", "n": "60",
		},
		SharedInstance: true,
		Probes: []Probe{
			{Label: "first"},
			{Label: "second"},
		},
	}
	res, _, err := (&Engine{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if len(c.Values) != 2 || c.Values[0] <= 0 || c.Values[1] <= 0 {
		t.Fatalf("values = %v", c.Values)
	}
}
