package sysconf

import (
	"testing"

	"pciebench/internal/bench"
	"pciebench/internal/hostif"
	"pciebench/internal/iommu"
	"pciebench/internal/sim"
)

func TestTable1Inventory(t *testing.T) {
	systems := Systems()
	if len(systems) != 6 {
		t.Fatalf("got %d systems, want 6 (Table 1)", len(systems))
	}
	wantNames := []string{
		"NFP6000-BDW", "NetFPGA-HSW", "NFP6000-HSW",
		"NFP6000-HSW-E3", "NFP6000-IB", "NFP6000-SNB",
	}
	for i, want := range wantNames {
		if systems[i].Name != want {
			t.Errorf("system %d = %q, want %q", i, systems[i].Name, want)
		}
	}
	// Table 1 note: all systems have 15MB LLC except BDW's 25MB.
	for _, s := range systems {
		want := 15 << 20
		if s.Name == "NFP6000-BDW" {
			want = 25 << 20
		}
		if s.LLCBytes != want {
			t.Errorf("%s LLC = %d, want %d", s.Name, s.LLCBytes, want)
		}
	}
	// NUMA: BDW and IB are 2-way.
	for _, s := range systems {
		wantNodes := 1
		if s.Name == "NFP6000-BDW" || s.Name == "NFP6000-IB" {
			wantNodes = 2
		}
		if s.Nodes != wantNodes {
			t.Errorf("%s nodes = %d, want %d", s.Name, s.Nodes, wantNodes)
		}
	}
	// Only NetFPGA-HSW carries the NetFPGA.
	for _, s := range systems {
		wantAdapter := NFP6000
		if s.Name == "NetFPGA-HSW" {
			wantAdapter = NetFPGASUME
		}
		if s.Adapter != wantAdapter {
			t.Errorf("%s adapter = %v", s.Name, s.Adapter)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("NFP6000-SNB")
	if err != nil || s.Arch != "Sandy Bridge" {
		t.Errorf("ByName: %v %v", s.Arch, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// ByName reads the table built once, so a lookup allocates nothing,
// and Systems hands out a copy: editing it leaves the table as it was.
func TestByNameReadsOneTable(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { ByName("NFP6000-SNB") }); allocs != 0 {
		t.Errorf("ByName allocated %v times per call, want 0", allocs)
	}
	want, err := ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	edited := Systems()
	for i := range edited {
		edited[i].LLCBytes, edited[i].Jitter = 1, nil
		if edited[i].Name == "NFP6000-BDW" {
			edited[i].Name = "edited"
		}
	}
	got, err := ByName("NFP6000-BDW")
	if err != nil || got != want {
		t.Errorf("ByName after editing Systems(): %+v, %v; want %+v", got, err, want)
	}
	if s := Systems(); s[0] != want {
		t.Errorf("Systems()[0] after editing a copy: %+v, want %+v", s[0], want)
	}
}

func TestBuildDefaults(t *testing.T) {
	s, _ := ByName("NFP6000-HSW")
	inst, err := s.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.IOMMU != nil {
		t.Error("IOMMU enabled by default")
	}
	if inst.Buffer.Size != 64<<20+4096 {
		t.Errorf("default buffer = %d", inst.Buffer.Size)
	}
	if inst.Buffer.Mode != hostif.Chunked4M {
		t.Errorf("NFP buffer mode = %v, want chunked", inst.Buffer.Mode)
	}
	if inst.Engine.Config().Name != "NFP6000" {
		t.Errorf("engine = %s", inst.Engine.Config().Name)
	}

	net, _ := ByName("NetFPGA-HSW")
	ninst, err := net.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ninst.Buffer.Mode != hostif.Huge1G {
		t.Errorf("NetFPGA buffer mode = %v, want huge-1G", ninst.Buffer.Mode)
	}
	if ninst.Engine.Config().Name != "NetFPGA" {
		t.Errorf("engine = %s", ninst.Engine.Config().Name)
	}
}

func TestBuildWithIOMMU(t *testing.T) {
	s, _ := ByName("NFP6000-BDW")
	inst, err := s.Build(Options{IOMMU: true, BufferSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if inst.IOMMU == nil {
		t.Fatal("IOMMU missing")
	}
	if got := inst.IOMMU.Config().TLBEntries; got != 64 {
		t.Errorf("IO-TLB entries = %d, want 64 (paper §6.5)", got)
	}
	// sp_off default: 4KB mappings -> one translation per 4KB page.
	if _, err := inst.IOMMU.Translate(0, inst.Buffer.DMAAddr(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.IOMMU.Translate(0, inst.Buffer.DMAAddr(iommu.Page4K)); err != nil {
		t.Fatal(err)
	}
	if inst.IOMMU.Misses != 2 {
		t.Errorf("misses = %d, want 2 (4KB pages)", inst.IOMMU.Misses)
	}

	// With superpages one entry covers far more.
	inst2, err := s.Build(Options{IOMMU: true, SuperPages: true, BufferSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	inst2.IOMMU.Translate(0, inst2.Buffer.DMAAddr(0))
	inst2.IOMMU.Translate(0, inst2.Buffer.DMAAddr(iommu.Page4K))
	if inst2.IOMMU.Misses != 1 {
		t.Errorf("superpage misses = %d, want 1", inst2.IOMMU.Misses)
	}
}

// TestBuildIOMMUScope: the scope option validates up front, a
// per-socket degenerate build still surfaces its single unit on the
// Instance, and the unit serves translations exactly like the global
// one — scope changes unit topology, not addressing.
func TestBuildIOMMUScope(t *testing.T) {
	s, _ := ByName("NFP6000-BDW")
	if _, err := s.Build(Options{IOMMU: true, IOMMUScope: "per-core", BufferSize: 8 << 20}); err == nil {
		t.Fatal("bad IOMMU scope accepted")
	}
	inst, err := s.Build(Options{IOMMU: true, IOMMUScope: "per-socket", BufferSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if inst.IOMMU == nil {
		t.Fatal("per-socket degenerate build did not surface its translation unit")
	}
	if _, err := inst.IOMMU.Translate(0, inst.Buffer.DMAAddr(0)); err != nil {
		t.Fatal(err)
	}
	ref, err := s.Build(Options{IOMMU: true, BufferSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inst.Buffer.DMAAddr(0), ref.Buffer.DMAAddr(0); got != want {
		t.Errorf("per-socket DMA address %#x differs from global %#x; layout must be scope-independent", got, want)
	}
}

func TestBuildRemoteBuffer(t *testing.T) {
	s, _ := ByName("NFP6000-BDW")
	inst, err := s.Build(Options{BufferNode: 1, BufferSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Host.HomeOf(inst.Buffer.PhysAddr(0)) != 1 {
		t.Error("buffer not on node 1")
	}
	// Remote node on a single-socket system fails.
	hsw, _ := ByName("NFP6000-HSW")
	if _, err := hsw.Build(Options{BufferNode: 1, BufferSize: 1 << 20}); err == nil {
		t.Error("node 1 on single-socket system accepted")
	}
}

func TestTargetRunsBenchmark(t *testing.T) {
	s, _ := ByName("NFP6000-HSW")
	inst, err := s.Build(Options{BufferSize: 1 << 20, NoJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.LatRd(inst.Target(), bench.Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: bench.HostWarm, Transactions: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Median < 480 || res.Summary.Median > 620 {
		t.Errorf("HSW 64B warm median = %.1f, want ~547", res.Summary.Median)
	}
}

func TestE5VsE3Tail(t *testing.T) {
	// Fig 6: the E5's distribution is tight; the E3's median more than
	// doubles it and p99 explodes.
	run := func(name string) *bench.LatencyResult {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := s.Build(Options{BufferSize: 1 << 20, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.LatRd(inst.Target(), bench.Params{
			WindowSize: 8 << 10, TransferSize: 64, Cache: bench.HostWarm, Transactions: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	e5 := run("NFP6000-HSW")
	e3 := run("NFP6000-HSW-E3")
	if e3.Summary.Median < 1.8*e5.Summary.Median {
		t.Errorf("E3 median %.0f not >> E5 median %.0f", e3.Summary.Median, e5.Summary.Median)
	}
	if e3.Summary.P99 < 4000 {
		t.Errorf("E3 p99 = %.0fns, want ~5700", e3.Summary.P99)
	}
	// E5 99.9% of samples within a narrow band above the minimum.
	if band := e5.Summary.P999 - e5.Summary.Min; band > 120 {
		t.Errorf("E5 p99.9-min = %.0fns, want <= ~100", band)
	}
	// E3 minimum is actually below the E5's (Fig 6).
	if e3.Summary.Min >= e5.Summary.Min {
		t.Errorf("E3 min %.0f not below E5 min %.0f", e3.Summary.Min, e5.Summary.Min)
	}
}

func TestAdapterString(t *testing.T) {
	if NFP6000.String() != "NFP6000 1.2GHz" || NetFPGASUME.String() != "NetFPGA-SUME" {
		t.Error("adapter strings")
	}
}

func TestJitterDeterminism(t *testing.T) {
	run := func() float64 {
		s, _ := ByName("NFP6000-HSW-E3")
		inst, err := s.Build(Options{BufferSize: 1 << 20, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.LatRd(inst.Target(), bench.Params{
			WindowSize: 8 << 10, TransferSize: 64, Cache: bench.HostWarm, Transactions: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.Mean
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different means: %v vs %v", a, b)
	}
}

func TestWireDelayOrderingAcrossSystems(t *testing.T) {
	// §6.5 implies the BDW host is the fastest baseline (~430ns for
	// 64B reads); SNB/IB are the slowest E5s.
	lat := func(name string) sim.Time {
		s, _ := ByName(name)
		inst, err := s.Build(Options{BufferSize: 1 << 20, NoJitter: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.LatRd(inst.Target(), bench.Params{
			WindowSize: 8 << 10, TransferSize: 64, Cache: bench.HostWarm,
			Transactions: 50, Direct: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.FromNS(res.Summary.Median)
	}
	bdw, hsw, ib := lat("NFP6000-BDW"), lat("NFP6000-HSW"), lat("NFP6000-IB")
	if !(bdw < hsw && hsw < ib) {
		t.Errorf("ordering: BDW %v HSW %v IB %v", bdw, hsw, ib)
	}
	// §6.5: ~430ns on BDW via the direct interface.
	if bdw < 400*sim.Nanosecond || bdw > 470*sim.Nanosecond {
		t.Errorf("BDW direct 64B = %v, want ~430ns", bdw)
	}
}
