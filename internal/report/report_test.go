package report

import (
	"strings"
	"testing"
)

// skipInShort skips the heavyweight experiment sweeps under
// `go test -short` so a short run finishes in seconds; CI runs both
// modes. The gated tests all use the Quick quality knob already — what
// remains slow is the breadth of their parameter grids.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow experiment sweep; run without -short")
	}
}

// quick is the figure set the report tests share: each figure is
// measured once, as one pcie-repro run measures it.
var quick = NewFigures(Quick)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tbl.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Errorf("render:\n%s", out)
	}
	tsv := tbl.TSV()
	if !strings.Contains(tsv, "a\tbb") || !strings.Contains(tsv, "333\t4") {
		t.Errorf("tsv:\n%s", tsv)
	}
}

func TestFigureTSV(t *testing.T) {
	fig, err := quick.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	out := fig.TSV()
	for _, want := range []string{"# fig1", "Effective PCIe BW", "Simple NIC"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if fig.SeriesByName("nope") != nil {
		t.Error("unknown series found")
	}
}

func TestFig1Shapes(t *testing.T) {
	fig, err := quick.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	eff := fig.SeriesByName("Effective PCIe BW")
	simple := fig.SeriesByName("Simple NIC")
	kernel := fig.SeriesByName("Modern NIC (kernel driver)")
	dpdk := fig.SeriesByName("Modern NIC (DPDK driver)")
	eth := fig.SeriesByName("40G Ethernet")
	if eff == nil || simple == nil || kernel == nil || dpdk == nil || eth == nil {
		t.Fatal("missing series")
	}
	// Paper: effective BW ~50 Gb/s at large sizes; ordering holds
	// everywhere; simple NIC crosses 40G Ethernet only past ~512B.
	if v := eff.YAt(1500); v < 48 || v > 53 {
		t.Errorf("effective BW @1500 = %.1f", v)
	}
	for i := range eff.X {
		if !(eff.Y[i] >= dpdk.Y[i] && dpdk.Y[i] >= kernel.Y[i] && kernel.Y[i] > simple.Y[i]) {
			t.Fatalf("ordering broken at %gB", eff.X[i])
		}
	}
	if simple.YAt(256) >= eth.YAt(256) {
		t.Error("simple NIC reaches line rate at 256B")
	}
	if simple.YAt(1024) < eth.YAt(1024) {
		t.Error("simple NIC below line rate at 1024B")
	}
}

func TestFig2Shapes(t *testing.T) {
	fig, err := quick.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	total := fig.SeriesByName("NIC")
	frac := fig.SeriesByName("PCIe fraction")
	if total == nil || frac == nil {
		t.Fatal("missing series")
	}
	// Paper Fig 2: ~1000ns around small frames rising to ~2400ns at
	// 1500B; PCIe fraction falls from ~0.9 to ~0.77.
	if v := total.YAt(128); v < 800 || v > 1200 {
		t.Errorf("total @128B = %.0fns", v)
	}
	if v := total.YAt(1500); v < 2000 || v > 3000 {
		t.Errorf("total @1500B = %.0fns", v)
	}
	if f := frac.YAt(128); f < 0.82 || f > 0.95 {
		t.Errorf("fraction @128B = %.2f", f)
	}
	if f := frac.YAt(1500); f < 0.70 || f > 0.85 {
		t.Errorf("fraction @1500B = %.2f", f)
	}
	if frac.YAt(1500) >= frac.YAt(128) {
		t.Error("PCIe fraction does not fall with size")
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, want := range []string{"NFP6000-BDW", "NetFPGA-SUME", "Sandy Bridge", "25MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	figs, err := quick.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures = %d", len(figs))
	}
	rd := figs[0]
	nfp := rd.SeriesByName("fig4a (NFP6000-HSW)")
	net := rd.SeriesByName("fig4a (NetFPGA-HSW)")
	mdl := rd.SeriesByName("Model BW")
	if nfp == nil || net == nil || mdl == nil {
		t.Fatal("missing series")
	}
	// §6.1: NetFPGA follows the model closely; NFP slightly below;
	// neither reaches 40G line rate for small reads.
	if net.YAt(1024) < 0.85*mdl.YAt(1024) {
		t.Errorf("NetFPGA @1024 = %.1f far from model %.1f", net.YAt(1024), mdl.YAt(1024))
	}
	if nfp.YAt(64) >= net.YAt(64) {
		t.Errorf("NFP (%.1f) above NetFPGA (%.1f) at 64B", nfp.YAt(64), net.YAt(64))
	}
	eth := rd.SeriesByName("40G Ethernet")
	if nfp.YAt(64) >= eth.YAt(64) {
		t.Error("64B reads reach 40G line rate; paper says they must not")
	}
	// Saw-tooth: measured BW drops crossing the MPS boundary (256->257).
	if net.YAt(257) >= net.YAt(256) {
		t.Error("no saw-tooth drop at 257B for reads")
	}
	// Writes: link-limited at ~42 Gb/s for 64B; higher for large.
	wr := figs[1]
	netw := wr.SeriesByName("fig4b (NetFPGA-HSW)")
	if v := netw.YAt(64); v < 34 || v > 44 {
		t.Errorf("BW_WR @64B = %.1f", v)
	}
	if netw.YAt(2048) <= netw.YAt(64) {
		t.Error("write bandwidth not rising with size")
	}
	// Read/write: per-direction throughput below unidirectional read.
	rw := figs[2]
	netrw := rw.SeriesByName("fig4c (NetFPGA-HSW)")
	if netrw.YAt(512) > net.YAt(512) {
		t.Error("BW_RDWR above BW_RD at 512B")
	}
}

func TestFig5Shapes(t *testing.T) {
	fig, err := quick.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	nfpRd := fig.SeriesByName("LAT_RD (NFP6000-HSW)")
	netRd := fig.SeriesByName("LAT_RD (NetFPGA-HSW)")
	nfpWr := fig.SeriesByName("LAT_WRRD (NFP6000-HSW)")
	if nfpRd == nil || netRd == nil || nfpWr == nil {
		t.Fatal("missing series")
	}
	// Latency rises with size; NFP above NetFPGA with a widening gap;
	// WRRD above RD.
	for i := 1; i < nfpRd.Len(); i++ {
		if nfpRd.Y[i] < nfpRd.Y[i-1] {
			t.Errorf("NFP LAT_RD not monotone at %gB", nfpRd.X[i])
		}
	}
	gapSmall := nfpRd.YAt(64) - netRd.YAt(64)
	gapLarge := nfpRd.YAt(2048) - netRd.YAt(2048)
	if gapSmall < 60 || gapSmall > 160 {
		t.Errorf("small-size NFP-NetFPGA gap = %.0fns, want ~100", gapSmall)
	}
	if gapLarge <= gapSmall {
		t.Error("gap does not widen with size")
	}
	if nfpWr.YAt(64) <= nfpRd.YAt(64) {
		t.Error("LAT_WRRD below LAT_RD")
	}
	// Fig 5 endpoints: NFP ~600ns at 8B rising to ~1500ns at 2048B.
	if v := nfpRd.YAt(8); v < 480 || v > 680 {
		t.Errorf("NFP LAT_RD @8B = %.0f", v)
	}
	if v := nfpRd.YAt(2048); v < 1300 || v > 1700 {
		t.Errorf("NFP LAT_RD @2048B = %.0f", v)
	}
}

func TestFig6Shapes(t *testing.T) {
	fig, err := quick.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	e5 := fig.SeriesByName("NFP6000-HSW")
	e3 := fig.SeriesByName("NFP6000-HSW-E3")
	if e5 == nil || e3 == nil {
		t.Fatal("missing series")
	}
	med := func(s interface{ YAt(float64) float64 }) float64 { return 0 } // unused helper placeholder
	_ = med
	// E5 is tight: the CDF climbs from ~520 to ~600 almost vertically.
	// E3: median > 1100ns, long tail.
	e5Med := inverseAt(e5.X, e5.Y, 0.5)
	e3Med := inverseAt(e3.X, e3.Y, 0.5)
	if e5Med < 500 || e5Med > 620 {
		t.Errorf("E5 median = %.0f, want ~547", e5Med)
	}
	if e3Med < 1000 || e3Med > 1500 {
		t.Errorf("E3 median = %.0f, want ~1213", e3Med)
	}
	e3p99 := inverseAt(e3.X, e3.Y, 0.99)
	if e3p99 < 4000 || e3p99 > 8000 {
		t.Errorf("E3 p99 = %.0f, want ~5707", e3p99)
	}
	// §6.2: the E3 minimum is lower than the E5's.
	if e3.X[0] >= e5.X[0] {
		t.Errorf("E3 min %.0f not below E5 min %.0f", e3.X[0], e5.X[0])
	}
}

// inverseAt returns the first x with cumulative fraction >= p.
func inverseAt(xs, cum []float64, p float64) float64 {
	for i := range xs {
		if cum[i] >= p {
			return xs[i]
		}
	}
	return xs[len(xs)-1]
}

func TestFig7Shapes(t *testing.T) {
	skipInShort(t)
	figs, err := quick.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	latFig, bwFig := figs[0], figs[1]

	rdCold := latFig.SeriesByName("8B LAT_RD (cold)")
	rdWarm := latFig.SeriesByName("8B LAT_RD (warm)")
	wrCold := latFig.SeriesByName("8B LAT_WRRD (cold)")
	wrWarm := latFig.SeriesByName("8B LAT_WRRD (warm)")
	if rdCold == nil || rdWarm == nil || wrCold == nil || wrWarm == nil {
		t.Fatal("missing latency series")
	}
	// Cold reads: flat (all DRAM).
	if d := rdCold.YAt(64<<20) - rdCold.YAt(4<<10); d > 25 || d < -25 {
		t.Errorf("cold LAT_RD not flat: delta %.0f", d)
	}
	// Warm reads: ~70ns cheaper inside the LLC, rising once the window
	// exceeds the 15MB LLC.
	if d := rdCold.YAt(64<<10) - rdWarm.YAt(64<<10); d < 50 || d > 90 {
		t.Errorf("warm benefit = %.0f, want ~70", d)
	}
	if d := rdWarm.YAt(64<<20) - rdWarm.YAt(64<<10); d < 50 {
		t.Errorf("warm LAT_RD did not rise past the LLC: %.0f", d)
	}
	// Cold WRRD shows the DDIO boundary: fast below 10% of LLC
	// (1.5MB), ~70ns slower beyond it.
	if d := wrCold.YAt(16<<20) - wrCold.YAt(256<<10); d < 50 {
		t.Errorf("DDIO boundary effect = %.0f, want ~70", d)
	}
	// Warm WRRD rises only past the LLC.
	if d := wrWarm.YAt(4<<20) - wrWarm.YAt(64<<10); d > 25 {
		t.Errorf("warm WRRD rose before the LLC boundary: %.0f", d)
	}

	// Bandwidth: 64B reads benefit from residency; writes do not care.
	bwRdCold := bwFig.SeriesByName("64B BW_RD (cold)")
	bwRdWarm := bwFig.SeriesByName("64B BW_RD (warm)")
	bwWrCold := bwFig.SeriesByName("64B BW_WR (cold)")
	bwWrWarm := bwFig.SeriesByName("64B BW_WR (warm)")
	if bwRdWarm.YAt(1<<20) <= bwRdCold.YAt(1<<20)*1.05 {
		t.Errorf("warm BW_RD %.1f not above cold %.1f", bwRdWarm.YAt(1<<20), bwRdCold.YAt(1<<20))
	}
	// Beyond the LLC, warm converges down to cold.
	big := bwRdWarm.YAt(64 << 20)
	if rel := (big - bwRdCold.YAt(64<<20)) / bwRdCold.YAt(64<<20); rel > 0.10 {
		t.Errorf("warm BW_RD still %.0f%% above cold at 64MB", rel*100)
	}
	for _, win := range []int{4 << 10, 1 << 20, 64 << 20} {
		w, c := bwWrWarm.YAt(float64(win)), bwWrCold.YAt(float64(win))
		if rel := (w - c) / c; rel > 0.05 || rel < -0.05 {
			t.Errorf("BW_WR cache sensitivity at %d: %.1f%%", win, rel*100)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	skipInShort(t)
	fig, err := quick.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	s64 := fig.SeriesByName("64B BW_RD")
	s128 := fig.SeriesByName("128B BW_RD")
	s512 := fig.SeriesByName("512B BW_RD")
	if s64 == nil || s128 == nil || s512 == nil {
		t.Fatal("missing series")
	}
	// §6.4: 64B remote reads lose ~20% inside the cache window,
	// ~10% beyond; 128B lose 5-7%; 512B essentially nothing.
	if v := s64.YAt(64 << 10); v > -12 || v < -30 {
		t.Errorf("64B in-cache NUMA penalty = %.1f%%, want ~-20", v)
	}
	if v := s64.YAt(64 << 20); v > -5 || v < -20 {
		t.Errorf("64B out-of-cache NUMA penalty = %.1f%%, want ~-10", v)
	}
	// Paper reports -5..-7% at 128B; in our model 128B reads are
	// already link-capped so the remote penalty is muted (a deviation
	// the expectations table notes in its paper column). Require the right sign and that it
	// sits between the 64B and 512B penalties.
	if v := s128.YAt(64 << 10); v > 0.5 || v < -15 {
		t.Errorf("128B NUMA penalty = %.1f%%, want small negative", v)
	}
	if !(s64.YAt(64<<10) < s128.YAt(64<<10)) {
		t.Error("64B penalty not larger than 128B penalty")
	}
	if v := s512.YAt(64 << 10); v < -3 || v > 3 {
		t.Errorf("512B NUMA penalty = %.1f%%, want ~0", v)
	}
	// The 64B penalty shrinks once the window leaves the cache.
	if s64.YAt(64<<20) <= s64.YAt(64<<10) {
		t.Error("64B penalty did not shrink beyond the LLC")
	}
}

func TestFig9Shapes(t *testing.T) {
	skipInShort(t)
	fig, err := quick.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	s64 := fig.SeriesByName("64B BW_RD")
	s256 := fig.SeriesByName("256B BW_RD")
	s512 := fig.SeriesByName("512B BW_RD")
	// §6.5: no measurable change while the window fits the IO-TLB
	// reach (256KB = 64 entries x 4KB)...
	for _, s := range []*struct {
		name string
		v    float64
	}{
		{"64B", s64.YAt(64 << 10)},
		{"256B", s256.YAt(64 << 10)},
		{"512B", s512.YAt(64 << 10)},
	} {
		if s.v < -6 || s.v > 6 {
			t.Errorf("%s change inside TLB reach = %.1f%%, want ~0", s.name, s.v)
		}
	}
	// ...then a cliff: ~-70% at 64B, ~-30% at 256B, ~0 at 512B.
	if v := s64.YAt(16 << 20); v > -55 || v < -85 {
		t.Errorf("64B beyond reach = %.1f%%, want ~-70", v)
	}
	if v := s256.YAt(16 << 20); v > -18 || v < -45 {
		t.Errorf("256B beyond reach = %.1f%%, want ~-30", v)
	}
	if v := s512.YAt(16 << 20); v < -10 {
		t.Errorf("512B beyond reach = %.1f%%, want ~0", v)
	}
	// The cliff sits between 256KB and 1MB windows.
	atReach := s64.YAt(256 << 10)
	past := s64.YAt(1 << 20)
	if past > atReach-20 {
		t.Errorf("no cliff between 256KB (%.1f%%) and 1MB (%.1f%%)", atReach, past)
	}
}

func TestTable2(t *testing.T) {
	skipInShort(t)
	tbl, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, want := range []string{"IOMMU", "DDIO", "NUMA", "superpages", "descriptor rings"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestExpectationsAllPass(t *testing.T) {
	skipInShort(t)
	tbl, err := Expectations(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 15 {
		t.Fatalf("only %d expectation rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// The single documented deviation (128B NUMA) is allowed to
		// carry a "deviation" note in its paper column; everything
		// else must be ok.
		if row[4] != "ok" && !strings.Contains(row[2], "deviation") {
			t.Errorf("%s / %s: paper %s measured %s -> %s", row[0], row[1], row[2], row[3], row[4])
		}
	}
}
