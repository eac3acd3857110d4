package report

import (
	"fmt"
	"math"

	"pciebench/internal/stats"
)

// Expectation is one paper-reported quantity checked against the
// simulator.
type Expectation struct {
	Experiment string
	Quantity   string
	Paper      string
	Measured   string
	OK         bool
}

// Expectations compares the key quantities the paper reports against
// the measured values of every figure in figs, producing the table
// recorded in EXPERIMENTS.md. A row is marked ok when the measured
// value falls within the stated tolerance of the paper's figure; rows
// that deviate are kept visible rather than hidden.
func Expectations(figs *Figures) (*Table, error) {
	t := &Table{
		Title:   "Paper vs measured (tolerances are on shape, not testbed-absolute values)",
		Columns: []string{"Experiment", "Quantity", "Paper", "Measured", "OK"},
	}
	add := func(exp, quantity, paper string, measured float64, unit string, lo, hi float64) {
		ok := measured >= lo && measured <= hi
		t.Rows = append(t.Rows, []string{
			exp, quantity, paper, fmt.Sprintf("%.1f%s", measured, unit), verdict(ok),
		})
	}

	// Figure 1 (analytical).
	fig1 := Fig1()
	add("fig1", "effective bidir BW @1500B", "~50 Gb/s",
		fig1.SeriesByName("Effective PCIe BW").YAt(1500), " Gb/s", 48, 53)
	cross := crossover(fig1)
	add("fig1", "simple NIC 40G crossover", ">512B", cross, " B", 384, 768)

	// Figure 2.
	fig2, err := figs.Fig2()
	if err != nil {
		return nil, err
	}
	add("fig2", "loopback latency @128B", "~1000 ns",
		fig2.SeriesByName("NIC").YAt(128), " ns", 800, 1200)
	add("fig2", "PCIe fraction @128B", "90.6%",
		100*fig2.SeriesByName("PCIe fraction").YAt(128), " %", 82, 95)
	add("fig2", "PCIe fraction @1500B", "77.2%",
		100*fig2.SeriesByName("PCIe fraction").YAt(1500), " %", 70, 85)

	// Figure 4.
	fig4, err := figs.Fig4()
	if err != nil {
		return nil, err
	}
	rd := fig4[0]
	add("fig4a", "NFP BW_RD @64B", "~30 Gb/s",
		rd.SeriesByName("fig4a (NFP6000-HSW)").YAt(64), " Gb/s", 25, 35)
	add("fig4a", "NetFPGA BW_RD @1024B", "~48 Gb/s",
		rd.SeriesByName("fig4a (NetFPGA-HSW)").YAt(1024), " Gb/s", 44, 54)
	add("fig4b", "NetFPGA BW_WR @64B", "~40 Gb/s",
		fig4[1].SeriesByName("fig4b (NetFPGA-HSW)").YAt(64), " Gb/s", 34, 44)

	// Figure 5.
	fig5, err := figs.Fig5()
	if err != nil {
		return nil, err
	}
	gap := fig5.SeriesByName("LAT_RD (NFP6000-HSW)").YAt(64) -
		fig5.SeriesByName("LAT_RD (NetFPGA-HSW)").YAt(64)
	add("fig5", "NFP-NetFPGA LAT_RD gap @64B", "~100 ns", gap, " ns", 60, 160)
	add("fig5", "NFP LAT_RD @2048B", "~1500 ns",
		fig5.SeriesByName("LAT_RD (NFP6000-HSW)").YAt(2048), " ns", 1300, 1700)

	// Figure 6.
	fig6, err := figs.Fig6()
	if err != nil {
		return nil, err
	}
	e5 := fig6.SeriesByName("NFP6000-HSW")
	e3 := fig6.SeriesByName("NFP6000-HSW-E3")
	add("fig6", "E5 median @64B", "547 ns", inverseAtSeries(e5, 0.5), " ns", 500, 620)
	add("fig6", "E3 median @64B", "1213 ns", inverseAtSeries(e3, 0.5), " ns", 1000, 1500)
	add("fig6", "E3 p99 @64B", "5707 ns", inverseAtSeries(e3, 0.99), " ns", 4000, 8000)

	// Figure 7.
	fig7, err := figs.Fig7()
	if err != nil {
		return nil, err
	}
	latFig := fig7[0]
	warmBenefit := latFig.SeriesByName("8B LAT_RD (cold)").YAt(64<<10) -
		latFig.SeriesByName("8B LAT_RD (warm)").YAt(64<<10)
	add("fig7a", "LLC-resident read benefit", "~70 ns", warmBenefit, " ns", 50, 90)
	ddio := latFig.SeriesByName("8B LAT_WRRD (cold)").YAt(16<<20) -
		latFig.SeriesByName("8B LAT_WRRD (cold)").YAt(256<<10)
	add("fig7a", "DDIO boundary penalty", "~70 ns", ddio, " ns", 50, 95)

	// Figure 8.
	fig8, err := figs.Fig8()
	if err != nil {
		return nil, err
	}
	add("fig8", "64B remote penalty (cached)", "-20 %",
		fig8.SeriesByName("64B BW_RD").YAt(64<<10), " %", -30, -12)
	add("fig8", "64B remote penalty (uncached)", "-10 %",
		fig8.SeriesByName("64B BW_RD").YAt(64<<20), " %", -20, -5)
	add("fig8", "128B remote penalty", "-5..-7 % (deviation: link-capped here)",
		fig8.SeriesByName("128B BW_RD").YAt(64<<10), " %", -15, 0.5)
	add("fig8", "512B remote penalty", "~0 %",
		fig8.SeriesByName("512B BW_RD").YAt(64<<10), " %", -3, 3)

	// Figure 9.
	fig9, err := figs.Fig9()
	if err != nil {
		return nil, err
	}
	add("fig9", "64B IOMMU drop beyond 256KB", "-70 %",
		fig9.SeriesByName("64B BW_RD").YAt(16<<20), " %", -85, -55)
	add("fig9", "256B IOMMU drop beyond 256KB", "-30 %",
		fig9.SeriesByName("256B BW_RD").YAt(16<<20), " %", -45, -18)
	add("fig9", "512B IOMMU drop beyond 256KB", "~0 %",
		fig9.SeriesByName("512B BW_RD").YAt(16<<20), " %", -10, 5)
	add("fig9", "64B IOMMU drop inside 256KB", "~0 %",
		fig9.SeriesByName("64B BW_RD").YAt(64<<10), " %", -6, 6)

	return t, nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "DEVIATES"
}

// crossover finds the packet size where the simple NIC first reaches
// the 40G Ethernet line rate in a Figure 1 result.
func crossover(fig *Figure) float64 {
	simple := fig.SeriesByName("Simple NIC")
	eth := fig.SeriesByName("40G Ethernet")
	for i := range simple.X {
		if simple.Y[i] >= eth.Y[i] {
			return simple.X[i]
		}
	}
	return math.Inf(1)
}

// inverseAtSeries reads a CDF series (X = latency values, Y =
// cumulative fractions): the smallest value whose fraction reaches p.
func inverseAtSeries(s *stats.Series, p float64) float64 {
	for i := range s.X {
		if s.Y[i] >= p {
			return s.X[i]
		}
	}
	return s.X[len(s.X)-1]
}
