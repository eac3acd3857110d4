package report

import (
	"context"
	"fmt"
	"sync"

	"pciebench/internal/model"
	"pciebench/internal/pcie"
	"pciebench/internal/stats"
	"pciebench/internal/sweep"
	"pciebench/internal/sysconf"
)

// Every measured experiment below is a registered sweep.Spec — the
// declarative grid of axes the paper's figure walks — plus a thin
// assembly function that shapes the executed cells into the figure's
// series. The sweep engine runs each cell as an independent runner
// unit with deterministic seeds, so the output stays byte-identical at
// any parallelism while the wall clock scales with the worker count.
// The same specs are runnable standalone from the CLI (`pcie-repro
// -run fig4 gen=4,5`), where the generic grid emitters apply.

func init() {
	for _, s := range []*sweep.Spec{
		fig2Spec(), fig4Spec(), fig5Spec(), fig6Spec(),
		fig7Spec(), fig8Spec(), fig9Spec(), ddioSpec(),
	} {
		sweep.Register(s)
	}
}

// runSpec executes a spec on a GOMAXPROCS-wide engine.
func runSpec(s *sweep.Spec, q Quality) (*sweep.Result, error) {
	e := &sweep.Engine{Quality: q}
	res, _, err := e.Run(context.Background(), s)
	return res, err
}

// steps returns lo, lo+step, ... up to hi: the transfer sizes of
// Figures 1 and 2.
func steps(lo, hi, step int) []int {
	var sizes []int
	for sz := lo; sz <= hi; sz += step {
		sizes = append(sizes, sz)
	}
	return sizes
}

// fig1Spec evaluates Figure 1's model as model=true cells: the link's
// effective bidirectional bandwidth, then the per-direction bandwidth
// of the simple, kernel and DPDK designs.
func fig1Spec() *sweep.Spec {
	probes := []sweep.Probe{{Set: map[string]string{"bench": "bw_rdwr"}}}
	for _, nic := range []string{"simple", "kernel", "dpdk"} {
		probes = append(probes, sweep.Probe{
			Set:    map[string]string{"bench": "workload", "nic": nic},
			Metric: sweep.MetricGbps,
		})
	}
	return &sweep.Spec{
		Name:   "fig1",
		Axes:   []sweep.Axis{sweep.IntAxis("transfer", steps(64, 1520, 16)...)},
		Base:   map[string]string{"model": "true"},
		Probes: probes,
	}
}

// Fig1 evaluates the modeled bidirectional bandwidth of a Gen3 x8 link
// against the achievable throughput of the paper's NIC/driver designs
// (§2, Figure 1), with the 40G Ethernet line for reference.
func Fig1(q Quality) (*Figure, error) {
	res, err := runSpec(fig1Spec(), q)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig1",
		Title:  "Modeled bidirectional bandwidth, PCIe Gen3 x8",
		XLabel: "Transfer Size (Bytes)",
		YLabel: "Bandwidth (Gb/s)",
	}
	for _, name := range []string{
		"Effective PCIe BW", "40G Ethernet",
		"Simple NIC", "Modern NIC (kernel driver)", "Modern NIC (DPDK driver)",
	} {
		fig.Series = append(fig.Series, &stats.Series{Name: name})
	}
	for _, c := range res.Cells {
		sz := c.Cell.Int("transfer")
		ys := append([]float64{c.Values[0], model.EthernetLineRate(40e9, sz) / 1e9}, c.Values[1:]...)
		for i, y := range ys {
			fig.Series[i].Append(float64(sz), y)
		}
	}
	return fig, nil
}

func fig2Spec() *sweep.Spec {
	return &sweep.Spec{
		Name:        "fig2",
		Title:       "Measurement of NIC PCIe latency (loopback)",
		Description: "ExaNIC-style loopback latency and its PCIe share across frame sizes (§2, Fig 2)",
		XAxis:       "transfer",
		XLabel:      "Transfer Size (Bytes)",
		YLabel:      "Median Latency (ns)",
		Axes:        []sweep.Axis{sweep.IntAxis("transfer", steps(64, 1600, 64)...)},
		Base: map[string]string{
			"system": "NFP6000-HSW", "bench": "loopback",
			"buffer": "1M", "nojitter": "true",
		},
		SeedMode: sweep.SeedFixed,
	}
}

// Fig2 measures the ExaNIC-style loopback NIC latency and its PCIe
// share across frame sizes (§2, Figure 2). Each frame size is one cell
// with its own loopback instance.
func Fig2(q Quality) (*Figure, error) {
	res, err := runSpec(fig2Spec(), q)
	if err != nil {
		return nil, err
	}
	total := &stats.Series{Name: "NIC"}
	pcieNS := &stats.Series{Name: "PCIe contribution"}
	frac := &stats.Series{Name: "PCIe fraction"}
	for _, c := range res.Cells {
		x := float64(c.Cell.Int("transfer"))
		m := c.Meas[0]
		total.Append(x, m.Median)
		pcieNS.Append(x, m.Median*m.Frac)
		frac.Append(x, m.Frac)
	}
	return &Figure{
		ID:     "fig2",
		Title:  "Measurement of NIC PCIe latency (loopback)",
		XLabel: "Transfer Size (Bytes)",
		YLabel: "Median Latency (ns)",
		Series: []*stats.Series{total, pcieNS, frac},
	}, nil
}

// Table1 reproduces the system-configuration table.
func Table1() *Table {
	t := &Table{
		Title:   "Table 1: System configurations",
		Columns: []string{"Name", "CPU", "NUMA", "Architecture", "Memory", "OS/Kernel", "Network Adapter", "LLC"},
	}
	for _, s := range sysconf.Systems() {
		t.Rows = append(t.Rows, []string{
			s.Name, s.CPU, s.NUMA, s.Arch, s.Memory, s.OS, s.Adapter.String(),
			fmt.Sprintf("%dMB", s.LLCBytes>>20),
		})
	}
	return t
}

// baselineSystems are the two devices compared in Figures 4 and 5.
var baselineSystems = []string{"NFP6000-HSW", "NetFPGA-HSW"}

// baselineBase is the Fig 4/5 cell setup: an 8 KB host-warmed window
// in a 1 MB buffer, no jitter for reproducible medians.
func baselineBase(seed string) map[string]string {
	return map[string]string{
		"window": "8K", "cache": "warm", "nojitter": "true",
		"buffer": "1M", "seed": seed,
	}
}

// fig4Kinds maps the Figure 4 benchmark axis to sub-figure IDs and
// model curves.
var fig4Kinds = []struct {
	bench string
	id    string
	title string
	model func(pcie.LinkConfig, int) float64
}{
	{"bw_rd", "fig4a", "PCIe Read Bandwidth", model.EffectiveReadBandwidth},
	{"bw_wr", "fig4b", "PCIe Write Bandwidth", model.EffectiveWriteBandwidth},
	{"bw_rdwr", "fig4c", "PCIe Read/Write Bandwidth", model.EffectiveBidirBandwidth},
}

func fig4Spec() *sweep.Spec {
	return &sweep.Spec{
		Name:        "fig4",
		Title:       "Baseline bandwidth, NFP6000-HSW vs NetFPGA-HSW",
		Description: "BW_RD/BW_WR/BW_RDWR across transfer sizes, warm 8KB window (§6.1, Fig 4)",
		XAxis:       "transfer",
		XLabel:      "Transfer Size (Bytes)",
		YLabel:      "Bandwidth (Gb/s)",
		Axes: []sweep.Axis{
			sweep.StrAxis("bench", "bw_rd", "bw_wr", "bw_rdwr"),
			sweep.StrAxis("system", baselineSystems...),
			sweep.IntAxis("transfer", transferSizes()...),
		},
		Base:     baselineBase("11"),
		SeedMode: sweep.SeedFixed,
	}
}

// Fig4 runs the baseline bandwidth comparison (Figure 4): BW_RD, BW_WR
// and BW_RDWR for NFP6000-HSW and NetFPGA-HSW against the model, with a
// warm 8 KB window. Every (benchmark, system, size) point is one cell
// against a freshly built target.
func Fig4(q Quality) ([]*Figure, error) {
	res, err := runSpec(fig4Spec(), q)
	if err != nil {
		return nil, err
	}
	cfg := pcie.DefaultGen3x8()
	var out []*Figure
	idOf := make(map[string]string)
	seriesOf := make(map[string]*stats.Series)
	for _, kind := range fig4Kinds {
		idOf[kind.bench] = kind.id
		fig := &Figure{
			ID:     kind.id,
			Title:  kind.title,
			XLabel: "Transfer Size (Bytes)",
			YLabel: "Bandwidth (Gb/s)",
		}
		mdl := &stats.Series{Name: "Model BW"}
		eth := &stats.Series{Name: "40G Ethernet"}
		for _, sz := range transferSizes() {
			mdl.Append(float64(sz), kind.model(cfg, sz)/1e9)
			eth.Append(float64(sz), model.EthernetLineRate(40e9, sz)/1e9)
		}
		fig.Series = append(fig.Series, mdl, eth)
		for _, sysName := range baselineSystems {
			series := &stats.Series{Name: fmt.Sprintf("%s (%s)", kind.id, sysName)}
			seriesOf[kind.id+"|"+sysName] = series
			fig.Series = append(fig.Series, series)
		}
		out = append(out, fig)
	}
	// Assemble from the cells the sweep ran over, so values cannot land
	// on the wrong series if the enumeration ever changes.
	for _, c := range res.Cells {
		key := idOf[c.Cell.Get("bench")] + "|" + c.Cell.Get("system")
		seriesOf[key].Append(float64(c.Cell.Int("transfer")), c.Values[0])
	}
	return out, nil
}

func fig5Spec() *sweep.Spec {
	return &sweep.Spec{
		Name:        "fig5",
		Title:       "Median DMA latency, NFP6000-HSW vs NetFPGA-HSW",
		Description: "Median LAT_RD and LAT_WRRD across transfer sizes (§6.1, Fig 5)",
		XAxis:       "transfer",
		XLabel:      "Transfer Size (Bytes)",
		YLabel:      "Latency (ns)",
		Axes: []sweep.Axis{
			sweep.StrAxis("system", baselineSystems...),
			sweep.IntAxis("transfer", latencySizes()...),
		},
		Base: baselineBase("13"),
		Probes: []sweep.Probe{
			{Label: "LAT_RD", Set: map[string]string{"bench": "lat_rd"}},
			{Label: "LAT_WRRD", Set: map[string]string{"bench": "lat_wrrd"}},
		},
		SeedMode: sweep.SeedFixed,
	}
}

// Fig5 runs the baseline latency comparison (Figure 5): median LAT_RD
// and LAT_WRRD for both devices across transfer sizes. One cell per
// (system, size) pair measures both benchmarks on fresh targets.
func Fig5(q Quality) (*Figure, error) {
	res, err := runSpec(fig5Spec(), q)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig5",
		Title:  "Median DMA latency, NFP6000-HSW vs NetFPGA-HSW",
		XLabel: "Transfer Size (Bytes)",
		YLabel: "Latency (ns)",
	}
	rdOf := make(map[string]*stats.Series)
	wrOf := make(map[string]*stats.Series)
	for _, sysName := range baselineSystems {
		rdOf[sysName] = &stats.Series{Name: "LAT_RD (" + sysName + ")"}
		wrOf[sysName] = &stats.Series{Name: "LAT_WRRD (" + sysName + ")"}
		fig.Series = append(fig.Series, rdOf[sysName], wrOf[sysName])
	}
	for _, c := range res.Cells {
		sysName := c.Cell.Get("system")
		x := float64(c.Cell.Int("transfer"))
		rdOf[sysName].Append(x, c.Values[0])
		wrOf[sysName].Append(x, c.Values[1])
	}
	return fig, nil
}

func fig6Spec() *sweep.Spec {
	return &sweep.Spec{
		Name:        "fig6",
		Title:       "Latency distribution, 64B DMA reads, warm cache",
		Description: "64B read-latency CDFs for the Xeon E5 and E3 hosts, jitter models active (§6.2, Fig 6)",
		XLabel:      "Latency (ns)",
		YLabel:      "CDF",
		Axes:        []sweep.Axis{sweep.StrAxis("system", "NFP6000-HSW", "NFP6000-HSW-E3")},
		Base: map[string]string{
			"bench": "lat_rd", "window": "8K", "transfer": "64",
			"cache": "warm", "buffer": "1M", "seed": "17",
		},
		Probes:   []sweep.Probe{{Label: "LAT_RD", Metric: sweep.MetricCDF}},
		SeedMode: sweep.SeedFixed,
	}
}

// Fig6 produces the 64 B read-latency CDFs for the Xeon E5 and E3
// systems (Figure 6), with the jitter models active. Each system is one
// cell.
func Fig6(q Quality) (*Figure, error) {
	res, err := runSpec(fig6Spec(), q)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig6",
		Title:  "Latency distribution, 64B DMA reads, warm cache",
		XLabel: "Latency (ns)",
		YLabel: "CDF",
	}
	for _, c := range res.Cells {
		cdf := c.Meas[0].CDF
		s := &stats.Series{Name: c.Cell.Get("system")}
		s.X = cdf.Values
		s.Y = cdf.Cum
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

func fig7Spec() *sweep.Spec {
	return &sweep.Spec{
		Name:        "fig7",
		Title:       "Cache effects on latency and bandwidth (NFP6000-SNB)",
		Description: "Window sweep exposing LLC and DDIO effects, cold vs warm (§6.3, Fig 7)",
		XAxis:       "window",
		XLabel:      "Window size (Bytes)",
		YLabel:      "Latency (ns) / Bandwidth (Gb/s)",
		Axes: []sweep.Axis{
			sweep.StrAxis("cache", "cold", "warm"),
			sweep.IntAxis("window", windowSizes()...),
		},
		Base: map[string]string{
			"system": "NFP6000-SNB", "nojitter": "true", "seed": "19",
		},
		// All four benchmarks of a point run against one freshly built
		// instance, exactly like the paper's per-point runs.
		SharedInstance: true,
		Probes: []sweep.Probe{
			{Label: "8B LAT_RD", Set: map[string]string{"bench": "lat_rd", "transfer": "8", "direct": "true"}},
			{Label: "8B LAT_WRRD", Set: map[string]string{"bench": "lat_wrrd", "transfer": "8", "direct": "true"}},
			{Label: "64B BW_RD", Set: map[string]string{"bench": "bw_rd", "transfer": "64"}},
			{Label: "64B BW_WR", Set: map[string]string{"bench": "bw_wr", "transfer": "64"}},
		},
		SeedMode: sweep.SeedFixed,
	}
}

// Fig7 sweeps the window size to expose LLC and DDIO effects on the
// NFP6000-SNB system (Figure 7): (a) 8 B latency via the direct command
// interface, cold vs warm; (b) 64 B bandwidth, cold vs warm. One cell
// per (cache state, window) runs all four benchmarks against a shared
// freshly built instance.
func Fig7(q Quality) ([]*Figure, error) {
	res, err := runSpec(fig7Spec(), q)
	if err != nil {
		return nil, err
	}
	figA := &Figure{
		ID: "fig7a", Title: "Cache effects on latency (NFP6000-SNB)",
		XLabel: "Window size (Bytes)", YLabel: "Latency (ns)",
	}
	figB := &Figure{
		ID: "fig7b", Title: "Cache effects on bandwidth (NFP6000-SNB)",
		XLabel: "Window size (Bytes)", YLabel: "Bandwidth (Gb/s)",
	}
	type group struct{ latRd, latWr, bwRd, bwWr *stats.Series }
	groups := make(map[string]group)
	for _, cache := range []string{"cold", "warm"} {
		g := group{
			latRd: &stats.Series{Name: fmt.Sprintf("8B LAT_RD (%s)", cache)},
			latWr: &stats.Series{Name: fmt.Sprintf("8B LAT_WRRD (%s)", cache)},
			bwRd:  &stats.Series{Name: fmt.Sprintf("64B BW_RD (%s)", cache)},
			bwWr:  &stats.Series{Name: fmt.Sprintf("64B BW_WR (%s)", cache)},
		}
		groups[cache] = g
		figA.Series = append(figA.Series, g.latRd, g.latWr)
		figB.Series = append(figB.Series, g.bwRd, g.bwWr)
	}
	for _, c := range res.Cells {
		g := groups[c.Cell.Get("cache")]
		x := float64(c.Cell.Int("window"))
		g.latRd.Append(x, c.Values[0])
		g.latWr.Append(x, c.Values[1])
		g.bwRd.Append(x, c.Values[2])
		g.bwWr.Append(x, c.Values[3])
	}
	return []*Figure{figA, figB}, nil
}

// bwDeltaSpec is the shared shape of Figures 8 and 9: for several
// transfer sizes across window sizes, measure warm-cache BW_RD on
// NFP6000-BDW under a baseline and a perturbed build of the system,
// and report the percentage change. One cell per (size, window)
// measures both settings.
func bwDeltaSpec(name, title, description, seed string, extraBase, contrastSet map[string]string) *sweep.Spec {
	base := map[string]string{
		"system": "NFP6000-BDW", "bench": "bw_rd", "cache": "warm",
		"nojitter": "true", "seed": seed,
	}
	for k, v := range extraBase {
		base[k] = v
	}
	return &sweep.Spec{
		Name:        name,
		Title:       title,
		Description: description,
		XAxis:       "window",
		XLabel:      "Window size (Bytes)",
		YLabel:      "% change of bandwidth",
		Axes: []sweep.Axis{
			sweep.IntAxis("transfer", 64, 128, 256, 512),
			sweep.IntAxis("window", windowSizes()...),
		},
		Base:     base,
		Contrast: &sweep.Contrast{Set: contrastSet},
		SeedMode: sweep.SeedFixed,
	}
}

// bwDeltaFigure assembles a Figure 8/9-shaped result: one series per
// transfer size across window sizes.
func bwDeltaFigure(s *sweep.Spec, q Quality, id, title string) (*Figure, error) {
	res, err := runSpec(s, q)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "Window size (Bytes)", YLabel: "% change of bandwidth",
	}
	seriesOf := make(map[int]*stats.Series)
	for _, sz := range []int{64, 128, 256, 512} {
		seriesOf[sz] = &stats.Series{Name: fmt.Sprintf("%dB BW_RD", sz)}
		fig.Series = append(fig.Series, seriesOf[sz])
	}
	for _, c := range res.Cells {
		seriesOf[c.Cell.Int("transfer")].Append(float64(c.Cell.Int("window")), c.Values[0])
	}
	return fig, nil
}

func fig8Spec() *sweep.Spec {
	return bwDeltaSpec("fig8",
		"Local vs remote DMA reads, warm cache (NFP6000-BDW)",
		"NUMA penalty: % change of warm BW_RD, node-local vs remote buffer (§6.4, Fig 8)",
		"23",
		map[string]string{"node": "0"},
		map[string]string{"node": "1"})
}

// Fig8 measures the NUMA penalty on NFP6000-BDW (Figure 8): percentage
// change of warm-cache BW_RD between a node-local and a remote buffer.
func Fig8(q Quality) (*Figure, error) {
	return bwDeltaFigure(fig8Spec(), q, "fig8",
		"Local vs remote DMA reads, warm cache (NFP6000-BDW)")
}

func fig9Spec() *sweep.Spec {
	return bwDeltaSpec("fig9",
		"IOMMU impact on DMA reads, warm cache (NFP6000-BDW)",
		"IOMMU impact: % change of warm BW_RD, IOMMU on (4KB mappings) vs off (§6.5, Fig 9)",
		"29",
		map[string]string{"iommu": "false", "sp": "false"},
		map[string]string{"iommu": "true"})
}

// Fig9 measures the IOMMU impact on NFP6000-BDW (Figure 9): percentage
// change of warm-cache BW_RD with the IOMMU enabled (4 KB mappings,
// sp_off) relative to disabled.
func Fig9(q Quality) (*Figure, error) {
	return bwDeltaFigure(fig9Spec(), q, "fig9",
		"IOMMU impact on DMA reads, warm cache (NFP6000-BDW)")
}

func ddioSpec() *sweep.Spec {
	return &sweep.Spec{
		Name:        "table2-ddio",
		Title:       "DDIO: 8B direct-read latency, warm vs cold (NFP6000-SNB)",
		Description: "Descriptor-sized direct reads with the window cache-resident vs thrashed (Table 2)",
		XAxis:       "cache",
		XLabel:      "Cache state",
		YLabel:      "Median latency (ns)",
		Axes:        []sweep.Axis{sweep.StrAxis("cache", "warm", "cold")},
		Base: map[string]string{
			"system": "NFP6000-SNB", "bench": "lat_rd", "window": "64K",
			"transfer": "8", "direct": "true", "nojitter": "true", "seed": "31",
		},
		SeedMode: sweep.SeedFixed,
	}
}

// Figures is one run's measured paper figures. Each is computed on its
// first call and then kept, so the tables derived from them (Table2,
// Expectations) reuse the figures a run already has instead of
// re-running their sweeps.
type Figures struct {
	q                                  Quality
	Fig1, Fig2, Fig5, Fig6, Fig8, Fig9 func() (*Figure, error)
	Fig4, Fig7                         func() ([]*Figure, error)
}

// NewFigures returns a figure set measured at quality q, with nothing
// computed yet.
func NewFigures(q Quality) *Figures {
	return &Figures{
		q:    q,
		Fig1: once(q, Fig1), Fig2: once(q, Fig2), Fig4: once(q, Fig4), Fig5: once(q, Fig5), Fig6: once(q, Fig6),
		Fig7: once(q, Fig7), Fig8: once(q, Fig8), Fig9: once(q, Fig9),
	}
}

// once memoizes the experiment run at quality q.
func once[T any](q Quality, run func(Quality) (T, error)) func() (T, error) {
	return sync.OnceValues(func() (T, error) { return run(q) })
}

// Table2 derives the paper's notable-findings table from measurements
// (Table 2), quoting the measured evidence for each recommendation. It
// reads Figs 8 and 9 from figs and measures only the DDIO cells
// itself.
func Table2(figs *Figures) (*Table, error) {
	t := &Table{
		Title:   "Table 2: Notable findings, derived experimentally",
		Columns: []string{"Area", "Observation (measured)", "Recommendation"},
	}

	// IOMMU: throughput collapse beyond the IO-TLB reach.
	fig9, err := figs.Fig9()
	if err != nil {
		return nil, err
	}
	s64 := fig9.SeriesByName("64B BW_RD")
	inReach := s64.YAt(64 << 10)
	beyond := s64.YAt(16 << 20)
	t.Rows = append(t.Rows, []string{
		"IOMMU (Fig 9)",
		fmt.Sprintf("64B read bandwidth %.0f%% inside the IO-TLB reach, %.0f%% beyond it", inReach, beyond),
		"Co-locate I/O buffers into superpages.",
	})

	// DDIO: warm descriptor-sized accesses are faster. The two cache
	// states are independent cells.
	ddio, err := runSpec(ddioSpec(), figs.q)
	if err != nil {
		return nil, err
	}
	warm, cold := ddio.Cells[0].Values[0], ddio.Cells[1].Values[0]
	t.Rows = append(t.Rows, []string{
		"DDIO (Fig 7)",
		fmt.Sprintf("small reads %.0fns faster when cache resident (%.0f vs %.0f)", cold-warm, warm, cold),
		"DDIO improves descriptor ring access and small-packet receive.",
	})

	// NUMA small transfers: remote cache reads cost bandwidth.
	fig8, err := figs.Fig8()
	if err != nil {
		return nil, err
	}
	n64 := fig8.SeriesByName("64B BW_RD").YAt(64 << 10)
	t.Rows = append(t.Rows, []string{
		"NUMA, small transactions (Fig 8)",
		fmt.Sprintf("64B remote reads lose %.0f%% of bandwidth vs local cache", -n64),
		"Place descriptor rings on the node local to the device.",
	})

	// NUMA large transfers: locality stops mattering.
	n512 := fig8.SeriesByName("512B BW_RD").YAt(64 << 10)
	t.Rows = append(t.Rows, []string{
		"NUMA, large transactions (Fig 8)",
		fmt.Sprintf("512B remote reads change bandwidth by only %.1f%%", n512),
		"Place packet buffers on the node where processing happens.",
	})
	return t, nil
}
