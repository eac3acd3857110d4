package report

import (
	"fmt"

	"pciebench/internal/pcie"
	"pciebench/internal/stats"
	"pciebench/internal/sweep"
)

// Ablation experiments: MPS, link generation, the IOMMU's page walkers
// and the device's in-flight DMA limit, each varied in isolation to
// show which mechanism carries which paper result. They extend the
// paper's evaluation rather than reproduce a specific figure.
//
// The ablations are sweep specs run by the sweep engine, like the
// paper figures, but they are not registered: each is a pcie-repro
// figure, not a grid of the sweep registry.

// AblationMPS sweeps the negotiated Maximum Payload Size through the
// analytical model (model=true cells): the saw-tooth period and the
// achievable large-transfer bandwidth both follow MPS, which is why
// the paper's model takes it as an explicit parameter.
func AblationMPS(q Quality) (*Figure, error) {
	res, err := runSpec(&sweep.Spec{
		Name: "ablation-mps",
		Axes: []sweep.Axis{sweep.IntAxis("mps", 128, 256, 512), sweep.IntAxis("transfer", steps(64, 1520, 16)...)},
		Base: map[string]string{"bench": "bw_rdwr", "model": "true"},
	}, q)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-mps",
		Title:  "Effective bidirectional bandwidth vs MPS (model)",
		XLabel: "Transfer Size (Bytes)",
		YLabel: "Bandwidth (Gb/s)",
	}
	for _, c := range res.Cells {
		fig.series("MPS="+c.Cell.Get("mps")).Append(float64(c.Cell.Int("transfer")), c.Values[0])
	}
	return fig, nil
}

// ablationSpec is the shape the simulated ablations share: warm-cache
// BW_RD with jitter off from one fixed seed, on the given system and
// buffer setup, across the given axes.
func ablationSpec(name, seed string, base map[string]string, axes ...sweep.Axis) *sweep.Spec {
	kv := map[string]string{"bench": "bw_rd", "cache": "warm", "nojitter": "true", "seed": seed}
	for k, v := range base {
		kv[k] = v
	}
	return &sweep.Spec{Name: name, Axes: axes, Base: kv, SeedMode: sweep.SeedFixed}
}

// ablationFigure runs a one-axis ablation into fig as a single series
// over the axis.
func ablationFigure(s *sweep.Spec, q Quality, fig *Figure, series string) (*Figure, error) {
	res, err := runSpec(s, q)
	if err != nil {
		return nil, err
	}
	ser := &stats.Series{Name: series}
	for _, c := range res.Cells {
		ser.Append(float64(c.Cell.Int(s.Axes[0].Name)), c.Values[0])
	}
	fig.Series = []*stats.Series{ser}
	return fig, nil
}

// AblationGen4 projects the paper's baseline read bandwidth onto a
// PCIe Gen4 x8 link — the configuration §6 anticipates ("including the
// next generation PCIe Gen 4 once hardware is available"). Both the
// simulated NFP and the model curve (a second, model=true probe of
// each cell) are reported; at Gen4's doubled signalling rate the
// small-transfer region becomes latency-bound rather than link-bound,
// which is the projection's takeaway.
func AblationGen4(q Quality) (*Figure, error) {
	s := ablationSpec("ablation-gen4", "61",
		map[string]string{"system": "NFP6000-HSW", "buffer": "1M", "window": "8K"},
		sweep.IntAxis("gen", int(pcie.Gen3), int(pcie.Gen4)),
		sweep.IntAxis("transfer", 64, 128, 256, 512, 1024, 2048))
	s.Probes = []sweep.Probe{{}, {Set: map[string]string{"model": "true"}}}
	res, err := runSpec(s, q)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-gen4",
		Title:  "BW_RD projected onto PCIe Gen4 x8 (NFP6000-HSW host)",
		XLabel: "Transfer Size (Bytes)",
		YLabel: "Bandwidth (Gb/s)",
	}
	for _, c := range res.Cells {
		gen, x := pcie.Generation(c.Cell.Int("gen")), float64(c.Cell.Int("transfer"))
		fig.series(fmt.Sprintf("Model BW (%s)", gen)).Append(x, c.Values[1])
		fig.series(fmt.Sprintf("BW_RD (%s)", gen)).Append(x, c.Values[0])
	}
	return fig, nil
}

// AblationWalkers sweeps the IOMMU's page-walker pool size at a fixed
// post-cliff window, isolating the mechanism behind Figure 9's -70%:
// translation throughput is walkers/walkLatency, so the 64B bandwidth
// scales nearly linearly with the pool until the in-flight limit takes
// over.
func AblationWalkers(q Quality) (*Figure, error) {
	s := ablationSpec("ablation-walkers", "67",
		map[string]string{"system": "NFP6000-BDW", "iommu": "true", "window": "16M", "transfer": "64"},
		sweep.IntAxis("walkers", 1, 2, 4, 6, 8, 12))
	return ablationFigure(s, q, &Figure{
		ID:     "ablation-walkers",
		Title:  "64B BW_RD beyond the IO-TLB reach vs page-walker pool size",
		XLabel: "Walkers",
		YLabel: "Bandwidth (Gb/s)",
	}, "64B BW_RD @16MB window")
}

// AblationInFlight sweeps the device's in-flight DMA limit for 64B
// reads, the paper's §2 sizing argument: covering a ~550ns latency at
// 40G line rate for small packets needs ~30 concurrent DMAs. Bandwidth
// grows linearly with the window until the link serialization takes
// over.
func AblationInFlight(q Quality) (*Figure, error) {
	s := ablationSpec("ablation-inflight", "71",
		map[string]string{"system": "NFP6000-HSW", "buffer": "1M", "window": "8K", "transfer": "64"},
		sweep.IntAxis("dmainflight", 1, 2, 4, 8, 16, 32, 64, 128))
	return ablationFigure(s, q, &Figure{
		ID:     "ablation-inflight",
		Title:  "64B BW_RD vs device in-flight DMA limit (NFP6000-HSW)",
		XLabel: "In-flight DMAs",
		YLabel: "Bandwidth (Gb/s)",
	}, "64B BW_RD")
}
