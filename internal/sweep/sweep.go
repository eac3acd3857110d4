// Package sweep is the declarative parameter-sweep engine behind every
// figure and table of the reproduction.
//
// The paper's contribution is a methodology: pcie-bench sweeps transfer
// size x window x offset x cache state x NUMA node x IOMMU state across
// host/NIC combinations. A Spec captures one such sweep as data — named
// axes over sysconf.Options and bench.Params (system, benchmark kind,
// link generation/lanes/MPS/MRRS, cache state, NUMA node, IOMMU,
// transfer/window/offset, ...) — which the engine expands into a grid
// of cells, executes on the internal/runner worker pool with
// deterministic seeds, and renders through pluggable emitters (aligned
// table, gnuplot TSV, JSON, CSV).
//
// Specs are plain JSON-serializable values: the registered paper
// figures are Specs (see internal/report), and entirely new grids —
// Gen4/Gen5 links, hypothetical NIC what-ifs, custom cache/NUMA
// matrices — run from a JSON file or axis-override strings without any
// Go code.
//
// The Spec JSON format is a versioned, strict wire contract shared by
// the CLIs and the HTTP serving layer (internal/serve): documents
// carry a "version" field (SpecVersion; legacy version-less documents
// read as version 1), unknown fields are rejected with errors naming
// the valid keys, and every grid — pcie-repro and its ablations,
// pcie-bench -run/-spec/-suite, pcie-served — executes through the
// same Engine, which dedups cells against a content-addressed result
// cache (internal/cache) keyed by canonical cell spec + seed + build
// version. A pcie-bench single run is one cell, measured by Single
// through the same code.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"pciebench/internal/bench"
	"pciebench/internal/fault"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// Benchmark kinds a cell can run. The five pcie-bench names follow
// paper §4; loopback is the ExaNIC-style round trip of §2 (Figure 2);
// workload is the multi-queue traffic engine (internal/workload).
const (
	BenchLatRd    = "lat_rd"
	BenchLatWrRd  = "lat_wrrd"
	BenchBwRd     = "bw_rd"
	BenchBwWr     = "bw_wr"
	BenchBwRdWr   = "bw_rdwr"
	BenchLoopback = "loopback"
	BenchWorkload = "workload"
	// BenchP2P measures device-to-device transfers between two
	// endpoints of a topology: the direct peer path vs the bounce
	// through host DRAM (internal/topo.RunP2P).
	BenchP2P = "p2p"
)

// Probe metrics. Workload cells additionally accept "qpps<i>", the
// packet rate of queue i, and multi-endpoint cells "epps<i>", the
// packet rate of endpoint i.
const (
	MetricMedian = "median" // median latency in ns
	MetricGbps   = "gbps"   // per-direction payload bandwidth
	MetricFrac   = "frac"   // PCIe fraction of the loopback round trip
	MetricCDF    = "cdf"    // full latency distribution (median in Values)
	MetricPPS    = "pps"    // aggregate packet-pair rate (workload)
	MetricP50    = "p50"    // completion-latency p50 in ns (workload)
	MetricP99    = "p99"    // completion-latency p99 in ns (workload)
	MetricP999   = "p999"   // completion-latency p99.9 in ns (workload)
	// MetricEPPSMin/Max are the slowest and fastest endpoint packet
	// rates of a multi-endpoint workload cell — their ratio is the
	// bandwidth-partitioning fairness of a shared uplink.
	MetricEPPSMin = "eppsmin"
	MetricEPPSMax = "eppsmax"
	// MetricReplays/Timeouts/Retrains are the fault-injection event
	// counts summed over endpoints (see internal/fault); the indexed
	// forms "replays<i>"/"timeouts<i>"/"retrains<i>" name endpoint
	// i's count.
	MetricReplays  = "replays"
	MetricTimeouts = "timeouts"
	MetricRetrains = "retrains"
)

// queuePPSIndex parses the dynamic "qpps<i>" metric naming queue i's
// packet rate.
func queuePPSIndex(metric string) (int, bool) {
	return indexedMetric(metric, "qpps")
}

// endpointPPSIndex parses the dynamic "epps<i>" metric naming endpoint
// i's packet rate.
func endpointPPSIndex(metric string) (int, bool) {
	return indexedMetric(metric, "epps")
}

func indexedMetric(metric, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(metric, prefix)
	if !ok || rest == "" {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// faultMetricIndex parses the dynamic per-endpoint fault metrics
// ("replays<i>", "timeouts<i>", "retrains<i>"), returning the base
// metric name and the endpoint index.
func faultMetricIndex(metric string) (base string, ep int, ok bool) {
	for _, b := range []string{MetricReplays, MetricTimeouts, MetricRetrains} {
		if i, match := indexedMetric(metric, b); match {
			return b, i, true
		}
	}
	return "", 0, false
}

// validMetric reports whether a probe metric name is known.
func validMetric(m string) bool {
	switch m {
	case "", MetricMedian, MetricGbps, MetricFrac, MetricCDF,
		MetricPPS, MetricP50, MetricP99, MetricP999,
		MetricEPPSMin, MetricEPPSMax,
		MetricReplays, MetricTimeouts, MetricRetrains:
		return true
	}
	if _, ok := queuePPSIndex(m); ok {
		return true
	}
	if _, ok := endpointPPSIndex(m); ok {
		return true
	}
	_, _, ok := faultMetricIndex(m)
	return ok
}

// Seed modes.
const (
	// SeedPerCell derives a decorrelated seed per cell from the base
	// seed and the cell index (the default): every cell is an
	// independent experiment, reproducible at any worker count.
	SeedPerCell = "per-cell"
	// SeedFixed builds every cell from the same base seed, like the
	// paper figures which rebuild one calibrated instance per point.
	SeedFixed = "fixed"
)

// Axis is one named dimension of a sweep grid. Values are strings so
// axes round-trip through JSON and CLI overrides; they are parsed
// according to the axis name (sizes accept K/M/G suffixes, booleans
// accept true/false/on/off/1/0).
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// IntAxis builds an axis over integer values.
func IntAxis(name string, values ...int) Axis {
	a := Axis{Name: name}
	for _, v := range values {
		a.Values = append(a.Values, strconv.Itoa(v))
	}
	return a
}

// StrAxis builds an axis over string values.
func StrAxis(name string, values ...string) Axis {
	return Axis{Name: name, Values: values}
}

// Probe is one measurement taken per cell: parameter overrides applied
// on top of the cell's assignment, and the metric to extract. A spec
// with no probes measures the cell itself once.
type Probe struct {
	// Label names the probe's column in emitted grids; defaults to
	// "<bench>:<metric>".
	Label string `json:"label,omitempty"`
	// Set overrides cell parameters for this probe (same keys as axes).
	Set map[string]string `json:"set,omitempty"`
	// Metric selects the extracted value: median, gbps, frac or cdf.
	// Defaults by benchmark kind (latency -> median, bandwidth -> gbps,
	// loopback -> median).
	Metric string `json:"metric,omitempty"`
}

// Contrast turns a sweep into a differential experiment: every probe
// runs once as configured (baseline) and once with Set applied
// (perturbed), and the cell value is the reduction of the two — the
// shape of the paper's NUMA (Fig 8) and IOMMU (Fig 9) experiments.
type Contrast struct {
	// Label names the perturbation in emitted grids.
	Label string `json:"label,omitempty"`
	// Set is the perturbed configuration delta (e.g. {"node": "1"} or
	// {"iommu": "true"}).
	Set map[string]string `json:"set"`
	// Reduce combines baseline and perturbed values: "pct_delta"
	// (default, 100*(perturbed-base)/base) or "delta" (perturbed-base).
	Reduce string `json:"reduce,omitempty"`
}

// SpecVersion is the current Spec wire-format version. The JSON
// contract is versioned and strict: documents carry a "version" field
// (legacy version-less documents are accepted as version 1), unknown
// fields are rejected with an error naming the valid keys, and a
// document written by a newer format version fails loudly instead of
// being half-understood. Bump this only when the wire format changes
// incompatibly.
const SpecVersion = 1

// Spec is one declarative sweep: a named grid of cells with the
// measurements to take in each.
type Spec struct {
	// Version is the wire-format version of the document (see
	// SpecVersion); 0 means a legacy version-less document and is
	// equivalent to 1.
	Version     int    `json:"version,omitempty"`
	Name        string `json:"name"`
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`

	// XAxis names the axis emitters treat as the x coordinate;
	// XLabel/YLabel annotate rendered output.
	XAxis  string `json:"x_axis,omitempty"`
	XLabel string `json:"x_label,omitempty"`
	YLabel string `json:"y_label,omitempty"`

	// Axes span the grid; cells enumerate in cross-product order with
	// the first axis outermost.
	Axes []Axis `json:"axes"`
	// Base holds cell parameters common to the whole grid (same keys
	// as axes); axis values override base, probe sets override both.
	Base map[string]string `json:"base,omitempty"`
	// Probes are the per-cell measurements (default: one probe of the
	// cell itself).
	Probes []Probe `json:"probes,omitempty"`
	// SharedInstance runs all probes of a cell against one simulator
	// instance built from the cell's parameters, in probe order — the
	// paper's per-point runs that measure several benchmarks on one
	// freshly booted system (Fig 7). Probe sets may then only change
	// bench.Params-level keys, not system options.
	SharedInstance bool `json:"shared_instance,omitempty"`
	// Contrast, when set, makes every value differential; incompatible
	// with SharedInstance.
	Contrast *Contrast `json:"contrast,omitempty"`

	// SeedMode is SeedPerCell (default) or SeedFixed; Seed is the base
	// seed (a "seed" key in Base or an axis overrides it; 0 means 1).
	SeedMode string `json:"seed_mode,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// Cell is one fully resolved grid point.
type Cell struct {
	// Index is the cell's position in cross-product enumeration order;
	// per-cell seeds and result slots derive from it.
	Index int
	// Coord holds the cell's axis values, aligned with Spec.Axes.
	Coord []string
	// KV is the merged parameter assignment (base plus axis values).
	KV map[string]string
}

// Get returns the cell's value for a parameter (axis or base key).
func (c Cell) Get(key string) string { return c.KV[key] }

// Int returns the cell's value parsed as a size (K/M/G suffixes
// allowed); 0 when absent or unparsable (expansion validates values,
// so figure-assembly callers need no error path).
func (c Cell) Int(key string) int {
	v, err := parseSize(c.KV[key])
	if err != nil {
		return 0
	}
	return v
}

// Config is a cell's resolved execution configuration.
type Config struct {
	System string
	Bench  string
	Params bench.Params
	Opt    sysconf.Options
	// Workload configures the traffic engine when Bench is
	// BenchWorkload; other benchmarks ignore it.
	Workload workload.Config
	// Shape selects the PCIe topology (endpoint count, shared switch
	// uplink, socket placement); the zero value is the paper's
	// single-adapter form.
	Shape topo.Shape
	// P2P selects the transfer path of a BenchP2P cell ("direct" or
	// "bounce").
	P2P string
}

// usesFabric reports whether the cell needs a multi-endpoint fabric
// rather than the degenerate single-endpoint instance.
func (c *Config) usesFabric() bool {
	return c.Bench == BenchP2P || !c.Shape.Degenerate()
}

// resolveRunnable resolves kv like resolveConfig and also rejects a
// configuration that could only fail once its cell runs: a negative
// count on any kind, a p2p or loopback cell without a transfer, and a
// micro-benchmark with a missing or oversized window or a bad transfer
// or offset. The window is checked against the buffer the cell will
// build; n=0 passes, since the run resolves it from the quality level.
// Only validation and single runs call it: a shared instance is built
// from the bare cell, which need not name a transfer.
func resolveRunnable(kv map[string]string) (Config, error) {
	cfg, err := resolveConfig(kv)
	if err != nil {
		return cfg, err
	}
	p := cfg.Params
	if p.Transactions < 0 {
		return cfg, fmt.Errorf("sweep: n=%d must not be negative", p.Transactions)
	}
	switch cfg.Bench {
	case BenchLatRd, BenchLatWrRd, BenchBwRd, BenchBwWr, BenchBwRdWr:
	case BenchP2P, BenchLoopback:
		if p.TransferSize < 1 {
			return cfg, fmt.Errorf("sweep: bench %s needs transfer >= 1, got %d", cfg.Bench, p.TransferSize)
		}
		return cfg, nil
	default:
		return cfg, nil
	}
	if p.Transactions == 0 {
		p.Transactions = 1
	}
	buf := cfg.Opt.BufferSize
	if buf == 0 {
		buf = sysconf.DefaultBufferSize
	}
	return cfg, p.Validate(buf)
}

// parseSize parses an integer with an optional K/M/G binary suffix
// ("8K" -> 8192).
func parseSize(s string) (int, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("sweep: bad size %q", s)
	}
	return v * mult, nil
}

// parseDuration parses a simulated duration for the fault keys (cto=,
// retrain=): a decimal number with an optional ps/ns/us/ms/s suffix (a
// bare number means nanoseconds).
func parseDuration(s string) (sim.Time, error) {
	t := strings.TrimSpace(s)
	unit := sim.Nanosecond
	switch {
	case strings.HasSuffix(t, "ps"):
		unit, t = sim.Picosecond, strings.TrimSuffix(t, "ps")
	case strings.HasSuffix(t, "ns"):
		unit, t = sim.Nanosecond, strings.TrimSuffix(t, "ns")
	case strings.HasSuffix(t, "us"):
		unit, t = sim.Microsecond, strings.TrimSuffix(t, "us")
	case strings.HasSuffix(t, "ms"):
		unit, t = sim.Millisecond, strings.TrimSuffix(t, "ms")
	case strings.HasSuffix(t, "s"):
		unit, t = sim.Second, strings.TrimSuffix(t, "s")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("sweep: bad duration %q", s)
	}
	return sim.Time(v * float64(unit)), nil
}

// parseBER parses the ber= fault key's link bit error rate: a float in
// [0, 1).
func parseBER(s string) (float64, error) {
	b, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || b < 0 || b >= 1 {
		return 0, fmt.Errorf("sweep: bit error rate %q outside [0, 1)", s)
	}
	return b, nil
}

// parseCount parses a count that must be at least least. Counts whose
// zero would silently select a default (endpoints, walkers,
// dmainflight, queues, flows, inflight) take 1; the batch overrides,
// whose 0 keeps the design's value, take 0.
func parseCount(s string, least int) (int, error) {
	n, err := parseSize(s)
	if err == nil && n < least {
		err = fmt.Errorf("sweep: count %d must be at least %d", n, least)
	}
	return n, err
}

func parseBool(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "on", "1", "yes":
		return true, nil
	case "false", "off", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("sweep: bad boolean %q", s)
}

// The known parameter keys, grouped by the layer they configure. The
// groups drive the unknown-key error messages: a cell whose benchmark
// kind is known lists only the keys that kind accepts.
var (
	// systemKeys configure the simulator instance (sysconf.Options and
	// the link) and apply to every benchmark kind.
	systemKeys = []string{
		"bench", "ber", "buffer", "cto", "dmainflight", "gen", "iommu",
		"iommuscope", "lanes", "mps", "mrrs", "n", "node", "nojitter",
		"retrain", "seed", "sp", "system", "walkers", "warmup",
	}
	// microKeys are the pcie-bench micro-benchmark parameters
	// (bench.Params) of the latency/bandwidth/loopback kinds.
	microKeys = []string{
		"cache", "direct", "offset", "pattern", "transfer", "window",
	}
	// workloadKeys configure the multi-queue traffic engine.
	workloadKeys = []string{
		"arrival", "descbatch", "doorbell", "flows", "inflight",
		"intrmod", "nic", "queues", "sizes", "transfer", "wbbatch",
	}
	// topoKeys select the PCIe topology; valid for the workload and
	// p2p kinds.
	topoKeys = []string{"buffers", "endpoints", "socket", "switch"}
	// p2pKeys apply only to the p2p kind.
	p2pKeys = []string{"p2p", "transfer"}
)

// mergeKeys dedups and sorts the union of key groups.
func mergeKeys(groups ...[]string) []string {
	seen := map[string]bool{}
	var all []string
	for _, group := range groups {
		for _, k := range group {
			if !seen[k] {
				seen[k] = true
				all = append(all, k)
			}
		}
	}
	sort.Strings(all)
	return all
}

// knownKeys lists every parameter a cell assignment may set, for
// override validation.
var knownKeys = mergeKeys(systemKeys, microKeys, workloadKeys, topoKeys, p2pKeys)

func isKnownKey(k string) bool {
	for _, known := range knownKeys {
		if k == known {
			return true
		}
	}
	return false
}

// keysFor lists the keys valid for one benchmark kind, sorted.
func keysFor(benchKind string) []string {
	switch benchKind {
	case BenchWorkload:
		return mergeKeys(systemKeys, workloadKeys, topoKeys)
	case BenchP2P:
		return mergeKeys(systemKeys, topoKeys, p2pKeys)
	case BenchLatRd, BenchLatWrRd, BenchBwRd, BenchBwWr, BenchBwRdWr, BenchLoopback:
		return mergeKeys(systemKeys, microKeys)
	default:
		return knownKeys
	}
}

// unknownKeyErr builds the unknown-parameter error: when the cell's
// benchmark kind is known, it lists exactly the keys that kind
// accepts; otherwise it lists every group.
func unknownKeyErr(benchKind string) error {
	if benchKind != "" {
		return fmt.Errorf("unknown parameter for bench %q (valid: %s)",
			benchKind, strings.Join(keysFor(benchKind), " "))
	}
	return fmt.Errorf("unknown parameter (system/link: %s | micro-bench: %s | workload: %s | topology: %s | p2p: %s)",
		strings.Join(systemKeys, " "), strings.Join(microKeys, " "),
		strings.Join(workloadKeys, " "), strings.Join(topoKeys, " "),
		strings.Join(p2pKeys, " "))
}

// optLevelKeys are the parameters that change how a simulator instance
// is built (sysconf.Options and the link), as opposed to the
// bench.Params of a run. Probe sets under SharedInstance may not touch
// them: the shared instance is built once from the cell assignment.
var optLevelKeys = map[string]bool{
	"system": true, "seed": true, "buffer": true, "node": true,
	"iommu": true, "iommuscope": true, "walkers": true, "sp": true,
	"nojitter": true, "dmainflight": true,
	"gen": true, "lanes": true, "mps": true, "mrrs": true,
	"endpoints": true, "switch": true, "socket": true, "p2p": true,
	"buffers": true,
	"ber":     true, "cto": true, "retrain": true,
}

// resolveConfig turns a merged key/value assignment into an executable
// configuration. Link-level keys (gen, lanes, mps, mrrs) modify a copy
// of the paper's default Gen3 x8 link; when none is present the
// instance keeps its built-in default.
func resolveConfig(kv map[string]string) (Config, error) {
	cfg := Config{System: "NFP6000-HSW", Bench: BenchLatRd}
	var link *pcie.LinkConfig
	ensureLink := func() *pcie.LinkConfig {
		if link == nil {
			l := pcie.DefaultGen3x8()
			link = &l
		}
		return link
	}
	// Faults stay nil unless a fault key arms a non-zero knob, so
	// ber=0 cells build the exact fault-free instance.
	var faults *fault.Config
	ensureFaults := func() *fault.Config {
		if faults == nil {
			faults = &fault.Config{}
		}
		return faults
	}

	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := kv[k]
		var err error
		switch k {
		case "system":
			cfg.System = v
		case "bench":
			switch strings.ToLower(v) {
			case BenchLatRd, BenchLatWrRd, BenchBwRd, BenchBwWr, BenchBwRdWr, BenchLoopback, BenchWorkload, BenchP2P:
				cfg.Bench = strings.ToLower(v)
			default:
				err = fmt.Errorf("unknown benchmark %q", v)
			}
		case "window":
			cfg.Params.WindowSize, err = parseSize(v)
		case "transfer":
			cfg.Params.TransferSize, err = parseSize(v)
		case "offset":
			cfg.Params.Offset, err = parseSize(v)
		case "n":
			cfg.Params.Transactions, err = parseSize(v)
		case "warmup":
			cfg.Params.Warmup, err = parseSize(v)
		case "pattern":
			switch strings.ToLower(v) {
			case "rand":
				cfg.Params.Pattern = bench.Random
			case "seq":
				cfg.Params.Pattern = bench.Sequential
			default:
				err = fmt.Errorf("unknown pattern %q", v)
			}
		case "cache":
			switch strings.ToLower(v) {
			case "cold":
				cfg.Params.Cache = bench.Cold
			case "warm":
				cfg.Params.Cache = bench.HostWarm
			case "devwarm":
				cfg.Params.Cache = bench.DeviceWarm
			default:
				err = fmt.Errorf("unknown cache state %q", v)
			}
		case "direct":
			cfg.Params.Direct, err = parseBool(v)
		case "node":
			cfg.Opt.BufferNode, err = parseSize(v)
		case "iommu":
			cfg.Opt.IOMMU, err = parseBool(v)
		case "iommuscope":
			cfg.Opt.IOMMUScope, err = topo.ParseIOMMUScope(v)
		case "walkers":
			cfg.Opt.IOMMUWalkers, err = parseCount(v, 1)
		case "dmainflight":
			cfg.Opt.MaxInFlight, err = parseCount(v, 1)
		case "sp":
			cfg.Opt.SuperPages, err = parseBool(v)
		case "nojitter":
			cfg.Opt.NoJitter, err = parseBool(v)
		case "ber":
			var b float64
			if b, err = parseBER(v); err == nil && b > 0 {
				ensureFaults().BER = b
			}
		case "cto":
			var d sim.Time
			if d, err = parseDuration(v); err == nil && d > 0 {
				ensureFaults().CTO = d
			}
		case "retrain":
			var d sim.Time
			if d, err = parseDuration(v); err == nil && d > 0 {
				ensureFaults().RetrainMTBF = d
			}
		case "buffer":
			cfg.Opt.BufferSize, err = parseSize(v)
		case "seed":
			var n int
			n, err = parseSize(v)
			cfg.Opt.Seed = int64(n)
		case "gen":
			var n int
			if n, err = parseSize(v); err == nil {
				ensureLink().Gen = pcie.Generation(n)
			}
		case "lanes":
			var n int
			if n, err = parseSize(v); err == nil {
				ensureLink().Lanes = n
			}
		case "mps":
			var n int
			if n, err = parseSize(v); err == nil {
				ensureLink().MPS = n
			}
		case "mrrs":
			var n int
			if n, err = parseSize(v); err == nil {
				ensureLink().MRRS = n
			}
		case "queues":
			cfg.Workload.Queues, err = parseCount(v, 1)
		case "flows":
			cfg.Workload.Flows, err = parseCount(v, 1)
		case "inflight":
			cfg.Workload.Window, err = parseCount(v, 1)
		case "sizes":
			cfg.Workload.Sizes, err = workload.ParseSizeDist(v)
		case "arrival":
			cfg.Workload.Arrival, err = workload.ParseArrival(v)
		case "nic":
			cfg.Workload.Design, err = workload.DesignByName(strings.ToLower(v))
		case "doorbell":
			cfg.Workload.Moderation.DoorbellBatch, err = parseCount(v, 0)
		case "descbatch":
			cfg.Workload.Moderation.DescBatch, err = parseCount(v, 0)
		case "wbbatch":
			cfg.Workload.Moderation.WriteBackBatch, err = parseCount(v, 0)
		case "intrmod":
			// "poll" strips interrupts and register reads entirely; a
			// packet count must be at least 1, since 0 and negative
			// values would silently keep the design's rate or poll.
			if strings.ToLower(v) == "poll" {
				cfg.Workload.Moderation.IntrEvery = -1
			} else if cfg.Workload.Moderation.IntrEvery, err = parseCount(v, 1); err != nil {
				err = fmt.Errorf("want a packet count or poll: %w", err)
			}
		case "endpoints":
			cfg.Shape.Endpoints, err = parseCount(v, 1)
		case "switch":
			cfg.Shape.Switch, err = topo.ParseSwitch(v)
		case "socket":
			cfg.Shape.Placement = strings.ToLower(strings.TrimSpace(v))
		case "buffers":
			switch strings.ToLower(strings.TrimSpace(v)) {
			case "", "shared", "default":
				cfg.Shape.LocalBuffers = false
			case "local":
				cfg.Shape.LocalBuffers = true
			default:
				err = fmt.Errorf("buffer placement %q (want shared or local)", v)
			}
		case "p2p":
			switch strings.ToLower(v) {
			case topo.P2PDirect, topo.P2PBounce:
				cfg.P2P = strings.ToLower(v)
			default:
				err = fmt.Errorf("p2p mode %q (want %s or %s)", v, topo.P2PDirect, topo.P2PBounce)
			}
		default:
			err = unknownKeyErr(strings.ToLower(kv["bench"]))
		}
		if err != nil {
			return Config{}, fmt.Errorf("sweep: %s=%q: %w", k, v, err)
		}
	}
	if link != nil {
		if err := link.Validate(); err != nil {
			return Config{}, fmt.Errorf("sweep: link: %w", err)
		}
		cfg.Opt.Link = link
	}
	cfg.Opt.Faults = faults
	sys, err := sysconf.ByName(cfg.System)
	if err != nil {
		return Config{}, err
	}
	// Topology defaults and cross-key rules. BenchP2P needs two
	// endpoints and defaults to a shared switch and the direct path;
	// topology keys on the single-flow micro-benchmarks would silently
	// measure endpoint 0 only, so they are rejected there.
	if cfg.Bench == BenchP2P {
		if cfg.Shape.Endpoints == 0 {
			cfg.Shape.Endpoints = 2
		}
		if cfg.Shape.Endpoints < 2 {
			return Config{}, fmt.Errorf("sweep: bench p2p needs endpoints >= 2, got %d", cfg.Shape.Endpoints)
		}
		// Default to a shared switch, except under split placement
		// (which requires direct attachment to both sockets).
		if _, hasSwitch := kv["switch"]; !hasSwitch && cfg.Shape.Placement != "split" {
			l := pcie.DefaultGen3x8()
			cfg.Shape.Switch = &l
		}
		if cfg.P2P == "" {
			cfg.P2P = topo.P2PDirect
		}
	} else {
		if cfg.P2P != "" {
			return Config{}, fmt.Errorf("sweep: p2p=%q only applies to bench=p2p (valid p2p keys: %s)", cfg.P2P, strings.Join(keysFor(BenchP2P), " "))
		}
		if !cfg.Shape.Degenerate() && cfg.Bench != BenchWorkload {
			return Config{}, fmt.Errorf("sweep: topology keys (buffers/endpoints/switch/socket) apply to bench=workload or bench=p2p, not %q", cfg.Bench)
		}
	}
	if err := cfg.Shape.Validate(sys.Nodes); err != nil {
		return Config{}, err
	}
	if cfg.Bench == BenchWorkload {
		// A "transfer" key doubles as the fixed frame size when no
		// distribution is declared.
		if cfg.Workload.Sizes == nil && cfg.Params.TransferSize > 0 {
			cfg.Workload.Sizes = workload.FixedSize(cfg.Params.TransferSize)
		}
		// Fail at validation time if the queue regions overflow the
		// host buffer.
		cfg.Workload.BufferBytes = cfg.Opt.BufferSize
		if cfg.Workload.BufferBytes == 0 {
			cfg.Workload.BufferBytes = sysconf.DefaultBufferSize
		}
		if err := cfg.Workload.Validate(); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// Count returns how many cells the grid expands to.
func (s *Spec) Count() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	return n
}

// Cells expands the grid into its deterministic enumeration order: the
// cross product of the axes with the first axis outermost.
func (s *Spec) Cells() []Cell {
	cells := make([]Cell, 0, s.Count())
	coord := make([]string, len(s.Axes))
	var expand func(depth int)
	expand = func(depth int) {
		if depth == len(s.Axes) {
			kv := make(map[string]string, len(s.Base)+len(coord))
			for k, v := range s.Base {
				kv[k] = v
			}
			for i, a := range s.Axes {
				kv[a.Name] = coord[i]
			}
			cells = append(cells, Cell{
				Index: len(cells),
				Coord: append([]string(nil), coord...),
				KV:    kv,
			})
			return
		}
		for _, v := range s.Axes[depth].Values {
			coord[depth] = v
			expand(depth + 1)
		}
	}
	expand(0)
	return cells
}

// probes returns the effective probe list (one default probe when none
// is declared).
func (s *Spec) probes() []Probe {
	if len(s.Probes) > 0 {
		return s.Probes
	}
	return []Probe{{}}
}

// metricFor resolves a probe's metric for a benchmark kind.
func metricFor(p Probe, benchKind string) string {
	if p.Metric != "" {
		return p.Metric
	}
	switch benchKind {
	case BenchBwRd, BenchBwWr, BenchBwRdWr:
		return MetricGbps
	case BenchWorkload:
		return MetricPPS
	default:
		return MetricMedian
	}
}

// ProbeLabels returns one unique column label per probe.
func (s *Spec) ProbeLabels() []string {
	probes := s.probes()
	labels := make([]string, len(probes))
	seen := map[string]int{}
	for i, p := range probes {
		label := p.Label
		if label == "" {
			kv := s.mergedKV(nil, p.Set)
			switch kind, ok := kv["bench"]; {
			case ok:
				label = kind + ":" + metricFor(p, kind)
			case s.axis("bench") != nil:
				// The benchmark varies per cell; no single kind names
				// the column.
				label = "value"
			default:
				label = BenchLatRd + ":" + metricFor(p, BenchLatRd)
			}
		}
		if n := seen[label]; n > 0 {
			labels[i] = fmt.Sprintf("%s#%d", label, n+1)
		} else {
			labels[i] = label
		}
		seen[label]++
	}
	return labels
}

// mergedKV layers base, an optional cell assignment and an optional
// probe/contrast set (later wins).
func (s *Spec) mergedKV(cell map[string]string, set map[string]string) map[string]string {
	kv := make(map[string]string, len(s.Base)+len(cell)+len(set))
	for k, v := range s.Base {
		kv[k] = v
	}
	for k, v := range cell {
		kv[k] = v
	}
	for k, v := range set {
		kv[k] = v
	}
	return kv
}

// Validate checks the whole grid: axis shape, key names, every cell's
// (and probe's, and contrast's) resolved configuration, metrics and
// reduction. A valid spec cannot fail cell resolution at run time.
func (s *Spec) Validate() error {
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("sweep: spec %q: unsupported wire format version %d (this build speaks version %d; legacy version-less specs are read as version 1)",
			s.Name, s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("sweep: spec needs a name")
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: spec %q has no axes", s.Name)
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if a.Name == "" || len(a.Values) == 0 {
			return fmt.Errorf("sweep: spec %q: axis %q needs a name and values", s.Name, a.Name)
		}
		if !isKnownKey(a.Name) {
			return fmt.Errorf("sweep: spec %q: axis %q: unknown parameter (known: %s)",
				s.Name, a.Name, strings.Join(knownKeys, " "))
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: spec %q: duplicate axis %q", s.Name, a.Name)
		}
		seen[a.Name] = true
	}
	for k := range s.Base {
		if !isKnownKey(k) {
			return fmt.Errorf("sweep: spec %q: base key %q: unknown parameter (known: %s)",
				s.Name, k, strings.Join(knownKeys, " "))
		}
	}
	switch s.SeedMode {
	case "", SeedPerCell, SeedFixed:
	default:
		return fmt.Errorf("sweep: spec %q: seed_mode must be %q or %q", s.Name, SeedPerCell, SeedFixed)
	}
	if s.Contrast != nil {
		if s.SharedInstance {
			return fmt.Errorf("sweep: spec %q: contrast and shared_instance are incompatible", s.Name)
		}
		if len(s.Contrast.Set) == 0 {
			return fmt.Errorf("sweep: spec %q: contrast needs a non-empty set", s.Name)
		}
		if _, ok := s.Contrast.Set["bench"]; ok {
			// A contrast perturbs the system under a fixed measurement;
			// comparing different benchmarks' metrics is meaningless —
			// use separate probes instead.
			return fmt.Errorf("sweep: spec %q: contrast may not change \"bench\"", s.Name)
		}
		switch s.Contrast.Reduce {
		case "", "pct_delta", "delta":
		default:
			return fmt.Errorf("sweep: spec %q: unknown reduce %q", s.Name, s.Contrast.Reduce)
		}
	}
	for _, p := range s.probes() {
		if !validMetric(p.Metric) {
			return fmt.Errorf("sweep: spec %q: unknown metric %q", s.Name, p.Metric)
		}
		if s.SharedInstance {
			for k := range p.Set {
				if optLevelKeys[k] {
					return fmt.Errorf("sweep: spec %q: probe set key %q rebuilds the instance; shared_instance probes may only change benchmark parameters", s.Name, k)
				}
			}
		}
	}
	for _, c := range s.Cells() {
		for pi, p := range s.probes() {
			kv := s.mergedKV(c.KV, p.Set)
			cfg, err := resolveRunnable(kv)
			if err != nil {
				return fmt.Errorf("sweep: spec %q cell %d probe %d: %w", s.Name, c.Index, pi, err)
			}
			if s.SharedInstance && cfg.usesFabric() {
				return fmt.Errorf("sweep: spec %q cell %d: shared_instance cells cannot use multi-endpoint topologies", s.Name, c.Index)
			}
			if s.Contrast != nil {
				if _, err := resolveRunnable(s.mergedKV(kv, s.Contrast.Set)); err != nil {
					return fmt.Errorf("sweep: spec %q cell %d probe %d contrast: %w", s.Name, c.Index, pi, err)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy, so overrides never mutate registered
// specs.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Axes = make([]Axis, len(s.Axes))
	for i, a := range s.Axes {
		c.Axes[i] = Axis{Name: a.Name, Values: append([]string(nil), a.Values...)}
	}
	c.Base = cloneMap(s.Base)
	c.Probes = make([]Probe, len(s.Probes))
	for i, p := range s.Probes {
		c.Probes[i] = Probe{Label: p.Label, Set: cloneMap(p.Set), Metric: p.Metric}
	}
	if s.Contrast != nil {
		cc := *s.Contrast
		cc.Set = cloneMap(s.Contrast.Set)
		c.Contrast = &cc
	}
	return &c
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ApplyOverrides adjusts the spec from CLI "name=v1,v2,..." arguments:
// an existing axis has its values replaced; a multi-value override on a
// non-axis key adds a new (innermost) axis; a single value sets a base
// parameter. Applied in argument order on the receiver.
func (s *Spec) ApplyOverrides(args []string) error {
	for _, arg := range args {
		name, vals, ok := strings.Cut(arg, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.TrimSpace(vals) == "" {
			return fmt.Errorf("sweep: bad override %q (want name=v1,v2,...)", arg)
		}
		if !isKnownKey(name) {
			return fmt.Errorf("sweep: override %q: unknown parameter (known: %s)",
				name, strings.Join(knownKeys, " "))
		}
		values := strings.Split(vals, ",")
		for i := range values {
			values[i] = strings.TrimSpace(values[i])
		}
		if ax := s.axis(name); ax != nil {
			ax.Values = values
			continue
		}
		if len(values) > 1 {
			s.Axes = append(s.Axes, Axis{Name: name, Values: values})
			continue
		}
		if s.Base == nil {
			s.Base = map[string]string{}
		}
		s.Base[name] = values[0]
	}
	return nil
}

func (s *Spec) axis(name string) *Axis {
	for i := range s.Axes {
		if s.Axes[i].Name == name {
			return &s.Axes[i]
		}
	}
	return nil
}

// specJSONKeys lists the valid top-level keys of the Spec wire format,
// derived from the struct tags so the error message can never drift
// from the type.
func specJSONKeys() []string {
	t := reflect.TypeOf(Spec{})
	keys := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if tag != "" && tag != "-" {
			keys = append(keys, tag)
		}
	}
	return keys
}

// Decode reads a Spec from the versioned JSON wire format, rejecting
// unknown fields so typos in hand-written spec files fail loudly —
// with an error naming the valid keys, the same shape as the engine's
// unknown-parameter errors. Legacy version-less documents decode as
// version 1; documents from a newer format version are rejected by
// Validate.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		if field, ok := unknownFieldName(err); ok {
			return nil, fmt.Errorf("sweep: decode spec: unknown field %s (valid keys: %s)",
				field, strings.Join(specJSONKeys(), " "))
		}
		return nil, fmt.Errorf("sweep: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// unknownFieldName extracts the offending field from an
// encoding/json DisallowUnknownFields error. The error is unexported
// and untyped upstream, so the text is the only handle; if its shape
// ever changes we fall back to the raw error, never misreport.
func unknownFieldName(err error) (string, bool) {
	const marker = "unknown field "
	msg := err.Error()
	i := strings.LastIndex(msg, marker)
	if i < 0 {
		return "", false
	}
	return msg[i+len(marker):], true
}
