package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"pciebench/internal/bench"
	"pciebench/internal/fault"
	"pciebench/internal/model"
	"pciebench/internal/nicsim"
	"pciebench/internal/pcie"
	"pciebench/internal/runner"
	"pciebench/internal/stats"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/trace"
	"pciebench/internal/workload"
)

// Measurement is everything one probe observed; probes extract their
// headline value from it, figure assembly can read the rest (e.g. the
// loopback PCIe fraction, a full CDF, or the workload per-queue
// rates).
type Measurement struct {
	Median  float64
	Gbps    float64
	Frac    float64
	Summary stats.Summary
	CDF     *stats.CDF
	// PPS and QueuePPS are the workload engine's aggregate and
	// per-queue packet-pair rates.
	PPS      float64
	QueuePPS []float64
	// EndpointPPS holds the per-endpoint packet-pair rates of a
	// multi-endpoint workload cell (one entry on the degenerate form).
	EndpointPPS []float64
	// Faults holds each endpoint's fault accounting after the run;
	// nil when fault injection is disabled. On a shared instance the
	// counters are cumulative since the instance was built.
	Faults []fault.Counters
}

// Value extracts a metric from the measurement.
func (m Measurement) Value(metric string) float64 {
	switch metric {
	case MetricGbps:
		return m.Gbps
	case MetricFrac:
		return m.Frac
	case MetricPPS:
		return m.PPS
	case MetricP50:
		return m.Summary.Median
	case MetricP99:
		return m.Summary.P99
	case MetricP999:
		return m.Summary.P999
	}
	switch metric {
	case MetricEPPSMin:
		return minFloat(m.EndpointPPS)
	case MetricEPPSMax:
		return maxFloat(m.EndpointPPS)
	}
	if i, ok := queuePPSIndex(metric); ok {
		if i < len(m.QueuePPS) {
			return m.QueuePPS[i]
		}
		return 0
	}
	if i, ok := endpointPPSIndex(metric); ok {
		if i < len(m.EndpointPPS) {
			return m.EndpointPPS[i]
		}
		return 0
	}
	switch metric {
	case MetricReplays, MetricTimeouts, MetricRetrains:
		var n float64
		for i := range m.Faults {
			n += faultCount(m.Faults[i], metric)
		}
		return n
	}
	if base, i, ok := faultMetricIndex(metric); ok {
		if i < len(m.Faults) {
			return faultCount(m.Faults[i], base)
		}
		return 0
	}
	return m.Median
}

// faultCount extracts one counter from a block by base metric name.
func faultCount(c fault.Counters, base string) float64 {
	switch base {
	case MetricReplays:
		return float64(c.Replays)
	case MetricTimeouts:
		return float64(c.Timeouts)
	case MetricRetrains:
		return float64(c.Retrains)
	}
	return 0
}

func minFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Min(vals)
}

func maxFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Max(vals)
}

// CellResult is the outcome of one grid cell.
type CellResult struct {
	Cell Cell
	// Meas holds one measurement per probe (under Contrast, the
	// perturbed run's).
	Meas []Measurement
	// Values holds the probe values (under Contrast, the reduction of
	// baseline and perturbed).
	Values []float64
}

// Result is an executed sweep.
type Result struct {
	Spec  *Spec
	Cells []CellResult
}

// resolveSeed turns a cell's seed value (its "seed" key, 0 when unset)
// into the seed its run uses: 0 defers to the spec's Seed, and per-cell
// seeding mixes in the cell index. The cache key and the run both
// resolve through here, so the key covers exactly the seed that runs.
func (s *Spec) resolveSeed(seed int64, index int) int64 {
	if seed == 0 {
		seed = s.Seed
	}
	if s.SeedMode == SeedFixed {
		return seed
	}
	if seed == 0 {
		seed = 1
	}
	return runner.Seed(seed, index)
}

// runCell measures every probe of one cell from its resolved probes
// (resolveCells); a workload fabric cell runs its islands on up to
// workers goroutines. A shared instance is built from probe 0: probe
// sets may not change how an instance builds, so every probe's System
// and Opt are the cell's.
func (s *Spec) runCell(c Cell, probes resolvedProbes, q Quality, workers int) (CellResult, error) {
	res := CellResult{Cell: c}
	var shared *sysconf.Instance
	if s.SharedInstance {
		var err error
		if shared, err = buildInstance(probes.cfgs[0]); err != nil {
			return res, err
		}
		defer shared.Mem.Release()
	}
	// Probes that apply no overrides and need no CDF observe the very
	// same run, so the first measurement is reused for the rest — a
	// workload cell emitting pps, p50, p99 and p99.9 columns runs the
	// traffic once, not four times. Probes with a Set (or a CDF) keep
	// their own runs, preserving the paper figures' semantics.
	var memo, memoPert *Measurement
	for pi, p := range s.probes() {
		cfg := probes.cfgs[pi]
		metric := metricFor(p, cfg.Bench)
		if cfg.Params.Transactions == 0 {
			cfg.Params.Transactions = q.Transactions(cfg.Bench, metric)
		}
		wantCDF := metric == MetricCDF
		memoable := len(p.Set) == 0 && !wantCDF

		var m Measurement
		var err error
		if memoable && memo != nil {
			m = *memo
		} else {
			m, err = measure(cfg, shared, wantCDF, workers, nil)
			if err != nil {
				return res, fmt.Errorf("sweep: %s cell %d probe %d: %w", s.Name, c.Index, pi, err)
			}
			if memoable {
				mm := m
				memo = &mm
			}
		}
		value := m.Value(metric)
		if s.Contrast != nil {
			var pm Measurement
			if memoable && memoPert != nil {
				pm = *memoPert
			} else {
				pcfg := probes.perts[pi]
				if pcfg.Params.Transactions == 0 {
					pcfg.Params.Transactions = q.Transactions(pcfg.Bench, metric)
				}
				pm, err = measure(pcfg, nil, wantCDF, workers, nil)
				if err != nil {
					return res, fmt.Errorf("sweep: %s cell %d probe %d contrast: %w", s.Name, c.Index, pi, err)
				}
				if memoable {
					pmm := pm
					memoPert = &pmm
				}
			}
			base, pert := value, pm.Value(metric)
			switch {
			case s.Contrast.Reduce == "delta":
				value = pert - base
			case base == 0:
				return res, fmt.Errorf("sweep: %s cell %d probe %d: %s is 0 at the baseline, so its pct_delta is undefined; use \"reduce\": \"delta\"",
					s.Name, c.Index, pi, metric)
			default:
				value = 100 * (pert - base) / base
			}
			m = pm
		}
		res.Meas = append(res.Meas, m)
		res.Values = append(res.Values, value)
	}
	return res, nil
}

// buildInstance assembles the configured system.
func buildInstance(cfg Config) (*sysconf.Instance, error) {
	sys, err := sysconf.ByName(cfg.System)
	if err != nil {
		return nil, err
	}
	return sys.Build(cfg.Opt)
}

// Detail is one run's outcome in full: what a single run prints
// beyond its Measurement.
type Detail struct {
	// Config is the resolved configuration the run executed.
	Config Config
	// Meas is what an engine cell measures for the same assignment.
	Meas Measurement
	// Result is the benchmark's own result: a *bench.LatencyResult,
	// *bench.BandwidthResult, *workload.Result, *workload.MultiResult
	// or *topo.P2PResult.
	Result any
	// Fabric is the fabric the run simulated (a single-endpoint
	// instance's own fabric included).
	Fabric *topo.Fabric
	// tracer, when set, records the run's TLPs on endpoint 0's link.
	tracer trace.Tracer
}

// keep records a run's result and fabric; a nil Detail, as every
// engine cell passes, keeps nothing.
func (d *Detail) keep(res any, fab *topo.Fabric) {
	if d != nil {
		d.Result, d.Fabric = res, fab
	}
}

// Single resolves one cell assignment and measures it through the code
// an engine cell runs, returning the run in full. Unlike an engine
// cell it resolves no grid, mixes no seed and takes n as given: n=0
// fails rather than resolving from a quality level. A workload fabric
// runs its islands on up to GOMAXPROCS goroutines, and switches sample
// their arbitration waits; neither ever changes a result. A non-nil tr
// receives every TLP of the run's link; it reaches only the root
// complex's port 0, so a fabric or p2p run with a tracer fails.
func Single(kv map[string]string, tr trace.Tracer) (*Detail, error) {
	cfg, err := resolveRunnable(kv)
	if err != nil {
		return nil, err
	}
	if tr != nil && cfg.usesFabric() {
		return nil, errors.New("sweep: a TLP trace covers endpoint 0's link only, so a multi-endpoint or p2p run cannot be traced")
	}
	d := &Detail{Config: cfg, tracer: tr}
	if d.Meas, err = measure(cfg, nil, false, runtime.GOMAXPROCS(0), d); err != nil {
		return nil, err
	}
	return d, nil
}

// measure runs one benchmark. A non-nil shared instance is reused
// (probe order is then the simulation order); otherwise the probe
// builds its own fresh instance, like the paper's per-point runs. A
// non-nil d receives the run's result and fabric, and its tracer the
// fresh instance's TLPs. With a nil d, as every engine cell passes,
// nothing outlives the call, so an instance the probe built releases
// its memory system's pages for the next one.
func measure(cfg Config, shared *sysconf.Instance, wantCDF bool, workers int, d *Detail) (Measurement, error) {
	if cfg.Model {
		return measureModel(cfg), nil
	}
	if shared == nil && cfg.usesFabric() {
		return measureFabric(cfg, workers, d)
	}
	inst := shared
	if inst == nil {
		var err error
		inst, err = buildInstance(cfg)
		if err != nil {
			return Measurement{}, err
		}
		if d != nil {
			inst.RC.SetTracer(d.tracer)
		} else {
			defer inst.Mem.Release()
		}
	}
	m, err := measureInstance(inst, cfg, wantCDF, d)
	if err != nil {
		return Measurement{}, err
	}
	m.Faults = faultSnapshot(inst.Fabric)
	return m, nil
}

// measureModel evaluates the analytical model for the cell's link
// (Gen3 x8 unless link keys change it), building and simulating
// nothing: a bandwidth kind's effective bandwidth at its transfer, or a
// workload design's bandwidth and packet-pair rate at its frame size
// with the moderation keys applied. The value is the saturated,
// fault-free bound; seed, n, window, cache, arrival and fault keys do
// not enter it.
func measureModel(cfg Config) Measurement {
	link := pcie.DefaultGen3x8()
	if cfg.Opt.Link != nil {
		link = *cfg.Opt.Link
	}
	sz := cfg.Params.TransferSize
	switch cfg.Bench {
	case BenchBwRd:
		return Measurement{Gbps: model.EffectiveReadBandwidth(link, sz) / 1e9}
	case BenchBwWr:
		return Measurement{Gbps: model.EffectiveWriteBandwidth(link, sz) / 1e9}
	case BenchBwRdWr:
		return Measurement{Gbps: model.EffectiveBidirBandwidth(link, sz) / 1e9}
	}
	wl := cfg.Workload.WithDefaults()
	nic, frame := wl.Moderation.Apply(wl.Design), wl.Sizes.Max()
	return Measurement{Gbps: nic.Bandwidth(link, frame) / 1e9, PPS: nic.PacketRate(link, frame)}
}

// measureInstance runs the single-endpoint benchmark kinds against an
// assembled instance.
func measureInstance(inst *sysconf.Instance, cfg Config, wantCDF bool, d *Detail) (Measurement, error) {
	if cfg.Bench == BenchLoopback {
		return measureLoopback(inst, cfg)
	}
	if cfg.Bench == BenchWorkload {
		return measureWorkload(inst, cfg, d)
	}

	tgt := inst.Target()
	switch cfg.Bench {
	case BenchLatRd, BenchLatWrRd:
		run := bench.LatRd
		if cfg.Bench == BenchLatWrRd {
			run = bench.LatWrRd
		}
		out, err := run(tgt, cfg.Params)
		if err != nil {
			return Measurement{}, err
		}
		d.keep(out, inst.Fabric)
		m := Measurement{Median: out.Summary.Median, Summary: out.Summary}
		if wantCDF {
			cdf, err := out.CDF()
			if err != nil {
				return Measurement{}, err
			}
			m.CDF = cdf
		}
		return m, nil
	default:
		run := bench.BwRd
		switch cfg.Bench {
		case BenchBwWr:
			run = bench.BwWr
		case BenchBwRdWr:
			run = bench.BwRdWr
		}
		out, err := run(tgt, cfg.Params)
		if err != nil {
			return Measurement{}, err
		}
		d.keep(out, inst.Fabric)
		return Measurement{Gbps: out.Gbps}, nil
	}
}

// measureWorkload runs the multi-queue traffic engine against the
// instance: per-queue buffer regions are host-warmed like polled rings,
// the cell's seed drives the workload randomness, and the measurement
// carries aggregate and per-queue packet rates plus the
// completion-latency percentiles.
func measureWorkload(inst *sysconf.Instance, cfg Config, d *Detail) (Measurement, error) {
	wl := cfg.Workload
	wl.Seed = cfg.Opt.Seed
	inst.Buffer.WarmHost(0, wl.Footprint())
	res, err := workload.Run(inst.Kernel, inst.RC, inst.Buffer.DMAAddr(0), wl, cfg.Params.Transactions)
	if err != nil {
		return Measurement{}, err
	}
	d.keep(res, inst.Fabric)
	m := Measurement{
		Median:      res.Latency.Median,
		Gbps:        res.GbpsPerDirection,
		PPS:         res.PPS,
		Summary:     res.Latency,
		EndpointPPS: []float64{res.PPS},
	}
	for _, q := range res.Queues {
		m.QueuePPS = append(m.QueuePPS, q.PPS)
	}
	return m, nil
}

// measureFabric runs the cell on a multi-endpoint fabric: the p2p
// transfer benchmark, or the traffic engine on every endpoint at once.
// The workload path asks for a fabric partitioned into islands run on
// up to workers goroutines (results stay byte-identical at every
// count; see internal/topo); the p2p benchmark couples its endpoints
// and always builds serially. A non-nil d also turns on the switches'
// wait sampling, which allocates per TLP and so stays off in engine
// cells; a nil d releases the fabric's memory system when the run is
// done, as measure does.
func measureFabric(cfg Config, workers int, d *Detail) (Measurement, error) {
	sys, err := sysconf.ByName(cfg.System)
	if err != nil {
		return Measurement{}, err
	}
	if cfg.Bench != BenchP2P {
		cfg.Opt.SimWorkers = workers
	}
	fab, err := sys.Fabric(cfg.Shape, cfg.Opt)
	if err != nil {
		return Measurement{}, err
	}
	if d != nil {
		for _, sw := range fab.Switches {
			sw.EnableWaitSampling()
		}
	} else {
		defer fab.Mem.Release()
	}
	if cfg.Bench == BenchP2P {
		res, err := topo.RunP2P(fab, cfg.P2P, cfg.Params.TransferSize, cfg.Params.Transactions)
		if err != nil {
			return Measurement{}, err
		}
		d.keep(res, fab)
		return Measurement{
			Median:  res.Latency.Median,
			Gbps:    res.Gbps,
			Summary: res.Latency,
			Faults:  faultSnapshot(fab),
		}, nil
	}
	wl := cfg.Workload
	wl.Seed = cfg.Opt.Seed
	res, err := topo.RunWorkload(fab, wl, cfg.Params.Transactions)
	if err != nil {
		return Measurement{}, err
	}
	d.keep(res, fab)
	m := Measurement{
		Median:  res.Latency.Median,
		Gbps:    res.GbpsPerDirection,
		PPS:     res.PPS,
		Summary: res.Latency,
	}
	for _, ep := range res.Endpoints {
		m.EndpointPPS = append(m.EndpointPPS, ep.PPS)
	}
	// Per-queue rates of endpoint 0 keep the qpps<i> metrics
	// meaningful on one-endpoint fabrics.
	for _, q := range res.Endpoints[0].Queues {
		m.QueuePPS = append(m.QueuePPS, q.PPS)
	}
	m.Faults = faultSnapshot(fab)
	return m, nil
}

// faultSnapshot copies the fabric's per-endpoint fault counters; nil
// when fault injection is disabled, so fault-free measurements (and
// their cached JSON encodings) are unchanged.
func faultSnapshot(fab *topo.Fabric) []fault.Counters {
	if fab == nil || !fab.Spec.Faults.Enabled() {
		return nil
	}
	out := make([]fault.Counters, len(fab.Endpoints))
	for i, ep := range fab.Endpoints {
		if ep.Faults != nil {
			out[i] = *ep.Faults
		}
	}
	return out
}

// measureLoopback replays the paper's Figure 2 setup: an ExaNIC-style
// loopback with the RX ring hot in a polling application.
func measureLoopback(inst *sysconf.Instance, cfg Config) (Measurement, error) {
	inst.Buffer.WarmHost(0, 64<<10)
	samples, err := nicsim.Loopback(inst.RC, inst.Buffer.DMAAddr(0),
		cfg.Params.TransferSize, cfg.Params.Transactions)
	if err != nil {
		return Measurement{}, err
	}
	med, frac := nicsim.MedianLoopback(samples)
	return Measurement{Median: med.Nanoseconds(), Frac: frac}, nil
}
