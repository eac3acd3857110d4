// Command pcie-bench runs individual pcie-bench micro-benchmarks
// against a simulated system from the paper's Table 1, mirroring the
// control programs of paper §5.4, and exposes the declarative sweep
// engine for whole parameter grids. A single run is a one-cell sweep:
// each flag sets a sweep cell key (see cellKeys). Grids run their cells
// on GOMAXPROCS workers, and a multi-endpoint workload fabric runs its
// islands on up to as many goroutines; output is byte-identical at
// every core count (GOMAXPROCS=N limits the CPUs used).
//
// Examples:
//
//	pcie-bench -list
//	pcie-bench -system NFP6000-HSW -bench lat_rd -transfer 64 -cache warm
//	pcie-bench -system NFP6000-BDW -bench bw_rd -transfer 64 -window 16M -iommu
//	pcie-bench -system NFP6000-HSW-E3 -bench lat_rd -n 100000 -cdf
//	pcie-bench -system NFP6000-HSW -bench bw_rdwr -json
//	pcie-bench -bench workload -queues 4 -sizes imix -arrival poisson:4M:burst=64
//	pcie-bench -suite
//	pcie-bench -sweeps
//	pcie-bench -run fig9 transfer=64 mps=512
//	pcie-bench -spec my-grid.json -format json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pciebench/internal/bench"
	"pciebench/internal/fault"
	_ "pciebench/internal/report" // registers the paper-figure sweeps
	"pciebench/internal/stats"
	"pciebench/internal/sweep"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcie-bench:", err)
		os.Exit(1)
	}
}

// benchResult is the machine-readable form of one benchmark run
// (-json output).
type benchResult struct {
	Bench   string `json:"bench"`
	System  string `json:"system"`
	Adapter string `json:"adapter"`
	Params  string `json:"params"`
	// Latency benchmarks fill Latency; bandwidth benchmarks fill
	// Gbps/TxnPerSec; the workload engine fills Workload.
	Latency   *stats.Summary   `json:"latency_ns,omitempty"`
	Gbps      float64          `json:"gbps,omitempty"`
	TxnPerSec float64          `json:"txn_per_sec,omitempty"`
	Workload  *workload.Result `json:"workload,omitempty"`
	// Multi-endpoint topology runs fill WorkloadMulti or P2P instead.
	WorkloadMulti *workload.MultiResult `json:"workload_multi,omitempty"`
	P2P           *topo.P2PResult       `json:"p2p,omitempty"`
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcie-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file when the run finishes")
		list       = fs.Bool("list", false, "list systems and exit")
		system     = fs.String("system", "NFP6000-HSW", "system under test (see -list)")
		benchSel   = fs.String("bench", "lat_rd", "lat_rd|lat_wrrd|bw_rd|bw_wr|bw_rdwr|workload|p2p")
		iommuOn    = fs.Bool("iommu", false, "enable the IOMMU (4KB mappings)")
		iommuScope = fs.String("iommu-scope", "", "IOMMU translation-unit scope: global (default) or per-socket")
		sp         = fs.Bool("sp", false, "use superpage IOMMU mappings")
		seed       = fs.Int64("seed", 1, "simulation seed")
		cdf        = fs.Bool("cdf", false, "print the latency CDF (latency benches)")
		jsonOut    = fs.Bool("json", false, "print the benchmark result as JSON")
		suite      = fs.Bool("suite", false, "run the full ~2000-test matrix (paper §5.4) and print a TSV report")
		sweeps     = fs.Bool("sweeps", false, "list registered sweeps and exit")
		runName    = fs.String("run", "", "run one registered sweep; remaining args override axes (e.g. gen=4,5 lanes=16)")
		specPath   = fs.String("spec", "", "run a custom sweep from a JSON spec file; remaining args override axes")
		format     = fs.String("format", "table", "sweep output format: "+strings.Join(sweep.Formats(), "|"))
		full       = fs.Bool("full", false, "paper-scale sample counts for sweeps (slower)")
		cacheDir   = fs.String("cache-dir", "", "dedup sweep cells against an on-disk result cache in this directory")
		nicSel     = fs.String("nic", "kernel", "workload: NIC/driver design (simple|kernel|dpdk)")
	)
	// The remaining single-run flags reach the run only through
	// cellKeys.
	fs.String("window", "8K", "window size (supports K/M/G suffixes)")
	fs.Int("transfer", 64, "transfer size in bytes")
	fs.Int("offset", 0, "offset from cache line start")
	fs.String("pattern", "rand", "rand|seq")
	fs.String("cache", "warm", "cold|warm|devwarm")
	fs.Int("n", 10000, "measured transactions")
	fs.Int("node", 0, "NUMA node for the host buffer")
	fs.Bool("direct", false, "use the device's direct command interface")

	// Traffic-engine knobs (-bench workload).
	fs.Int("queues", 1, "workload: RX/TX queue pairs")
	fs.Int("flows", workload.DefaultFlows, "workload: simulated flow population spread over the queues")
	fs.Int("inflight", workload.DefaultWindow, "workload: per-queue in-flight packet-pair window")
	fs.String("sizes", "1500", "workload: frame sizes (a size, imix, uniform:lo-hi or hist:size=weight,...)")
	fs.String("arrival", "saturate", "workload: arrivals (saturate, rate:<pps> or poisson:<pps>[:burst=<n>])")
	fs.String("intrmod", "", "workload: interrupt moderation (packets per interrupt, or poll)")
	fs.Int("doorbell", 0, "workload: doorbell batch override (0 = design default)")

	// Topology knobs (-bench workload / -bench p2p).
	fs.Int("endpoints", 1, "topology: endpoint (NIC) count")
	fs.String("switch", "", "topology: shared switch uplink (none, on, or gen<G>x<L>)")
	fs.String("socket", "", "topology: endpoint placement (socket index or split)")
	fs.Bool("local-buffers", false, "topology: home each endpoint's DMA buffer on its own socket's NUMA node")
	fs.Bool("nojitter", false, "disable root-complex latency jitter")
	fs.String("p2p", "direct", "p2p: transfer path (direct or bounce)")

	// Fault-injection knobs (internal/fault); all off by default.
	fs.Float64("ber", 0, "fault injection: per-bit link error rate driving LCRC corruption and replay (0 = off)")
	fs.String("cto", "", "fault injection: DMA read completion timeout, e.g. 10us (empty = off)")
	fs.String("retrain", "", "fault injection: mean time between link retrain events, e.g. 1ms (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Profiling wraps every mode — single benches, the suite and the
	// sweep engine — so perf work needs no code edits, just flags.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "pcie-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "pcie-bench: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, s := range sysconf.Systems() {
			fmt.Fprintf(stdout, "%-16s %-28s %-12s %s\n", s.Name, s.CPU, s.Arch, s.Adapter)
		}
		return nil
	}

	q := sweep.Quick
	if *full {
		q = sweep.Full
	}
	cli := &sweep.CLI{
		List: *sweeps, RunName: *runName, SpecPath: *specPath,
		Overrides: fs.Args(), Format: *format,
		Quality: q, CacheDir: *cacheDir,
	}
	if cli.Active() {
		return cli.Execute(context.Background(), stdout, stderr)
	}

	if *suite {
		return runSuite(context.Background(), suiteSpec(*system, *iommuOn, *iommuScope, *sp, *seed), stdout, stderr)
	}

	if strings.EqualFold(*benchSel, sweep.BenchLoopback) {
		// A valid cell kind, but not one of pcie-bench's benchmarks.
		return fmt.Errorf("unknown benchmark %q", *benchSel)
	}
	// A single run is the one-cell sweep of the flags the user set,
	// over the flag defaults that differ from a bare cell's.
	kv := map[string]string{}
	for _, name := range []string{"window", "transfer", "cache", "n", "seed", "sizes"} {
		kv[name] = fs.Lookup(name).DefValue
	}
	fs.Visit(func(f *flag.Flag) {
		key, ok := cellKeys[f.Name]
		v := f.Value.String()
		// An empty string flag whose default is empty stays unset.
		if !ok || (v == "" && f.DefValue == "") {
			return
		}
		if f.Name == "local-buffers" {
			v = "shared"
			if f.Value.String() == "true" {
				v = "local"
			}
		}
		kv[key] = v
	})
	d, err := sweep.Single(kv)
	if err != nil {
		return err
	}
	return render(stdout, d, *nicSel, *cdf, *jsonOut)
}

// cellKeys maps each single-run flag onto the sweep cell key it sets.
var cellKeys = map[string]string{
	"system": "system", "bench": "bench", "window": "window", "transfer": "transfer",
	"offset": "offset", "pattern": "pattern", "cache": "cache", "n": "n", "node": "node",
	"iommu": "iommu", "iommu-scope": "iommuscope", "sp": "sp", "direct": "direct", "seed": "seed",
	"queues": "queues", "flows": "flows", "inflight": "inflight", "sizes": "sizes",
	"arrival": "arrival", "nic": "nic", "intrmod": "intrmod", "doorbell": "doorbell",
	"endpoints": "endpoints", "switch": "switch", "socket": "socket", "local-buffers": "buffers",
	"nojitter": "nojitter", "p2p": "p2p", "ber": "ber", "cto": "cto", "retrain": "retrain",
}

// render prints a single run: a header naming the benchmark, system
// and parameters, then the result lines, fault counters when fault
// injection is armed and the switches' uplink arbitration waits; or,
// under -json, the run as a benchResult. nic is the -nic spelling the
// workload header names.
func render(w io.Writer, d *sweep.Detail, nic string, cdf, jsonOut bool) error {
	cfg := d.Config
	sys, err := sysconf.ByName(cfg.System)
	if err != nil {
		return err
	}
	out := benchResult{
		Bench: cfg.Bench, System: sys.Name,
		Adapter: sys.Adapter.String(), Params: cfg.Params.String(),
	}
	var body strings.Builder
	// Single-endpoint runs print endpoint 0's counters after their
	// result; fabric runs print them per endpoint.
	singleFaults := true
	switch res := d.Result.(type) {
	case *bench.LatencyResult:
		out.Latency = &res.Summary
		fmt.Fprintf(&body, "%s %s\n", res.Name, res.Summary)
		if cdf && !jsonOut {
			c, err := res.CDF()
			if err != nil {
				return err
			}
			body.WriteString(c.TSV())
		}
	case *bench.BandwidthResult:
		out.Gbps, out.TxnPerSec = res.Gbps, res.TxnPerSec
		fmt.Fprintf(&body, "%s %.3f Gb/s  %.2fM txn/s  elapsed %v\n",
			res.Name, res.Gbps, res.TxnPerSec/1e6, res.Elapsed)
	case *workload.Result:
		out.Workload = res
		out.Params = workloadParams(cfg, nic)
		fmt.Fprintf(&body, "WORKLOAD %.3fM pps  %.3f Gb/s/dir  p50 %.0fns  p99 %.0fns  p99.9 %.0fns  elapsed %v\n",
			res.PPS/1e6, res.GbpsPerDirection, res.Latency.Median, res.Latency.P99, res.Latency.P999, res.Elapsed)
		for _, q := range res.Queues {
			fmt.Fprintf(&body, "  q%-3d %7d pairs  %8.3fM pps  %7.3f Gb/s  p50 %.0fns  p99 %.0fns\n",
				q.Queue, q.Pairs, q.PPS/1e6, q.Gbps, q.Latency.Median, q.Latency.P99)
		}
	case *workload.MultiResult:
		singleFaults = false
		out.WorkloadMulti = res
		out.Params = workloadParams(cfg, nic) + fmt.Sprintf(" endpoints=%d", cfg.Shape.Count())
		if cfg.Shape.Switch != nil {
			out.Params += fmt.Sprintf(" switch=%s", *cfg.Shape.Switch)
		}
		fmt.Fprintf(&body, "WORKLOAD %.3fM pps  %.3f Gb/s/dir  p50 %.0fns  p99 %.0fns  p99.9 %.0fns  elapsed %v\n",
			res.PPS/1e6, res.GbpsPerDirection, res.Latency.Median, res.Latency.P99, res.Latency.P999, res.Elapsed)
		for _, ep := range res.Endpoints {
			fmt.Fprintf(&body, "  ep%-2d %7d pairs  %8.3fM pps  %7.3f Gb/s  p50 %.0fns  p99 %.0fns\n",
				ep.Endpoint, ep.Pairs, ep.PPS/1e6, ep.GbpsPerDirection, ep.Latency.Median, ep.Latency.P99)
			if ep.Faults != nil {
				fmt.Fprintf(&body, "       faults: %s\n", faultLine(ep.Faults))
			}
		}
		for _, sw := range d.Fabric.Switches {
			if ws, ok := sw.WaitSummary(true); ok {
				fmt.Fprintf(&body, "  uplink arb wait: p50 %.0fns  p99 %.0fns  max %.0fns\n", ws.Median, ws.P99, ws.Max)
			}
		}
	case *topo.P2PResult:
		singleFaults = false
		out.P2P = res
		out.Params = fmt.Sprintf("mode=%s transfer=%d endpoints=%d n=%d",
			res.Mode, res.Transfer, cfg.Shape.Count(), cfg.Params.Transactions)
		fmt.Fprintf(&body, "P2P %s  p50 %.0fns  p99 %.0fns  %.3f Gb/s\n",
			res.Mode, res.Latency.Median, res.Latency.P99, res.Gbps)
		if ws := res.UplinkWait; ws != nil {
			fmt.Fprintf(&body, "  uplink arb wait: p50 %.0fns  p99 %.0fns  max %.0fns\n", ws.Median, ws.P99, ws.Max)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if c := d.Fabric.Endpoints[0].Faults; singleFaults && c != nil {
		fmt.Fprintf(&body, "  faults: %s\n", faultLine(c))
	}
	_, err = fmt.Fprintf(w, "# %s on %s (%s): %s\n%s", cfg.Bench, sys.Name, sys.Adapter, out.Params, body.String())
	return err
}

// workloadParams describes a workload run's traffic for its header.
func workloadParams(cfg sweep.Config, nic string) string {
	wl := cfg.Workload.WithDefaults()
	return fmt.Sprintf("queues=%d flows=%d inflight=%d sizes=%s arrival=%s nic=%s n=%d",
		wl.Queues, wl.Flows, wl.Window, wl.Sizes, wl.Arrival, nic, cfg.Params.Transactions)
}

// faultLine renders one endpoint's fault counters for the text
// reports.
func faultLine(c *fault.Counters) string {
	return fmt.Sprintf("replays %d  timeouts %d  retrains %d  (correctable %d  non-fatal %d  fatal %d)",
		c.Replays, c.Timeouts, c.Retrains, c.Correctable, c.NonFatal, c.Fatal)
}
