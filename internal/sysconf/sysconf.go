// Package sysconf defines the six evaluation systems of the paper's
// Table 1 and assembles runnable benchmark targets from them.
//
// Each System couples a host-side calibration (memory latencies, root
// complex pipeline, link parameters, latency-jitter model) with the
// network adapter installed in it (NFP-6000 or NetFPGA-SUME). The
// numeric calibrations are anchored to measurements the paper itself
// reports; see the per-field comments and DESIGN.md for the mapping.
package sysconf

import (
	"fmt"

	"pciebench/internal/bench"
	"pciebench/internal/device"
	"pciebench/internal/device/netfpga"
	"pciebench/internal/device/nfp"
	"pciebench/internal/fault"
	"pciebench/internal/hostif"
	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
	"pciebench/internal/topo"
)

// Adapter identifies the plugged-in benchmark device.
type Adapter int

// Adapters used in the paper.
const (
	NFP6000 Adapter = iota
	NetFPGASUME
)

// String names the adapter as in Table 1.
func (a Adapter) String() string {
	if a == NetFPGASUME {
		return "NetFPGA-SUME"
	}
	return "NFP6000 1.2GHz"
}

// System is one row of Table 1 plus its simulator calibration.
type System struct {
	Name    string
	CPU     string
	NUMA    string // "2-way" or "no"
	Arch    string
	Memory  string
	OS      string
	Adapter Adapter

	// Calibration.
	Nodes       int
	LLCBytes    int
	LLCWays     int
	DDIOWays    int
	LLCLatency  sim.Time
	DRAMLatency sim.Time
	RemoteLat   sim.Time
	PipeLatency sim.Time
	PipeSlots   int
	WireDelay   sim.Time
	Jitter      rc.Jitter
}

// XeonE5Jitter is the narrow per-TLP latency variation of the Xeon E5
// root complexes: Fig 6 reports, for 64B reads on NFP6000-HSW, a
// 520 ns minimum, 547 ns median, 99.9% of samples within an 80 ns band
// and a 947 ns maximum over 2M transactions. The anchors are the deltas
// over the minimum.
func XeonE5Jitter() rc.Jitter {
	j, err := rc.NewQuantileJitter([]rc.QuantilePoint{
		{P: 0.0, Delay: 0},
		{P: 0.2, Delay: 0},
		{P: 0.5, Delay: 27 * sim.Nanosecond},
		{P: 0.95, Delay: 55 * sim.Nanosecond},
		{P: 0.999, Delay: 80 * sim.Nanosecond},
		{P: 0.9999, Delay: 100 * sim.Nanosecond},
		{P: 1.0, Delay: 427 * sim.Nanosecond},
	})
	if err != nil {
		panic(err)
	}
	return j
}

// XeonE3Jitter is the heavy-tailed model for the Xeon E3-1226v3 root
// complex (Fig 6 / §6.2): minimum 493 ns but median 1213 ns, sharp
// growth from the ~63rd percentile (p90 ≈ 2x median), p99 = 5707 ns,
// p99.9 = 11987 ns, and rare excursions beyond 1 ms up to 5.8 ms. The
// paper suspects hidden power-saving states; this is the explicit
// synthetic stand-in, anchored to those reported percentiles as deltas
// over the minimum.
func XeonE3Jitter() rc.Jitter {
	j, err := rc.NewQuantileJitter([]rc.QuantilePoint{
		{P: 0.0, Delay: 0},
		{P: 0.35, Delay: 0},
		{P: 0.5, Delay: 720 * sim.Nanosecond},
		{P: 0.63, Delay: 980 * sim.Nanosecond},
		{P: 0.90, Delay: 1933 * sim.Nanosecond},
		{P: 0.99, Delay: 5214 * sim.Nanosecond},
		{P: 0.999, Delay: 11494 * sim.Nanosecond},
		{P: 0.9999, Delay: 1 * sim.Millisecond},
		{P: 1.0, Delay: sim.Time(5.3 * float64(sim.Millisecond))},
	})
	if err != nil {
		panic(err)
	}
	return j
}

// Systems returns Table 1: the six measured configurations.
//
// The common Xeon E5 host calibration anchors to: NFP bulk-DMA 64B warm
// read median 547 ns on Haswell (Fig 6), NetFPGA ~450 ns (Fig 5),
// warm-vs-cold delta 70 ns (Fig 7), remote-node penalty ~100 ns
// (Fig 8), and a root-complex pipeline able to sustain a transaction
// every ~4 ns (§4.2). Per-system WireDelay trims reproduce the small
// baseline differences the paper reports between generations (e.g. 64B
// reads at ~430 ns on Broadwell in §6.5 vs ~450 ns on Haswell).
func Systems() []System {
	e5 := func(name, cpu, numaStr, arch, memory, os string, nodes int, llcMB int, adapter Adapter, wire sim.Time) System {
		return System{
			Name: name, CPU: cpu, NUMA: numaStr, Arch: arch, Memory: memory, OS: os,
			Adapter: adapter, Nodes: nodes,
			LLCBytes: llcMB << 20, LLCWays: 20, DDIOWays: 2,
			LLCLatency: 50 * sim.Nanosecond, DRAMLatency: 120 * sim.Nanosecond,
			RemoteLat:   100 * sim.Nanosecond,
			PipeLatency: 100 * sim.Nanosecond, PipeSlots: 24, WireDelay: wire,
			Jitter: XeonE5Jitter(),
		}
	}
	e3 := e5("NFP6000-HSW-E3", "Intel Xeon E3-1226v3 3.3GHz", "no", "Haswell",
		"16GB", "Ubuntu 4.4.0-31", 1, 15, NFP6000, 93*sim.Nanosecond)
	// The E3's minimum is 27ns below the E5's (493 vs 520) with a
	// radically different tail.
	e3.Jitter = XeonE3Jitter()
	return []System{
		e5("NFP6000-BDW", "Intel Xeon E5-2630v4 2.2GHz", "2-way", "Broadwell",
			"128GB", "Ubuntu 3.19.0-69", 2, 25, NFP6000, 112*sim.Nanosecond),
		e5("NetFPGA-HSW", "Intel Xeon E5-2637v3 3.5GHz", "no", "Haswell",
			"64GB", "Ubuntu 3.19.0-43", 1, 15, NetFPGASUME, 120*sim.Nanosecond),
		e5("NFP6000-HSW", "Intel Xeon E5-2637v3 3.5GHz", "no", "Haswell",
			"64GB", "Ubuntu 3.19.0-43", 1, 15, NFP6000, 120*sim.Nanosecond),
		e3,
		e5("NFP6000-IB", "Intel Xeon E5-2620v2 2.1GHz", "2-way", "Ivy Bridge",
			"32GB", "Ubuntu 3.19.0-30", 2, 15, NFP6000, 130*sim.Nanosecond),
		e5("NFP6000-SNB", "Intel Xeon E5-2630 2.3GHz", "no", "Sandy Bridge",
			"16GB", "Ubuntu 3.19.0-30", 1, 15, NFP6000, 126*sim.Nanosecond),
	}
}

// ByName returns the named system.
func ByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("sysconf: unknown system %q", name)
}

// DefaultBufferSize is the host DMA buffer size Build allocates when
// Options.BufferSize is zero: 64MB plus a page of slack for the
// offset experiments. Exported so layers validating DMA footprints
// (the sweep engine's workload cells) check against the real bound.
const DefaultBufferSize = 64<<20 + 4096

// Options configures the assembly of a benchmark instance.
type Options struct {
	// Seed drives all simulation randomness (0 uses 1).
	Seed int64
	// IOMMU interposes the IOMMU in the DMA path (§6.5); off by
	// default like the paper's baseline runs.
	IOMMU bool
	// IOMMUWalkers overrides the IOMMU's page-walker pool size (the
	// calibrated default is 6) when positive. Ignored when IOMMU is
	// false.
	IOMMUWalkers int
	// IOMMUScope selects how many translation units serve the fabric
	// when IOMMU is set: "global" (or empty, the default) models one
	// unit on every DMA path; "per-socket" gives each socket its own
	// DRHD-style unit, so endpoints on different sockets stop sharing
	// IO-TLB and walker state. Ignored when IOMMU is false.
	IOMMUScope string
	// SuperPages maps the buffer with the allocation's natural page
	// size; false forces 4KB entries (the paper's sp_off).
	SuperPages bool
	// BufferSize is the host DMA buffer size (default 64MB +4KB of
	// slack for offset experiments).
	BufferSize int
	// BufferNode selects the NUMA node for the buffer (§6.4).
	BufferNode int
	// NoJitter disables the per-system latency jitter model (useful
	// for deterministic calibration tests).
	NoJitter bool
	// MaxInFlight overrides the adapter's in-flight DMA limit when
	// positive (the §2 sizing argument's knob); 0 keeps the adapter's
	// calibrated default.
	MaxInFlight int
	// Link overrides the PCIe link configuration (default Gen3 x8,
	// the paper's setup). Used by the Gen4 projection experiments the
	// paper's §6 anticipates.
	Link *pcie.LinkConfig
	// SimWorkers asks for a partitioned fabric run on up to this many
	// worker goroutines (<= 1 builds serially). Results are
	// byte-identical at every value; parallelism only materializes when
	// the topology splits into several independent endpoint islands.
	SimWorkers int
	// Faults arms deterministic fault injection (BER corruption and
	// replay, completion timeouts, link retrains — see internal/fault)
	// on every endpoint; nil or all-zero keeps the exact fault-free
	// code path.
	Faults *fault.Config
}

// Instance is an assembled system ready to run benchmarks. It is the
// single-endpoint view of a Fabric: Engine and Buffer belong to the
// first endpoint.
type Instance struct {
	System System
	Kernel *sim.Kernel
	Mem    *mem.System
	IOMMU  *iommu.IOMMU // nil when disabled
	Host   *hostif.Host
	RC     *rc.RootComplex
	Engine *device.Engine
	Buffer *hostif.Buffer
	// Fabric is the full topology the instance was assembled from.
	Fabric *topo.Fabric
}

// Target returns the bench.Target view of the instance.
func (i *Instance) Target() *bench.Target {
	return &bench.Target{Host: i.Host, Engine: i.Engine, Buffer: i.Buffer}
}

// memConfig is the system's memory calibration.
func (s System) memConfig() mem.Config {
	return mem.Config{
		Nodes: s.Nodes,
		Cache: mem.CacheConfig{
			SizeBytes: s.LLCBytes,
			Ways:      s.LLCWays,
			LineSize:  pcie.CacheLineSize,
			DDIOWays:  s.DDIOWays,
		},
		LLCLatency:    s.LLCLatency,
		DRAMLatency:   s.DRAMLatency,
		RemoteLatency: s.RemoteLat,
	}
}

// deviceConfig returns the engine parameterization and buffer
// allocation strategy of the system's adapter.
func (s System) deviceConfig() (device.Config, hostif.AllocMode) {
	if s.Adapter == NetFPGASUME {
		return netfpga.Config(), hostif.Huge1G
	}
	return nfp.Config(), hostif.Chunked4M
}

// DeviceBAR is the default device-memory window endpoints expose for
// peer-to-peer DMA in multi-endpoint topologies: a 16MB window with
// NFP-CTM-class access latencies and an ~80 Gb/s internal path.
func DeviceBAR() topo.BARSpec {
	return topo.BARSpec{
		Size:         16 << 20,
		ReadLatency:  350 * sim.Nanosecond,
		WriteLatency: 100 * sim.Nanosecond,
		PSPerByte:    100,
	}
}

// QPIPSPerByte approximates a ~16 GB/s inter-socket interconnect for
// the explicit bandwidth-contention model of split-socket topologies
// (the latency penalty stays in mem.Config.RemoteLatency, calibrated
// from §6.4).
const QPIPSPerByte = 62

// TopoSpec expands a topology shape against this system's calibration
// into a full topo.Spec: the degenerate shape reproduces the paper's
// single-adapter assembly exactly, larger shapes add switches, extra
// endpoints, BAR windows and multi-socket placement.
func (s System) TopoSpec(shape topo.Shape, opt Options) (topo.Spec, error) {
	if err := shape.Validate(s.Nodes); err != nil {
		return topo.Spec{}, fmt.Errorf("sysconf: %s: %w", s.Name, err)
	}
	spec := topo.Spec{
		Seed:       opt.Seed,
		Mem:        s.memConfig(),
		SimWorkers: opt.SimWorkers,
		Faults:     opt.Faults,
	}
	if opt.IOMMU {
		cfg := iommu.DefaultConfig()
		if opt.IOMMUWalkers > 0 {
			cfg.Walkers = opt.IOMMUWalkers
		}
		spec.IOMMU = &cfg
		scope, err := topo.ParseIOMMUScope(opt.IOMMUScope)
		if err != nil {
			return topo.Spec{}, fmt.Errorf("sysconf: %s: %w", s.Name, err)
		}
		spec.IOMMUScope = scope
	}

	jitter := s.Jitter
	if opt.NoJitter {
		jitter = nil
	}
	sockets := 1
	if !shape.Degenerate() {
		// Non-degenerate topologies materialize every socket, so
		// placement and split layouts can route across them.
		sockets = s.Nodes
	}
	for i := 0; i < sockets; i++ {
		spec.Sockets = append(spec.Sockets, topo.SocketSpec{
			Node: i, PipeLatency: s.PipeLatency, PipeSlots: s.PipeSlots, Jitter: jitter,
		})
	}
	if sockets > 1 {
		spec.Interconnect = &rc.InterconnectConfig{PSPerByte: QPIPSPerByte, Shared: true}
	}

	link := pcie.DefaultGen3x8()
	if opt.Link != nil {
		link = *opt.Link
	}
	swIndex := topo.DirectAttach
	if shape.Switch != nil {
		spec.Switches = append(spec.Switches, topo.DefaultSwitch(*shape.Switch, shape.SocketOf(0, sockets)))
		swIndex = 0
	}

	devCfg, mode := s.deviceConfig()
	if opt.MaxInFlight > 0 {
		devCfg.MaxInFlight = opt.MaxInFlight
	}
	size := opt.BufferSize
	if size == 0 {
		size = DefaultBufferSize
	}
	mapPage := iommu.Page4K
	if opt.SuperPages {
		mapPage = 0 // natural page size
	}
	count := shape.Count()
	for i := 0; i < count; i++ {
		adapter := "nfp"
		if s.Adapter == NetFPGASUME {
			adapter = "netfpga"
		}
		bufNode := opt.BufferNode
		if shape.LocalBuffers {
			// Sockets are materialized with Node == index, so the
			// endpoint's attach socket names its home node directly. A
			// switched endpoint ingresses at the switch's socket, which
			// SocketOf already resolves.
			bufNode = shape.SocketOf(i, sockets)
			if swIndex != topo.DirectAttach {
				bufNode = spec.Switches[swIndex].Socket
			}
		}
		ep := topo.EndpointSpec{
			Name:        fmt.Sprintf("%s-ep%d", adapter, i),
			Device:      devCfg,
			Link:        link,
			WireDelay:   s.WireDelay,
			Switch:      swIndex,
			Socket:      shape.SocketOf(i, sockets),
			BufferBytes: size,
			BufferNode:  bufNode,
			AllocMode:   mode,
			MapPage:     mapPage,
		}
		if count >= 2 {
			bar := DeviceBAR()
			ep.BAR = &bar
		}
		spec.Endpoints = append(spec.Endpoints, ep)
	}
	return spec, nil
}

// Fabric assembles the system as a topology of the given shape.
func (s System) Fabric(shape topo.Shape, opt Options) (*topo.Fabric, error) {
	spec, err := s.TopoSpec(shape, opt)
	if err != nil {
		return nil, err
	}
	f, err := topo.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("sysconf: %s: %w", s.Name, err)
	}
	return f, nil
}

// Build assembles a runnable instance of the system — the degenerate
// one-endpoint topology, byte-identical to the original single-device
// assembly.
func (s System) Build(opt Options) (*Instance, error) {
	f, err := s.Fabric(topo.Shape{}, opt)
	if err != nil {
		return nil, err
	}
	ep := f.Endpoints[0]
	mmu := f.IOMMU
	if mmu == nil {
		// A per-socket-scoped degenerate build has exactly one unit;
		// surface it so callers see the IOMMU regardless of scope.
		if units := f.IOMMUUnits(); len(units) == 1 {
			mmu = units[0]
		}
	}
	return &Instance{
		System: s,
		Kernel: f.Kernel,
		Mem:    f.Mem,
		IOMMU:  mmu,
		Host:   f.Host,
		RC:     f.RC,
		Engine: ep.Engine,
		Buffer: ep.Buffer,
		Fabric: f,
	}, nil
}
