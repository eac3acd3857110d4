// Package topo describes and assembles composable PCIe topologies: the
// sockets, switches and endpoints of a host, wired into a runnable
// fabric of simulator components.
//
// The paper measures one adapter on one link into one root-complex
// port. Its NUMA results (§6.4) and its host-interface bottleneck
// analysis only generalize if the simulator can express *topologies*:
// several endpoints contending for a shared upstream link, multi-socket
// hosts routing DMA across the inter-socket interconnect, and
// SmartNIC-style peer-to-peer transfers between devices. A Spec is the
// declarative description of such a machine; Build turns it into a
// Fabric — one simulation kernel, one memory system, a multi-port
// internal/rc router, and one DMA engine plus host buffer per
// endpoint.
//
// The degenerate one-socket, one-endpoint, no-switch Spec reproduces
// the paper's Table-1 systems exactly: internal/sysconf builds those
// systems through this package, and the byte-identity tests pin the
// equivalence.
package topo

import (
	"fmt"
	"strings"

	"pciebench/internal/device"
	"pciebench/internal/fault"
	"pciebench/internal/hostif"
	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// DirectAttach marks an endpoint as plugged straight into its socket's
// root port rather than below a switch.
const DirectAttach = -1

// SocketSpec calibrates one CPU socket: its root-complex pipeline and
// the NUMA node its memory controller owns.
type SocketSpec struct {
	Node        int
	PipeLatency sim.Time
	PipeSlots   int
	Jitter      rc.Jitter
}

// SwitchSpec describes a PCIe switch: the socket its shared uplink
// plugs into and the uplink's timing and flow-control parameters.
type SwitchSpec struct {
	Socket         int
	Uplink         pcie.LinkConfig
	WireDelay      sim.Time
	ForwardLatency sim.Time
	DrainLatency   sim.Time
	UpCredits      rc.CreditLimits
	DownCredits    rc.CreditLimits
}

// BARSpec sizes an endpoint's device-memory window for peer-to-peer
// DMA and calibrates its internal access costs.
type BARSpec struct {
	// Size is the window size in bytes; Build assigns the bus address.
	Size int
	// ReadLatency/WriteLatency/PSPerByte are the device-internal access
	// costs (see rc.BARConfig).
	ReadLatency  sim.Time
	WriteLatency sim.Time
	PSPerByte    int64
}

// EndpointSpec describes one device: its engine parameterization, its
// link, where it attaches, and its host DMA buffer.
type EndpointSpec struct {
	// Name labels the endpoint in results.
	Name string
	// Device parameterizes the DMA engine (e.g. nfp.Config()).
	Device device.Config
	// Link and WireDelay shape the endpoint's own link (to the root
	// port, or to its switch's downstream port).
	Link      pcie.LinkConfig
	WireDelay sim.Time
	// Switch is the index of the switch the endpoint sits below, or
	// DirectAttach (-1).
	Switch int
	// Socket is the socket of a directly attached endpoint (ignored
	// below a switch: the switch's socket wins).
	Socket int
	// BufferBytes sizes the endpoint's host DMA buffer; BufferNode
	// selects its NUMA node; AllocMode its allocation strategy; MapPage
	// its IOMMU page granularity (0 = the allocation's natural size).
	BufferBytes int
	BufferNode  int
	AllocMode   hostif.AllocMode
	MapPage     int
	// BAR optionally exposes a device-memory window for peer-to-peer
	// DMA from other endpoints.
	BAR *BARSpec
}

// IOMMU scope values (Spec.IOMMUScope).
const (
	// IOMMUScopeGlobal is the historical single-unit form: one
	// translation unit (IO-TLB + walker pool) on every DMA path,
	// whatever socket ingests the traffic. The empty scope means the
	// same thing.
	IOMMUScopeGlobal = "global"
	// IOMMUScopePerSocket models VT-d's multiple DRHD units: each
	// socket's root ports translate through a unit of their own, with
	// its own IO-TLB, walker pool and Hits/Misses/Faults counters.
	// Endpoints ingressing at different sockets then share no
	// translation state and can partition into independent islands.
	IOMMUScopePerSocket = "per-socket"
)

// ParseIOMMUScope canonicalizes an IOMMU scope string ("" and "global"
// both mean the global single-unit scope).
func ParseIOMMUScope(v string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", IOMMUScopeGlobal:
		return IOMMUScopeGlobal, nil
	case IOMMUScopePerSocket:
		return IOMMUScopePerSocket, nil
	}
	return "", fmt.Errorf("topo: unknown IOMMU scope %q (want %s or %s)", v, IOMMUScopeGlobal, IOMMUScopePerSocket)
}

// Spec is a complete topology description.
type Spec struct {
	// Seed drives all simulation randomness (0 uses 1).
	Seed int64
	// Mem calibrates the (shared) memory system; its Nodes count must
	// cover every socket's Node.
	Mem mem.Config
	// IOMMU, when non-nil, interposes an IOMMU in every DMA path.
	IOMMU *iommu.Config
	// IOMMUScope selects how many translation units serve the fabric
	// when IOMMU is non-nil: IOMMUScopeGlobal ("" or "global", the
	// default) builds one unit shared by every socket;
	// IOMMUScopePerSocket builds one unit per socket.
	IOMMUScope string
	// Interconnect, when non-nil, models explicit inter-socket
	// bandwidth contention on top of the memory system's RemoteLatency.
	Interconnect *rc.InterconnectConfig
	Sockets      []SocketSpec
	Switches     []SwitchSpec
	Endpoints    []EndpointSpec
	// SimWorkers asks Build for a partitioned fabric run on up to this
	// many worker goroutines (<= 1, the default, builds the serial
	// single-kernel form). Parallelism materializes only when the spec
	// partitions into more than one island (see islandsOf): each island
	// then runs all of its endpoints on one event kernel of its own.
	// A spec that forms one island — a shared switch, socket or buffer
	// node, a global-scope IOMMU — builds serially.
	// Results are byte-identical either way.
	SimWorkers int
	// Faults, when enabled, arms deterministic fault injection on
	// every endpoint: BER-driven link corruption/replay, completion
	// timeouts, and retrain events (see internal/fault). Streams are
	// keyed by (spec seed, global endpoint index, fault class), so
	// results stay byte-identical at every SimWorkers count. Nil or
	// all-zero installs nothing at all.
	Faults *fault.Config
}

// Validate reports structural errors: missing pieces and out-of-range
// references.
func (s Spec) Validate() error {
	if len(s.Sockets) == 0 {
		return fmt.Errorf("topo: spec needs at least one socket")
	}
	if len(s.Endpoints) == 0 {
		return fmt.Errorf("topo: spec needs at least one endpoint")
	}
	for i, sock := range s.Sockets {
		if sock.Node < 0 || sock.Node >= s.Mem.Nodes {
			return fmt.Errorf("topo: socket %d's node %d outside the %d-node memory system", i, sock.Node, s.Mem.Nodes)
		}
	}
	for i, sw := range s.Switches {
		if sw.Socket < 0 || sw.Socket >= len(s.Sockets) {
			return fmt.Errorf("topo: switch %d references socket %d of %d", i, sw.Socket, len(s.Sockets))
		}
	}
	for i, ep := range s.Endpoints {
		if ep.Switch != DirectAttach && (ep.Switch < 0 || ep.Switch >= len(s.Switches)) {
			return fmt.Errorf("topo: endpoint %d references switch %d of %d", i, ep.Switch, len(s.Switches))
		}
		if ep.Switch == DirectAttach && (ep.Socket < 0 || ep.Socket >= len(s.Sockets)) {
			return fmt.Errorf("topo: endpoint %d references socket %d of %d", i, ep.Socket, len(s.Sockets))
		}
		if ep.BufferNode < 0 || ep.BufferNode >= s.Mem.Nodes {
			return fmt.Errorf("topo: endpoint %d's buffer node %d outside the %d-node memory system", i, ep.BufferNode, s.Mem.Nodes)
		}
	}
	if _, err := ParseIOMMUScope(s.IOMMUScope); err != nil {
		return err
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("topo: %w", err)
	}
	return nil
}

// perSocketIOMMU reports whether the spec builds one translation unit
// per socket (only meaningful when an IOMMU is configured at all).
func (s Spec) perSocketIOMMU() bool {
	return s.IOMMU != nil && s.IOMMUScope == IOMMUScopePerSocket
}

// Endpoint is one assembled device: its fabric port, DMA engine and
// host buffer.
type Endpoint struct {
	Name   string
	Port   *rc.Port
	Engine *device.Engine
	Buffer *hostif.Buffer
	// Faults is the endpoint's AER-style counter block, shared by its
	// port and engine; nil when fault injection is disabled.
	Faults *fault.Counters
}

// CoupledGroup describes one multi-endpoint island of a partitioned
// build: endpoints that share fabric state (a switch, socket or buffer
// node) and therefore run together on their island's one kernel.
type CoupledGroup struct {
	// Island indexes Fabric.Islands.
	Island int
	// Endpoints lists the group's endpoint indices, ascending.
	Endpoints []int
}

// Fabric is an assembled topology, ready to run benchmarks and
// workloads on every endpoint concurrently. On a serial build every
// endpoint shares Kernel and RC; on a partitioned build (SimWorkers >
// 1, several islands) each island owns a kernel and router of its
// own, and Kernel/RC alias island 0's.
type Fabric struct {
	Spec   Spec
	Kernel *sim.Kernel
	Mem    *mem.System
	// IOMMU is the fabric-wide translation unit (global scope); nil
	// when the IOMMU is disabled or scoped per socket.
	IOMMU *iommu.IOMMU
	// IOMMUs holds the per-socket translation units, indexed by socket
	// (IOMMUScopePerSocket only; nil otherwise).
	IOMMUs    []*iommu.IOMMU
	Host      *hostif.Host
	RC        *rc.RootComplex
	Switches  []*rc.Switch
	Endpoints []*Endpoint

	// Kernels holds one kernel per simulation island (Kernels[0] ==
	// Kernel); Islands lists each island's endpoint indices in
	// ascending order (a serial build is one island of every
	// endpoint); Routers holds each island's root complex (Routers[0]
	// == RC).
	Kernels []*sim.Kernel
	Islands [][]int
	Routers []*rc.RootComplex

	// Coupled lists the multi-endpoint islands of a partitioned build,
	// ascending by island; empty on serial builds and on fabrics whose
	// islands are all singletons.
	Coupled []CoupledGroup

	epIsland []int // per-endpoint index into Kernels, Islands and Routers
}

// Parallel reports whether the fabric runs on more than one event
// kernel.
func (f *Fabric) Parallel() bool { return len(f.Kernels) > 1 }

// SimWorkers returns the worker-goroutine budget workloads should run
// the fabric's islands on (always >= 1).
func (f *Fabric) SimWorkers() int {
	if f.Spec.SimWorkers > 1 {
		return f.Spec.SimWorkers
	}
	return 1
}

// EndpointKernel returns the kernel endpoint i's island runs on (the
// shared kernel on a serial build).
func (f *Fabric) EndpointKernel(i int) *sim.Kernel { return f.Kernels[f.epIsland[i]] }

// IOMMUUnits returns every translation unit of the fabric: the single
// global-scope unit, or the per-socket units in socket order. Empty
// when the IOMMU is disabled.
func (f *Fabric) IOMMUUnits() []*iommu.IOMMU {
	if f.IOMMUs != nil {
		return f.IOMMUs
	}
	if f.IOMMU != nil {
		return []*iommu.IOMMU{f.IOMMU}
	}
	return nil
}

// iommuFor returns the unit translating DMA ingested at the given
// socket: its per-socket unit under per-socket scope, the global unit
// otherwise (nil when the IOMMU is disabled).
func (f *Fabric) iommuFor(sock int) *iommu.IOMMU {
	if f.IOMMUs != nil {
		return f.IOMMUs[sock]
	}
	return f.IOMMU
}

// barBase is where Build places auto-assigned BAR windows: far above
// both the hostif physical-address layout and its IOVA range, so
// device windows can never shadow host buffers.
const barBase = uint64(1) << 45

// barStride spaces consecutive BAR windows (8 GB, comfortably above
// any plausible device memory size).
const barStride = uint64(8) << 30

// addEndpoint assembles endpoint i of the spec on the given router and
// kernel and appends it to the fabric: port, optional BAR window (its
// bus address derives from the global endpoint index, so partitioned
// and serial builds lay out identical address maps), DMA engine and
// host buffer.
func addEndpoint(f *Fabric, router *rc.RootComplex, k *sim.Kernel, i int, es EndpointSpec, sock *rc.Socket, sw *rc.Switch) error {
	port, err := router.AddPort(rc.PortConfig{Link: es.Link, WireDelay: es.WireDelay}, sock, sw)
	if err != nil {
		return fmt.Errorf("topo: endpoint %d: %w", i, err)
	}
	if es.BAR != nil {
		if err := port.SetBAR(rc.BARConfig{
			Base: barBase + uint64(i)*barStride, Size: es.BAR.Size,
			ReadLatency: es.BAR.ReadLatency, WriteLatency: es.BAR.WriteLatency,
			PSPerByte: es.BAR.PSPerByte,
		}); err != nil {
			return fmt.Errorf("topo: endpoint %d: %w", i, err)
		}
	}
	eng, err := device.New(k, port, es.Device)
	if err != nil {
		return fmt.Errorf("topo: endpoint %d: %w", i, err)
	}
	// The buffer maps into the unit of the socket whose root ports will
	// ingest this endpoint's DMA; all units share one IOVA allocator,
	// so the address layout is identical under either scope.
	buf, err := f.Host.AllocIn(f.iommuFor(f.Spec.socketOf(i)), es.BufferBytes, es.BufferNode, es.AllocMode, es.MapPage)
	if err != nil {
		return fmt.Errorf("topo: endpoint %d: %w", i, err)
	}
	name := es.Name
	if name == "" {
		name = fmt.Sprintf("ep%d", i)
	}
	ep := &Endpoint{Name: name, Port: port, Engine: eng, Buffer: buf}
	if f.Spec.Faults.Enabled() {
		// Streams key on (resolved seed, global endpoint index, class),
		// so serial and partitioned builds — which both reach here in
		// spec order with the same i — arm identical fault sequences.
		seed := f.Spec.Seed
		if seed == 0 {
			seed = 1
		}
		fc := *f.Spec.Faults
		ep.Faults = &fault.Counters{}
		port.InstallFaults(fc,
			fault.NewStream(seed, i, fault.ClassLink),
			fault.NewStream(seed, i, fault.ClassRetrain),
			ep.Faults)
		eng.SetFaults(fc, ep.Faults)
	}
	f.Endpoints = append(f.Endpoints, ep)
	return nil
}

// Build assembles the fabric. Construction mirrors the original
// single-device assembly exactly for degenerate specs (one socket, one
// directly attached endpoint): same component order, no randomness
// consumed, so results are byte-identical to the pre-topology code.
//
// With SimWorkers > 1 and a spec that partitions into several islands
// (see islandsOf), each island gets an event kernel and a root complex
// of its own, running all of the island's endpoints; per-socket IOMMU
// units bind to the kernel of the island owning their socket. Any
// other spec — including every one-island spec — builds on one kernel.
// Either way, the sockets of islands beyond the first sample their
// jitter from a per-island random stream derived from the spec seed
// (see islandSeed), so serial remains the reference schedule for every
// worker count.
func Build(spec Spec) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	islands := islandsOf(spec)
	groups := islands
	if spec.SimWorkers <= 1 && len(islands) > 1 {
		all := make([]int, len(spec.Endpoints))
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
	}
	return build(spec, islands, groups)
}

// build assembles the fabric with one event kernel and one root
// complex per entry of groups, each running the listed endpoints;
// islands is the spec's partition, which fixes the jitter streams
// whatever the grouping. The shared pieces — the memory system
// (islands touch disjoint NUMA-node state by construction) and the
// host buffer allocator (read-only after Build) — are built once.
// Sockets, switches and endpoints are created in spec order on their
// group's router, and host buffers are allocated in global endpoint
// order, so every grouping lays out the same address map; the
// one-group case is the serial build.
func build(spec Spec, islands, groups [][]int) (*Fabric, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	kernels := make([]*sim.Kernel, len(groups))
	for d := range groups {
		// Every kernel is seeded alike: island 0 draws its jitter from
		// its kernel stream, later islands from derived streams.
		kernels[d] = sim.New(seed)
	}
	epIsland := make([]int, len(spec.Endpoints))
	for d, g := range groups {
		for _, i := range g {
			epIsland[i] = d
		}
	}
	// A socket is shared only within one island (that is what the
	// partitioner guarantees); unused sockets build on group 0's router.
	sockIsland := make([]int, len(spec.Sockets))
	for i := range spec.Endpoints {
		sockIsland[spec.socketOf(i)] = epIsland[i]
	}

	ms, err := mem.NewSystem(spec.Mem)
	if err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	// A global-scope unit couples every endpoint into one island, so it
	// only ever exists on one-group builds.
	var mmu *iommu.IOMMU
	var units []*iommu.IOMMU
	if spec.IOMMU != nil {
		if spec.perSocketIOMMU() {
			units = make([]*iommu.IOMMU, len(spec.Sockets))
			for i := range units {
				units[i] = iommu.New(kernels[sockIsland[i]], *spec.IOMMU)
			}
		} else {
			mmu = iommu.New(kernels[0], *spec.IOMMU)
		}
	}
	host := hostif.New(ms, mmu)
	for _, u := range units {
		host.AttachIOMMU(u)
	}

	routers := make([]*rc.RootComplex, len(groups))
	for d := range groups {
		routers[d] = rc.NewRouter(kernels[d], ms, mmu, host)
		if spec.Interconnect != nil {
			routers[d].SetInterconnect(*spec.Interconnect)
		}
	}
	sockRNG := socketRNGs(spec, seed, islands)
	sockets := make([]*rc.Socket, len(spec.Sockets))
	for i, sc := range spec.Sockets {
		sockets[i], err = routers[sockIsland[i]].AddSocket(rc.SocketConfig{
			Node: sc.Node, PipeLatency: sc.PipeLatency, PipeSlots: sc.PipeSlots,
			Jitter: sc.Jitter, RNG: sockRNG[i], IOMMU: unitAt(units, i),
		})
		if err != nil {
			return nil, fmt.Errorf("topo: socket %d: %w", i, err)
		}
	}
	switches := make([]*rc.Switch, len(spec.Switches))
	for i, sw := range spec.Switches {
		switches[i], err = routers[sockIsland[sw.Socket]].AddSwitch(rc.SwitchConfig{
			Uplink: sw.Uplink, WireDelay: sw.WireDelay,
			ForwardLatency: sw.ForwardLatency, DrainLatency: sw.DrainLatency,
			UpCredits: sw.UpCredits, DownCredits: sw.DownCredits,
		}, sockets[sw.Socket])
		if err != nil {
			return nil, fmt.Errorf("topo: switch %d: %w", i, err)
		}
	}

	f := &Fabric{
		Spec: spec, Kernel: kernels[0], Mem: ms, IOMMU: mmu, IOMMUs: units, Host: host,
		RC: routers[0], Switches: switches,
		Kernels: kernels, Islands: groups, Routers: routers, epIsland: epIsland,
	}
	if len(groups) > 1 {
		for d, g := range groups {
			if len(g) > 1 {
				f.Coupled = append(f.Coupled, CoupledGroup{Island: d, Endpoints: g})
			}
		}
	}
	for i, es := range spec.Endpoints {
		var sw *rc.Switch
		var sock *rc.Socket
		if es.Switch == DirectAttach {
			sock = sockets[es.Socket]
		} else {
			sw = switches[es.Switch]
		}
		d := epIsland[i]
		if err := addEndpoint(f, routers[d], kernels[d], i, es, sock, sw); err != nil {
			return nil, err
		}
	}
	// Mirror every BAR window into the routers of the other groups so
	// peer DMA that would cross domains is detected and rejected at the
	// routing boundary instead of silently treated as host memory.
	for i, ep := range f.Endpoints {
		if ep.Port.BAR() == nil {
			continue
		}
		for d, r := range routers {
			if d == epIsland[i] {
				continue
			}
			if err := r.MirrorBAR(ep.Port); err != nil {
				return nil, fmt.Errorf("topo: endpoint %d: %w", i, err)
			}
		}
	}
	return f, nil
}

// unitAt returns the per-socket unit for socket i, or nil when the
// fabric has no per-socket units.
func unitAt(units []*iommu.IOMMU, i int) *iommu.IOMMU {
	if units == nil {
		return nil
	}
	return units[i]
}

// BARAddr returns the bus address of byte off inside endpoint ep's BAR
// window — the address a peer device DMAs to for a device-to-device
// transfer.
func (f *Fabric) BARAddr(ep, off int) (uint64, error) {
	bar := f.Endpoints[ep].Port.BAR()
	if bar == nil {
		return 0, fmt.Errorf("topo: endpoint %d has no BAR window", ep)
	}
	if off < 0 || off >= bar.Size {
		return 0, fmt.Errorf("topo: offset %d outside endpoint %d's %dB BAR", off, ep, bar.Size)
	}
	return bar.Base + uint64(off), nil
}
