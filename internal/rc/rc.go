// Package rc models the PCIe host interface as a multi-port router: the
// root complex connecting the processor/memory subsystem to a PCIe
// fabric of sockets, switches and endpoint ports (paper footnote 1,
// generalized beyond the paper's single-adapter setups).
//
// The root complex is where the paper's host-side effects meet: inbound
// TLPs are serialized on the device→host link direction, processed by a
// pipeline with bounded parallelism (which caps the transaction rate),
// translated by the IOMMU when one is present, serviced by the memory
// system (LLC/DDIO/DRAM/NUMA), and — for reads — answered with
// completions split at the Read Completion Boundary and bounded by MPS,
// serialized on the host→device direction.
//
// # Topology
//
// A RootComplex owns one or more Sockets (each a root-complex pipeline
// in front of its NUMA node's memory controller), Switches (a shared,
// arbitrated uplink with DLL flow-control credit pools), and Ports
// (endpoint attachment points, each with its own link). A Port attaches
// either directly to a socket's root port or below a switch; DMA issued
// on a Port routes by address — host memory by default, or a peer
// port's BAR window for device-to-device transfers. NewRouter builds an
// empty router; New builds the degenerate one-socket one-port form used
// by the paper's Table-1 systems and keeps the original single-device
// API on the RootComplex itself (delegating to port 0), so existing
// callers and results are unchanged.
//
// All timing uses the virtual-clock resources from internal/sim, so a
// transaction's full timeline is computed in one pass; the event kernel
// only sequences the *control* decisions (a DMA engine issuing its next
// descriptor) in the device layer above.
//
// # Partitioned fabrics
//
// The partitioned parallel topology build (internal/topo) makes one
// RootComplex per independent endpoint island, each bound to its own
// event kernel; the islands share only the read-only address layout
// and per-node memory state no two islands both touch. The handoff
// points between domains are therefore explicit: every foreign BAR
// window is mirrored into each router (MirrorBAR) so peer-to-peer DMA
// that would cross domains is detected at the routing boundary and
// rejected rather than silently mistimed.
package rc

import (
	"fmt"
	"math/rand"

	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/trace"
)

// Jitter injects per-TLP processing-time variation, modeling effects the
// paper observed but could not attribute (the Xeon E3's heavy latency
// tail, suspected power management). A nil Jitter means deterministic
// processing.
type Jitter interface {
	Sample(rng *rand.Rand) sim.Time
}

// AddressMap resolves a physical address to its home NUMA node. A nil
// map homes everything on node 0.
type AddressMap interface {
	HomeOf(pa uint64) int
}

// Config shapes the degenerate (one-socket, one-port) root complex
// built by New: the link of port 0 plus the calibration of socket 0.
type Config struct {
	// Link is the negotiated PCIe link.
	Link pcie.LinkConfig
	// PipeLatency is the per-TLP processing time inside the root
	// complex (ingress, ordering checks, coherence lookup issue).
	PipeLatency sim.Time
	// PipeSlots bounds concurrently processed TLPs; the transaction
	// rate cap is PipeSlots/PipeLatency (the paper's §4.2 notes the
	// root complex must handle a transaction every 5 ns at 64 B line
	// rate).
	PipeSlots int
	// WireDelay is the propagation plus SerDes delay per direction.
	WireDelay sim.Time
	// Jitter optionally perturbs per-TLP processing (nil = none).
	Jitter Jitter
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.PipeLatency <= 0 {
		return fmt.Errorf("rc: PipeLatency must be positive")
	}
	if c.PipeSlots < 1 {
		return fmt.Errorf("rc: PipeSlots must be >= 1")
	}
	if c.WireDelay < 0 {
		return fmt.Errorf("rc: WireDelay must be >= 0")
	}
	return nil
}

// LinkStats counts the TLPs and wire bytes crossing one endpoint link,
// per direction, plus the DMA operations that generated them.
type LinkStats struct {
	UpTLPs    uint64
	UpBytes   uint64
	DownTLPs  uint64
	DownBytes uint64
	ReadOps   uint64
	WriteOps  uint64
}

// SocketConfig calibrates one socket's root-complex pipeline.
type SocketConfig struct {
	// Node is the NUMA node whose memory controller this socket hosts.
	Node int
	// PipeLatency and PipeSlots shape the socket's TLP pipeline as in
	// Config.
	PipeLatency sim.Time
	PipeSlots   int
	// Jitter optionally perturbs per-TLP processing (nil = none).
	Jitter Jitter
	// RNG is the random stream Jitter samples draw from. Nil selects
	// the kernel's stream (the historical behavior); partitioned
	// fabrics install a dedicated per-island stream here so islands
	// consume no shared randomness.
	RNG *rand.Rand
	// IOMMU is this socket's translation unit, modeling VT-d's
	// per-socket DRHD units. Nil falls back to the router-wide unit
	// (or to no translation when that is nil too), so the historical
	// single-unit and IOMMU-off configurations are unchanged.
	IOMMU *iommu.IOMMU
}

// Socket is one CPU socket's root-complex pipeline: ports and switch
// uplinks attach to it, and DMA it ingests targets its node's memory
// controller locally or crosses the inter-socket interconnect.
type Socket struct {
	node        int
	pipe        *sim.MultiServer
	pipeLatency sim.Time
	jitter      Jitter
	rng         *rand.Rand
	mmu         *iommu.IOMMU // per-socket translation unit (nil = router-wide)
}

// Node returns the NUMA node this socket's memory controller owns.
func (s *Socket) Node() int { return s.node }

// IOMMU returns this socket's translation unit, or nil when the socket
// translates through the router-wide unit (or not at all).
func (s *Socket) IOMMU() *iommu.IOMMU { return s.mmu }

// InterconnectConfig models the socket-to-socket interconnect (QPI/UPI)
// a DMA crosses when its ingress socket is not the target's home.
// mem.Config.RemoteLatency already charges the per-access remote
// penalty the paper measured (§6.4); this adds explicit bandwidth
// contention on the shared bus for multi-socket topologies.
type InterconnectConfig struct {
	// Latency is the extra one-way latency per crossing, on top of the
	// memory system's RemoteLatency calibration (often 0).
	Latency sim.Time
	// PSPerByte is the serialization cost of the payload on the bus in
	// picoseconds per byte (0 = latency only).
	PSPerByte int64
	// Shared serializes crossings on one bus resource, so concurrent
	// remote DMA streams queue behind each other.
	Shared bool
}

// barRange maps a bus-address window to the peer port owning it.
type barRange struct {
	lo, hi uint64
	port   *Port
}

// RootComplex is the multi-port router: sockets, switches, endpoint
// ports and the address map that routes DMA between them. The zero
// value is not usable; build one with New or NewRouter.
//
// The embedded LinkStats and the DMA/MMIO methods are the original
// single-device API, aliased to port 0 so the degenerate topology is a
// strict drop-in for the previous implementation.
type RootComplex struct {
	k    *sim.Kernel
	ms   *mem.System
	mmu  *iommu.IOMMU // nil when disabled
	amap AddressMap

	sockets  []*Socket
	switches []*Switch
	ports    []*Port
	ranges   []barRange

	xcfg *InterconnectConfig
	xbus *sim.Server // non-nil when xcfg.Shared

	// Statistics of port 0 (the degenerate single-device form).
	LinkStats
}

// NewRouter builds an empty multi-port router: add sockets, switches
// and ports with the builder methods. ms is required; mmu and amap may
// be nil.
func NewRouter(k *sim.Kernel, ms *mem.System, mmu *iommu.IOMMU, amap AddressMap) *RootComplex {
	return &RootComplex{k: k, ms: ms, mmu: mmu, amap: amap}
}

// New builds the degenerate one-socket, one-port root complex the
// paper's systems use. ms is required; mmu and amap may be nil.
func New(k *sim.Kernel, cfg Config, ms *mem.System, mmu *iommu.IOMMU, amap AddressMap) (*RootComplex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := NewRouter(k, ms, mmu, amap)
	sock, err := r.AddSocket(SocketConfig{
		Node: 0, PipeLatency: cfg.PipeLatency, PipeSlots: cfg.PipeSlots, Jitter: cfg.Jitter,
	})
	if err != nil {
		return nil, err
	}
	if _, err := r.AddPort(PortConfig{Link: cfg.Link, WireDelay: cfg.WireDelay}, sock, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// AddSocket adds a socket (root-complex pipeline) to the router,
// enforcing the same calibration rules Config.Validate applied to the
// degenerate constructor.
func (r *RootComplex) AddSocket(cfg SocketConfig) (*Socket, error) {
	if cfg.Node < 0 {
		return nil, fmt.Errorf("rc: socket node %d", cfg.Node)
	}
	if cfg.PipeLatency <= 0 {
		return nil, fmt.Errorf("rc: PipeLatency must be positive")
	}
	if cfg.PipeSlots < 1 {
		return nil, fmt.Errorf("rc: PipeSlots must be >= 1")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = r.k.Rand()
	}
	s := &Socket{
		node:        cfg.Node,
		pipe:        sim.NewMultiServer(r.k, cfg.PipeSlots),
		pipeLatency: cfg.PipeLatency,
		jitter:      cfg.Jitter,
		rng:         rng,
		mmu:         cfg.IOMMU,
	}
	r.sockets = append(r.sockets, s)
	return s, nil
}

// SetInterconnect configures the inter-socket interconnect. Without it,
// cross-socket DMA pays only the memory system's RemoteLatency.
func (r *RootComplex) SetInterconnect(cfg InterconnectConfig) {
	r.xcfg = &cfg
	if cfg.Shared {
		r.xbus = sim.NewServer(r.k)
	} else {
		r.xbus = nil
	}
}

// crossSock charges the interconnect for n payload bytes crossing
// between sock and the home node at time t, returning the time the
// transfer lands on the far side. Same-socket traffic and routers
// without an interconnect pass through unchanged.
func (r *RootComplex) crossSock(t sim.Time, sock *Socket, home, n int) sim.Time {
	if r.xcfg == nil || home == sock.node {
		return t
	}
	d := r.xcfg.Latency + sim.Time(r.xcfg.PSPerByte*int64(n))
	if r.xbus != nil {
		return r.xbus.ScheduleAt(t, d)
	}
	return t + d
}

// Sockets returns the router's sockets.
func (r *RootComplex) Sockets() []*Socket { return r.sockets }

// Switches returns the router's switches.
func (r *RootComplex) Switches() []*Switch { return r.switches }

// Ports returns the router's endpoint ports.
func (r *RootComplex) Ports() []*Port { return r.ports }

// Port returns endpoint port i.
func (r *RootComplex) Port(i int) *Port { return r.ports[i] }

// peerOf returns the port owning the BAR window containing addr, or nil
// when addr targets host memory. The common case (no BAR windows
// registered) is a single length check.
func (r *RootComplex) peerOf(addr uint64) *Port {
	for i := range r.ranges {
		if rg := &r.ranges[i]; addr >= rg.lo && addr < rg.hi {
			return rg.port
		}
	}
	return nil
}

// SetTracer installs a TLP tracer on port 0; every request, write and
// completion crossing that link is then emitted as a wire-exact record
// at its serialization-complete time. A nil tracer (the default) costs
// nothing.
func (r *RootComplex) SetTracer(t trace.Tracer) { r.ports[0].SetTracer(t) }

// home resolves a physical address to its NUMA node.
func (r *RootComplex) home(pa uint64) int {
	if r.amap == nil {
		return 0
	}
	return r.amap.HomeOf(pa)
}

// translate resolves a DMA address ingested by sock at the given time,
// returning the physical address and the time the request may proceed.
// The socket's own translation unit (VT-d per-socket DRHD scope) wins;
// otherwise the router-wide unit applies; with neither, addresses pass
// through untranslated.
func (r *RootComplex) translate(at sim.Time, sock *Socket, dma uint64) (uint64, sim.Time, error) {
	mmu := r.mmu
	if sock != nil && sock.mmu != nil {
		mmu = sock.mmu
	}
	if mmu == nil {
		return dma, at, nil
	}
	res, err := mmu.Translate(at, dma)
	if err != nil {
		return 0, 0, err
	}
	return res.PA, res.Ready, nil
}

// DMARead runs a device-initiated read on port 0 (see Port.DMARead).
func (r *RootComplex) DMARead(at sim.Time, dma uint64, sz int) (ReadResult, error) {
	return r.ports[0].DMAReadOrdered(at, dma, sz, 0)
}

// DMAReadOrdered runs an ordered device-initiated read on port 0 (see
// Port.DMAReadOrdered).
func (r *RootComplex) DMAReadOrdered(at sim.Time, dma uint64, sz int, orderAfter sim.Time) (ReadResult, error) {
	return r.ports[0].DMAReadOrdered(at, dma, sz, orderAfter)
}

// DMAWrite runs a device-initiated posted write on port 0 (see
// Port.DMAWrite).
func (r *RootComplex) DMAWrite(at sim.Time, dma uint64, sz int) (WriteResult, error) {
	return r.ports[0].DMAWrite(at, dma, sz)
}

// MMIOWrite models the host CPU posting a doorbell write to port 0's
// device (see Port.MMIOWrite).
func (r *RootComplex) MMIOWrite(at sim.Time, sz int) sim.Time {
	return r.ports[0].MMIOWrite(at, sz)
}

// MMIORead models the host CPU reading a register of port 0's device
// (see Port.MMIORead).
func (r *RootComplex) MMIORead(at sim.Time, sz int, devLatency sim.Time) sim.Time {
	return r.ports[0].MMIORead(at, sz, devLatency)
}
