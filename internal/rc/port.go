package rc

import (
	"fmt"

	"pciebench/internal/dll"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/tlp"
	"pciebench/internal/trace"
)

// PortConfig shapes one endpoint attachment point.
type PortConfig struct {
	// Link is the endpoint's negotiated link: to its socket's root port
	// when directly attached, or to its switch's downstream port.
	Link pcie.LinkConfig
	// WireDelay is the propagation plus SerDes delay per direction on
	// this link.
	WireDelay sim.Time
}

// Validate reports configuration errors.
func (c PortConfig) Validate() error {
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.WireDelay < 0 {
		return fmt.Errorf("rc: WireDelay must be >= 0")
	}
	return nil
}

// BARConfig describes a port's device-memory window for peer-to-peer
// DMA: other ports' transfers targeting [Base, Base+Size) route to this
// device instead of host memory.
type BARConfig struct {
	// Base and Size delimit the bus-address window.
	Base uint64
	Size int
	// ReadLatency and WriteLatency are the device-internal access times
	// once a TLP arrives (reads must fetch from device memory before
	// completions flow; writes land in a device buffer).
	ReadLatency  sim.Time
	WriteLatency sim.Time
	// PSPerByte is the device-internal transfer cost in picoseconds per
	// byte (the NFP's CTM staging path, for example).
	PSPerByte int64
}

// Port is one endpoint attachment point in the PCIe fabric: the
// endpoint's own link (both directions), its position in the topology
// (direct on a socket, or below a switch), and the DMA/MMIO timing
// paths the device layer drives.
type Port struct {
	r      *RootComplex
	sock   *Socket
	sw     *Switch // nil when directly attached
	swSlot int     // this port's downstream slot on sw
	index  int
	cfg    PortConfig

	up   *sim.Server // device -> host (requests, write data)
	down *sim.Server // host -> device (completions, MMIO requests)

	// Per-link constants hoisted out of the DMA hot path at build time:
	// header byte counts, the serialization time of the fixed-size read
	// request TLP, and a lazily filled lookup table of BytesTime values
	// for every wire size up to MPS plus headers. The table entries are
	// produced by the same LinkConfig.BytesTime arithmetic, so cached
	// and uncached timings are bit-identical.
	reqHdr  int
	cplHdr  int
	wrHdr   int
	reqTime sim.Time
	btLUT   []sim.Time

	bar *BARConfig // non-nil once SetBAR registered a p2p window

	tracer  trace.Tracer
	scratch []byte // tracer encode buffer, reused across TLPs
	payload []byte // tracer zero-payload buffer, reused across TLPs

	stats *LinkStats

	// flt, when non-nil, injects link faults (BER corruption/replay,
	// retrain/degrade) into sendUp/sendDown; nil keeps the exact
	// fault-free code path.
	flt *linkFault
}

// AddPort attaches an endpoint port: below sw when sw is non-nil (sock
// is then taken from the switch), or directly on sock.
func (r *RootComplex) AddPort(cfg PortConfig, sock *Socket, sw *Switch) (*Port, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sw != nil {
		sock = sw.sock
	}
	if sock == nil {
		return nil, fmt.Errorf("rc: port needs a socket or a switch")
	}
	link := cfg.Link
	p := &Port{
		r:      r,
		sock:   sock,
		sw:     sw,
		index:  len(r.ports),
		cfg:    cfg,
		up:     sim.NewServer(r.k),
		down:   sim.NewServer(r.k),
		reqHdr: pcie.MRdHeaderBytes(link.Addr64, link.ECRC),
		cplHdr: pcie.CplDHeaderBytes(link.ECRC),
		wrHdr:  pcie.MWrHeaderBytes(link.Addr64, link.ECRC),
		stats:  &LinkStats{},
	}
	p.reqTime = sim.Time(link.BytesTime(p.reqHdr))
	// Completions and writes top out at MPS payload plus their header;
	// the slack covers MMIO writes of small registers. Larger one-off
	// wires (rare) fall back to the direct computation.
	p.btLUT = make([]sim.Time, link.MPS+p.wrHdr+64)
	if p.index == 0 {
		// Port 0 shares the RootComplex's embedded stats block, so the
		// original single-device API keeps working on any topology.
		p.stats = &r.LinkStats
	}
	if sw != nil {
		p.swSlot = sw.addDownstream()
	}
	r.ports = append(r.ports, p)
	return p, nil
}

// SetBAR registers the port's device-memory window for peer-to-peer
// DMA routing.
func (p *Port) SetBAR(cfg BARConfig) error {
	if p.bar != nil {
		return fmt.Errorf("rc: port %d already has a BAR window", p.index)
	}
	if cfg.Size <= 0 {
		return fmt.Errorf("rc: BAR size must be positive")
	}
	hi := cfg.Base + uint64(cfg.Size)
	for i := range p.r.ranges {
		rg := &p.r.ranges[i]
		if cfg.Base < rg.hi && rg.lo < hi {
			return fmt.Errorf("rc: BAR [%#x,%#x) overlaps port %d's window", cfg.Base, hi, rg.port.index)
		}
	}
	p.bar = &cfg
	p.r.ranges = append(p.r.ranges, barRange{lo: cfg.Base, hi: hi, port: p})
	return nil
}

// BAR returns the port's registered peer-to-peer window, or nil.
func (p *Port) BAR() *BARConfig { return p.bar }

// MirrorBAR registers another router's port (with a BAR window already
// set) in this router's address ranges. Partitioned fabrics — where
// each simulation domain owns its own router — mirror every foreign
// window so a DMA that targets a peer in another domain is detected at
// the routing boundary (and rejected, see crossDomainErr) instead of
// being silently treated as host memory.
func (r *RootComplex) MirrorBAR(p *Port) error {
	if p.bar == nil {
		return fmt.Errorf("rc: port %d has no BAR window to mirror", p.index)
	}
	if p.r == r {
		return fmt.Errorf("rc: port %d already belongs to this router", p.index)
	}
	hi := p.bar.Base + uint64(p.bar.Size)
	for i := range r.ranges {
		rg := &r.ranges[i]
		if p.bar.Base < rg.hi && rg.lo < hi {
			return fmt.Errorf("rc: mirrored BAR [%#x,%#x) overlaps port %d's window", p.bar.Base, hi, rg.port.index)
		}
	}
	r.ranges = append(r.ranges, barRange{lo: p.bar.Base, hi: hi, port: p})
	return nil
}

// crossDomainErr reports a peer-to-peer DMA that would cross simulation
// domains. The partitioned parallel fabric splits endpoints into
// independent event-kernel islands exactly because their traffic never
// meets; a transfer into another island's BAR would break that
// invariant, so it must run on a serial (simworkers=1) build instead.
func crossDomainErr(p, tp *Port) error {
	return fmt.Errorf("rc: peer DMA from port %d to port %d crosses simulation domains; peer-to-peer transfers need a serial build (simworkers=1)", p.index, tp.index)
}

// Index returns the port's position in the router's port list.
func (p *Port) Index() int { return p.index }

// Socket returns the socket the port's traffic ingresses at.
func (p *Port) Socket() *Socket { return p.sock }

// Switch returns the switch the port sits below, or nil.
func (p *Port) Switch() *Switch { return p.sw }

// Link returns the port's link configuration.
func (p *Port) Link() pcie.LinkConfig { return p.cfg.Link }

// Stats returns the port's link counters.
func (p *Port) Stats() *LinkStats { return p.stats }

// SetTracer installs a TLP tracer on this port's link.
func (p *Port) SetTracer(t trace.Tracer) { p.tracer = t }

// UpUtilization returns the device->host link utilization so far.
func (p *Port) UpUtilization() float64 { return p.up.Utilization() }

// bytesTime returns the serialization time of n wire bytes on the
// port's link, memoizing the per-size result. Entry 0 doubles as the
// "unfilled" sentinel: any positive byte count serializes in at least
// one picosecond on every supported link, so a cached zero never
// collides with a real value.
func (p *Port) bytesTime(n int) sim.Time {
	if n < len(p.btLUT) {
		if v := p.btLUT[n]; v != 0 {
			return v
		}
		v := sim.Time(p.cfg.Link.BytesTime(n))
		p.btLUT[n] = v
		return v
	}
	return sim.Time(p.cfg.Link.BytesTime(n))
}

// zeroPayload returns an all-zero n-byte payload from the port's
// reusable buffer. The simulator tracks timing, not data, so traced TLPs
// always carry zero payloads; the buffer is never written after
// allocation, which keeps pooled and freshly allocated records
// byte-identical (asserted by TestTracedTLPsByteIdentical).
func (p *Port) zeroPayload(n int) []byte {
	if cap(p.payload) < n {
		p.payload = make([]byte, n)
	}
	return p.payload[:n]
}

// traceMemReq emits a traced memory request TLP.
func (p *Port) traceMemReq(at sim.Time, write bool, addr uint64, n int) {
	if p.tracer == nil {
		return
	}
	lenDW, fbe, lbe, err := tlp.BERange(addr, n)
	if err != nil {
		return
	}
	var perr error
	if write {
		w := tlp.MemWrite{Addr: addr &^ 0x3, FirstBE: fbe, LastBE: lbe, Addr64: true, Data: p.zeroPayload(n)}
		p.scratch, perr = w.AppendTo(p.scratch[:0])
	} else {
		rd := tlp.MemRead{Addr: addr &^ 0x3, FirstBE: fbe, LastBE: lbe, LengthDW: lenDW, Addr64: true}
		p.scratch, perr = rd.AppendTo(p.scratch[:0])
	}
	if perr == nil {
		p.tracer.Trace(at, trace.DeviceToHost, p.scratch)
	}
}

// traceCpl emits a traced completion TLP.
func (p *Port) traceCpl(at sim.Time, addr uint64, n, remaining int) {
	if p.tracer == nil {
		return
	}
	c := tlp.Completion{
		Status: tlp.CplSuccess, ByteCount: remaining,
		LowerAddr: uint8(addr & 0x7F), Data: p.zeroPayload(n),
	}
	var perr error
	p.scratch, perr = c.AppendTo(p.scratch[:0])
	if perr == nil {
		p.tracer.Trace(at, trace.HostToDevice, p.scratch)
	}
}

// jitter draws the socket's per-TLP processing perturbation.
func (p *Port) jitter() sim.Time {
	if p.sock.jitter == nil {
		return 0
	}
	return p.sock.jitter.Sample(p.sock.rng)
}

// sendUp serializes one device->host TLP of wire bytes (taking dur on
// the endpoint link) and returns the injection-complete time on the
// endpoint link plus the TLP's arrival time at the socket's root port.
// A directly attached port's arrival is one serialization and one wire
// delay; below a switch, the TLP additionally crosses the arbitrated
// shared uplink with cut-through forwarding and credit accounting.
func (p *Port) sendUp(at, dur sim.Time, wire, payload int, pool dll.CreditType) (txDone, arrive sim.Time) {
	if p.flt != nil {
		at, dur = p.flt.adjust(p, p.up, at, wire, dur)
	}
	txDone = p.up.ScheduleAt(at, dur)
	if p.sw == nil {
		return txDone, txDone + p.cfg.WireDelay
	}
	upDone := p.sw.forwardUp(p.swSlot, txDone+p.cfg.WireDelay+p.sw.cfg.ForwardLatency, dur, wire, payload, pool)
	return txDone, upDone + p.sw.cfg.WireDelay
}

// sendDown serializes one host->device TLP of wire bytes toward the
// port's endpoint, starting no earlier than at, and returns its arrival
// at the device. Below a switch the TLP first crosses the shared
// uplink's down direction (arbitrated, credited), then cuts through to
// the endpoint link.
func (p *Port) sendDown(at sim.Time, wire, payload int, pool dll.CreditType) sim.Time {
	dur := p.bytesTime(wire)
	if p.flt != nil {
		at, dur = p.flt.adjust(p, p.down, at, wire, dur)
	}
	if p.sw == nil {
		done := p.down.ScheduleAt(at, dur)
		return done + p.cfg.WireDelay
	}
	upDone := p.sw.forwardDown(p.swSlot, at, wire, payload, pool)
	overlap := dur
	if ud := p.sw.bytesTime(wire); ud < overlap {
		overlap = ud
	}
	done := p.down.ScheduleAt(upDone+p.sw.cfg.WireDelay+p.sw.cfg.ForwardLatency-overlap, dur)
	arrive := done + p.cfg.WireDelay
	p.sw.noteDrain(dirDown, pool, arrive+p.sw.cfg.DrainLatency, payload)
	return arrive
}

// reqChunk returns the size of the request TLP starting at bus address
// pos with rem bytes left: at most bound bytes, never crossing a
// bound-aligned address (the MRRS rule for reads, MPS for writes; the
// arithmetic of tlp.SplitRead/SplitWrite, pinned to them by tests).
func reqChunk(pos uint64, rem int, bound uint64) int {
	if boundary := (pos/bound + 1) * bound; pos+uint64(rem) > boundary {
		return int(boundary - pos)
	}
	return rem
}

// cplChunk returns the payload of the completion starting at pos with
// rem bytes left: a short chunk up to the next RCB boundary when pos is
// unaligned, else up to mps bytes (the arithmetic of
// tlp.SplitCompletion, pinned to it by tests).
func cplChunk(pos uint64, rem, mps int, rcb uint64) int {
	c := mps
	if mis := int(pos % rcb); mis != 0 {
		c = int(rcb) - mis
	}
	if c > rem {
		c = rem
	}
	return c
}

// ReadResult is the timeline of a DMA read.
type ReadResult struct {
	// FirstData is when the first completion arrives at the device.
	FirstData sim.Time
	// Complete is when the last completion arrives at the device.
	Complete sim.Time
}

// DMARead runs a device-initiated read of sz bytes at DMA address dma,
// with the first request TLP entering the device's link interface at
// time at. It returns the completion timeline.
func (p *Port) DMARead(at sim.Time, dma uint64, sz int) (ReadResult, error) {
	return p.DMAReadOrdered(at, dma, sz, 0)
}

// DMAReadOrdered is DMARead with an ordering barrier: the memory access
// will not start before orderAfter. PCIe ordering makes a read push
// ahead any earlier posted write to the same address; the benchmark
// layer passes the write's memory-completion time here to implement
// LAT_WRRD.
//
// The target resolves by address: host memory by default, or a peer
// port's BAR window for a device-to-device read.
func (p *Port) DMAReadOrdered(at sim.Time, dma uint64, sz int, orderAfter sim.Time) (ReadResult, error) {
	if sz <= 0 {
		return ReadResult{}, fmt.Errorf("rc: read size %d", sz)
	}
	if tp := p.r.peerOf(dma); tp != nil && tp != p {
		return p.peerRead(at, tp, dma, sz, orderAfter)
	}
	cfg := &p.cfg
	mrrs := uint64(cfg.Link.MRRS)
	mps := cfg.Link.MPS
	rcb := uint64(cfg.Link.RCB)

	res := ReadResult{}
	p.stats.ReadOps++
	// MRRS-bounded request chunks.
	pos := dma
	remaining := sz
	for remaining > 0 {
		n := reqChunk(pos, remaining, mrrs)
		// Request serializes on the device->host direction.
		txDone, arrive := p.sendUp(at, p.reqTime, p.reqHdr, 0, dll.NonPosted)
		p.stats.UpTLPs++
		p.stats.UpBytes += uint64(p.reqHdr)
		p.traceMemReq(txDone, false, pos, n)
		// Root-complex processing.
		procDone := p.sock.pipe.ScheduleAt(arrive, p.sock.pipeLatency+p.jitter())
		// Address translation.
		pa, ready, terr := p.r.translate(procDone, p.sock, pos)
		if terr != nil {
			return ReadResult{}, terr
		}
		if ready < orderAfter {
			ready = orderAfter
		}
		// Memory access relative to this port's socket: worst-line
		// latency (line fetches in parallel), plus the inter-socket
		// interconnect each way when the home is remote.
		home := p.r.home(pa)
		ready = p.r.crossSock(ready, p.sock, home, 0)
		memLat := p.r.ms.AccessFrom(false, p.sock.node, home, pa, n)
		dataAt := p.r.crossSock(ready+memLat, p.sock, home, n)
		// Completions serialize on the host->device direction: a short
		// first chunk up to the RCB boundary, then MPS-sized chunks.
		cpos := pa
		crem := n
		for crem > 0 {
			c := cplChunk(cpos, crem, mps, rcb)
			wire := p.cplHdr + c
			arriveDev := p.sendDown(dataAt, wire, c, dll.Completion)
			p.stats.DownTLPs++
			p.stats.DownBytes += uint64(wire)
			p.traceCpl(arriveDev-p.cfg.WireDelay, cpos, c, crem)
			if res.FirstData == 0 || arriveDev < res.FirstData {
				res.FirstData = arriveDev
			}
			if arriveDev > res.Complete {
				res.Complete = arriveDev
			}
			cpos += uint64(c)
			crem -= c
		}
		pos += uint64(n)
		remaining -= n
	}
	return res, nil
}

// WriteResult is the timeline of a posted DMA write.
type WriteResult struct {
	// LinkDone is when the device finishes injecting the write TLPs —
	// the point at which the device-side DMA engine considers the
	// (posted) write complete.
	LinkDone sim.Time
	// MemDone is when the data is globally visible in the memory
	// system (or, for a peer-to-peer write, in the peer's device
	// memory); later reads to the same address order after this.
	MemDone sim.Time
}

// DMAWrite runs a device-initiated posted write of sz bytes at DMA
// address dma starting at time at. The target resolves by address: host
// memory by default, or a peer port's BAR window for a device-to-device
// write.
func (p *Port) DMAWrite(at sim.Time, dma uint64, sz int) (WriteResult, error) {
	if sz <= 0 {
		return WriteResult{}, fmt.Errorf("rc: write size %d", sz)
	}
	if tp := p.r.peerOf(dma); tp != nil && tp != p {
		return p.peerWrite(at, tp, dma, sz)
	}
	cfg := &p.cfg
	mps := uint64(cfg.Link.MPS)

	res := WriteResult{}
	p.stats.WriteOps++
	// MPS-bounded write chunks.
	pos := dma
	remaining := sz
	for remaining > 0 {
		n := reqChunk(pos, remaining, mps)
		wire := p.wrHdr + n
		txDone, arrive := p.sendUp(at, p.bytesTime(wire), wire, n, dll.Posted)
		p.stats.UpTLPs++
		p.stats.UpBytes += uint64(wire)
		p.traceMemReq(txDone, true, pos, n)
		if txDone > res.LinkDone {
			res.LinkDone = txDone
		}
		procDone := p.sock.pipe.ScheduleAt(arrive, p.sock.pipeLatency+p.jitter())
		pa, ready, terr := p.r.translate(procDone, p.sock, pos)
		if terr != nil {
			return WriteResult{}, terr
		}
		home := p.r.home(pa)
		ready = p.r.crossSock(ready, p.sock, home, n)
		memLat := p.r.ms.AccessFrom(true, p.sock.node, home, pa, n)
		if done := ready + memLat; done > res.MemDone {
			res.MemDone = done
		}
		pos += uint64(n)
		remaining -= n
	}
	return res, nil
}

// MMIOWrite models the host CPU posting a write of sz bytes to the
// port's device register (doorbell): it serializes on the host->device
// direction and returns the arrival time at the device. The CPU does
// not wait.
func (p *Port) MMIOWrite(at sim.Time, sz int) sim.Time {
	wire := p.wrHdr + sz
	arrive := p.sendDown(at, wire, sz, dll.Posted)
	p.stats.DownTLPs++
	p.stats.DownBytes += uint64(wire)
	return arrive
}

// MMIORead models the host CPU reading a device register: a non-posted
// read crosses to the device, which answers after devLatency; the
// completion crosses back. Returns when the CPU has the value. These
// uncached reads are the expensive driver operations modern drivers
// avoid (paper §2: DPDK polls host memory instead).
//
// The returning completion's serialization is charged as latency but
// does not reserve the device→host link server: it completes far in the
// future relative to submission, and the virtual-clock servers are FIFO
// in call order, so reserving ahead of time would incorrectly stall
// DMA traffic submitted afterwards. The few bytes involved make its
// bandwidth contribution negligible (it is still counted in UpBytes).
// Below a switch, the return additionally pays the slower of the two
// hops' serialization plus the forwarding latency, unreserved for the
// same reason.
func (p *Port) MMIORead(at sim.Time, sz int, devLatency sim.Time) sim.Time {
	reqArrive := p.sendDown(at, p.reqHdr, 0, dll.NonPosted)
	p.stats.DownTLPs++
	p.stats.DownBytes += uint64(p.reqHdr)
	cplWire := p.cplHdr + sz
	ser := p.bytesTime(cplWire)
	extra := p.cfg.WireDelay
	if p.sw != nil {
		if us := p.sw.bytesTime(cplWire); us > ser {
			ser = us
		}
		extra += p.sw.cfg.ForwardLatency + p.sw.cfg.WireDelay
	}
	cplDone := reqArrive + devLatency + ser
	p.stats.UpTLPs++
	p.stats.UpBytes += uint64(cplWire)
	return cplDone + extra
}

// routePeer carries one TLP (already injected on p's link, finishing
// serialization at txDone) to peer port tp and returns its arrival at
// tp's device. Peers below the same switch cut through it directly;
// any other pair routes up through p's path, through p's socket
// pipeline, and down tp's path — the no-ACS root-complex forwarding
// path real multi-port hosts take.
func (p *Port) routePeer(txDone sim.Time, tp *Port, wire, payload int, pool dll.CreditType) sim.Time {
	tp.stats.DownTLPs++
	tp.stats.DownBytes += uint64(wire)
	if p.sw != nil && tp.sw == p.sw {
		sw := p.sw
		dur := tp.bytesTime(wire)
		overlap := dur
		if pd := p.bytesTime(wire); pd < overlap {
			overlap = pd
		}
		done := tp.down.ScheduleAt(txDone+p.cfg.WireDelay+sw.cfg.ForwardLatency-overlap, dur)
		ps := &sw.pstats[p.swSlot]
		ps.P2PTLPs++
		ps.P2PBytes += uint64(wire)
		return done + tp.cfg.WireDelay
	}
	var arrive sim.Time
	if p.sw == nil {
		arrive = txDone + p.cfg.WireDelay
	} else {
		upDone := p.sw.forwardUp(p.swSlot, txDone+p.cfg.WireDelay+p.sw.cfg.ForwardLatency, p.bytesTime(wire), wire, payload, pool)
		arrive = upDone + p.sw.cfg.WireDelay
	}
	procDone := p.sock.pipe.ScheduleAt(arrive, p.sock.pipeLatency+p.jitter())
	// A peer on another socket is reached across the inter-socket
	// interconnect, exactly like remote host memory.
	procDone = p.r.crossSock(procDone, p.sock, tp.sock.node, payload)
	return tp.sendDown(procDone, wire, payload, pool)
}

// peerWrite is a posted device-to-device write into tp's BAR window.
// Chunk boundaries derive from the actual bus address, exactly like
// the host-memory path (and tlp.SplitWrite).
func (p *Port) peerWrite(at sim.Time, tp *Port, dma uint64, sz int) (WriteResult, error) {
	if tp.r != p.r {
		return WriteResult{}, crossDomainErr(p, tp)
	}
	bar := tp.bar
	mps := uint64(p.cfg.Link.MPS)
	res := WriteResult{}
	p.stats.WriteOps++
	pos := dma
	remaining := sz
	for remaining > 0 {
		n := reqChunk(pos, remaining, mps)
		wire := p.wrHdr + n
		txDone := p.up.ScheduleAt(at, p.bytesTime(wire))
		p.stats.UpTLPs++
		p.stats.UpBytes += uint64(wire)
		if txDone > res.LinkDone {
			res.LinkDone = txDone
		}
		arrive := p.routePeer(txDone, tp, wire, n, dll.Posted)
		devDone := arrive + bar.WriteLatency + sim.Time(bar.PSPerByte*int64(n))
		if devDone > res.MemDone {
			res.MemDone = devDone
		}
		pos += uint64(n)
		remaining -= n
	}
	return res, nil
}

// peerRead is a device-to-device read from tp's BAR window: requests
// route to the peer, the peer fetches from its device memory, and its
// completions route back. Chunk boundaries derive from the actual bus
// address, exactly like the host-memory path (and tlp.SplitRead /
// tlp.SplitCompletion).
func (p *Port) peerRead(at sim.Time, tp *Port, dma uint64, sz int, orderAfter sim.Time) (ReadResult, error) {
	if tp.r != p.r {
		return ReadResult{}, crossDomainErr(p, tp)
	}
	bar := tp.bar
	mrrs := uint64(p.cfg.Link.MRRS)
	mps := p.cfg.Link.MPS
	rcb := uint64(p.cfg.Link.RCB)
	res := ReadResult{}
	p.stats.ReadOps++
	pos := dma
	remaining := sz
	for remaining > 0 {
		n := reqChunk(pos, remaining, mrrs)
		txDone := p.up.ScheduleAt(at, p.reqTime)
		p.stats.UpTLPs++
		p.stats.UpBytes += uint64(p.reqHdr)
		reqArrive := p.routePeer(txDone, tp, p.reqHdr, 0, dll.NonPosted)
		ready := reqArrive + bar.ReadLatency + sim.Time(bar.PSPerByte*int64(n))
		if ready < orderAfter {
			ready = orderAfter
		}
		// The peer's completions chunk at the requester's MPS/RCB and
		// route back through the fabric.
		cpos := pos
		crem := n
		for crem > 0 {
			c := cplChunk(cpos, crem, mps, rcb)
			wire := tp.cplHdr + c
			cplTx := tp.up.ScheduleAt(ready, tp.bytesTime(wire))
			tp.stats.UpTLPs++
			tp.stats.UpBytes += uint64(wire)
			arriveDev := tp.routePeer(cplTx, p, wire, c, dll.Completion)
			if res.FirstData == 0 || arriveDev < res.FirstData {
				res.FirstData = arriveDev
			}
			if arriveDev > res.Complete {
				res.Complete = arriveDev
			}
			cpos += uint64(c)
			crem -= c
		}
		pos += uint64(n)
		remaining -= n
	}
	return res, nil
}
