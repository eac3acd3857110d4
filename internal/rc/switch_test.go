package rc

import (
	"math/rand"
	"testing"

	"pciebench/internal/dll"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
)

// transparentSwitch is a switch that must not change timing: zero
// forwarding latency, zero wire delay, the same link as the endpoint,
// infinite credits. Cut-through forwarding then makes the extra hop
// invisible when uncontended.
func transparentSwitch() SwitchConfig {
	return SwitchConfig{Uplink: pcie.DefaultGen3x8()}
}

// newSwitchedRC builds a router with n ports below one switch, using
// the same calibration as newRC's degenerate router.
func newSwitchedRC(t *testing.T, n int, swCfg SwitchConfig) (*sim.Kernel, *RootComplex) {
	t.Helper()
	k := sim.New(7)
	ms := testMemSystem(t)
	r := NewRouter(k, ms, nil, nil)
	cfg := testConfig()
	sock, err := r.AddSocket(SocketConfig{Node: 0, PipeLatency: cfg.PipeLatency, PipeSlots: cfg.PipeSlots})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := r.AddSwitch(swCfg, sock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.AddPort(PortConfig{Link: cfg.Link, WireDelay: cfg.WireDelay}, nil, sw); err != nil {
			t.Fatal(err)
		}
	}
	return k, r
}

// opMix drives a deterministic mixed sequence of operations against a
// port and returns every timestamp the port handed back.
func opMix(t *testing.T, k *sim.Kernel, p *Port) []sim.Time {
	t.Helper()
	var out []sim.Time
	rng := rand.New(rand.NewSource(42))
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		sz := 1 + rng.Intn(4096)
		addr := uint64(rng.Intn(1 << 20))
		switch i % 4 {
		case 0:
			res, err := p.DMARead(at, addr, sz)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.FirstData, res.Complete)
			at = res.Complete
		case 1:
			res, err := p.DMAWrite(at, addr, sz)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.LinkDone, res.MemDone)
			at = res.MemDone
		case 2:
			done := p.MMIOWrite(at, 8)
			out = append(out, done)
			at = done
		default:
			done := p.MMIORead(at, 4, 40*sim.Nanosecond)
			out = append(out, done)
			at = done
		}
		k.RunUntil(at)
	}
	return out
}

// TestTransparentSwitchByteIdentical pins the cut-through arithmetic:
// one endpoint below a zero-latency, same-speed, uncredited switch
// produces exactly the timestamps of a directly attached endpoint, for
// a long mixed read/write/MMIO sequence.
func TestTransparentSwitchByteIdentical(t *testing.T) {
	kd, direct, _ := newRC(t)
	ks, switched := newSwitchedRC(t, 1, transparentSwitch())

	want := opMix(t, kd, direct.Port(0))
	got := opMix(t, ks, switched.Port(0))
	if len(want) != len(got) {
		t.Fatalf("result counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("timestamp %d differs: direct %v vs switched %v", i, want[i], got[i])
		}
	}
}

// TestSwitchAddsForwardingLatency checks the opposite: a real switch
// (non-zero forwarding latency) strictly delays an uncontended read.
func TestSwitchAddsForwardingLatency(t *testing.T) {
	kd, direct, _ := newRC(t)
	cfg := transparentSwitch()
	cfg.ForwardLatency = 150 * sim.Nanosecond
	ks, switched := newSwitchedRC(t, 1, cfg)
	_ = kd
	_ = ks

	d, err := direct.Port(0).DMARead(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := switched.Port(0).DMARead(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The request crosses the switch once and the completion once.
	want := d.Complete + 2*cfg.ForwardLatency
	if s.Complete != want {
		t.Errorf("switched read completes at %v, want %v (direct %v + 2x forward)", s.Complete, want, d.Complete)
	}
}

// closedLoopWriter saturates one port with back-to-back 256B writes
// through the event kernel: each completion submits the next write, so
// ports interleave in event order like real closed-loop DMA engines.
type closedLoopWriter struct {
	p    *Port
	left int
	t    *testing.T
}

func (w *closedLoopWriter) Handle(k *sim.Kernel, _, _ int64) {
	if w.left == 0 {
		return
	}
	w.left--
	res, err := w.p.DMAWrite(k.Now(), 0, 256)
	if err != nil {
		w.t.Error(err)
		return
	}
	k.AtEvent(res.LinkDone, w, 0, 0)
}

// TestSwitchRoundRobinFairnessUnderSaturation pins the arbitration
// property: N identical closed-loop endpoints saturating one shared
// uplink each get an equal share of it — per-port forwarded bytes
// within 1% of each other — and every port's arbitration wait grows
// with the backlog. Each credit window's drain FIFO stays within twice
// its header credits: drained entries are reclaimed, not kept.
func TestSwitchRoundRobinFairnessUnderSaturation(t *testing.T) {
	const ports = 4
	cfg := DefaultSwitchTestConfig()
	k, r := newSwitchedRC(t, ports, cfg)
	sw := r.Switches()[0]

	for i := 0; i < ports; i++ {
		k.AfterEvent(0, &closedLoopWriter{p: r.Port(i), left: 2000, t: t}, 0, 0)
	}
	k.Run()

	var min, max uint64
	for i := 0; i < ports; i++ {
		b := sw.PortStats(i).Up.Bytes
		if i == 0 || b < min {
			min = b
		}
		if b > max {
			max = b
		}
		if sw.PortStats(i).Up.Wait == 0 {
			t.Errorf("port %d saturated a shared uplink with zero arbitration wait", i)
		}
	}
	if min == 0 || float64(min)/float64(max) < 0.99 {
		t.Errorf("unfair partitioning: min %d bytes vs max %d bytes", min, max)
	}
	for d := range sw.fc {
		for ct, f := range sw.fc[d] {
			if f.tx != nil && cap(f.pending) > 2*f.capacity.Hdr {
				t.Errorf("direction %d pool %d: drain FIFO holds %d entries for %d header credits", d, ct, cap(f.pending), f.capacity.Hdr)
			}
		}
	}
	if !sw.FCIdle() {
		t.Error("flow-control credits leaked")
	}
}

// DefaultSwitchTestConfig is a realistic contended-switch config used
// by the fairness and credit tests: finite credit pools, real
// forwarding latency.
func DefaultSwitchTestConfig() SwitchConfig {
	return SwitchConfig{
		Uplink:         pcie.DefaultGen3x8(),
		WireDelay:      25 * sim.Nanosecond,
		ForwardLatency: 150 * sim.Nanosecond,
		DrainLatency:   50 * sim.Nanosecond,
		UpCredits: CreditLimits{
			P:  dll.Credits{Hdr: 64, Data: 1024},
			NP: dll.Credits{Hdr: 64, Data: dll.Infinite},
		},
		DownCredits: CreditLimits{
			P:  dll.Credits{Hdr: 32, Data: 512},
			NP: dll.Credits{Hdr: 32, Data: dll.Infinite},
		},
	}
}

// TestSwitchCreditNoLeakRandomized is the flow-control property test:
// after an arbitrary randomized TLP sequence (reads, writes, MMIO in
// both directions, varied sizes, several ports) every credit consumed
// from every pool comes back once the pending drains elapse.
func TestSwitchCreditNoLeakRandomized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := DefaultSwitchTestConfig()
		// Tighten the pools so stalls actually occur.
		cfg.UpCredits.P = dll.Credits{Hdr: 4, Data: 64}
		cfg.UpCredits.NP = dll.Credits{Hdr: 4, Data: dll.Infinite}
		cfg.DownCredits.Cpl = dll.Credits{Hdr: 8, Data: 128}
		k, r := newSwitchedRC(t, 3, cfg)
		sw := r.Switches()[0]
		rng := rand.New(rand.NewSource(seed))
		at := sim.Time(0)
		for i := 0; i < 300; i++ {
			p := r.Port(rng.Intn(3))
			sz := 1 + rng.Intn(2048)
			var err error
			switch rng.Intn(4) {
			case 0:
				_, err = p.DMARead(at, uint64(rng.Intn(1<<18)), sz)
			case 1:
				_, err = p.DMAWrite(at, uint64(rng.Intn(1<<18)), sz)
			case 2:
				p.MMIOWrite(at, 8)
			default:
				p.MMIORead(at, 4, 40*sim.Nanosecond)
			}
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				at += sim.Time(rng.Intn(10000)) * sim.Nanosecond
				k.RunUntil(at)
			}
		}
		k.Run()
		if !sw.FCIdle() {
			t.Fatalf("seed %d: flow-control credits leaked", seed)
		}
	}
}

// TestSwitchCreditBackpressure checks finite pools stall a burst that
// infinite pools let through: the same back-to-back write burst
// finishes strictly later with a tiny posted window.
func TestSwitchCreditBackpressure(t *testing.T) {
	burst := func(cfg SwitchConfig) sim.Time {
		_, r := newSwitchedRC(t, 1, cfg)
		p := r.Port(0)
		var last sim.Time
		for i := 0; i < 64; i++ {
			res, err := p.DMAWrite(0, uint64(i*256), 256)
			if err != nil {
				t.Fatal(err)
			}
			if res.MemDone > last {
				last = res.MemDone
			}
		}
		return last
	}
	open := burst(transparentSwitch())
	tight := transparentSwitch()
	tight.DrainLatency = 500 * sim.Nanosecond
	tight.UpCredits.P = dll.Credits{Hdr: 2, Data: 32}
	stalled := burst(tight)
	if stalled <= open {
		t.Errorf("tiny posted window did not backpressure: %v vs %v", stalled, open)
	}
}

// TestPeerDMARouting checks address-ranged peer-to-peer routing: a
// write into a peer's BAR window lands at the peer (MemDone reflects
// its device latency), takes the switch shortcut when both share one,
// and never touches host memory counters.
func TestPeerDMARouting(t *testing.T) {
	cfg := transparentSwitch()
	cfg.ForwardLatency = 100 * sim.Nanosecond
	_, r := newSwitchedRC(t, 2, cfg)
	a, b := r.Port(0), r.Port(1)
	bar := BARConfig{Base: 1 << 40, Size: 1 << 20, ReadLatency: 300 * sim.Nanosecond, WriteLatency: 80 * sim.Nanosecond}
	if err := b.SetBAR(bar); err != nil {
		t.Fatal(err)
	}

	w, err := a.DMAWrite(0, bar.Base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if w.MemDone <= w.LinkDone {
		t.Error("peer write delivered before link injection finished")
	}
	if got := r.Switches()[0].PortStats(0).P2PTLPs; got != 1 {
		t.Errorf("P2PTLPs = %d, want 1 (switch shortcut)", got)
	}
	if r.Switches()[0].PortStats(0).Up.TLPs != 0 {
		t.Error("peer write under one switch crossed the uplink")
	}

	rd, err := a.DMARead(0, bar.Base+4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Complete <= rd.FirstData-1 && rd.FirstData == 0 {
		t.Error("peer read returned no data timeline")
	}
	if b.Stats().UpTLPs == 0 {
		t.Error("peer read returned completions without the peer injecting them")
	}

	// Reads/writes outside the BAR window still go to host memory.
	if _, err := a.DMAWrite(0, 0, 64); err != nil {
		t.Fatal(err)
	}
}

// TestSelfBARWriteTargetsHost: a port DMAing into its own BAR range is
// routed to host memory (the address check excludes self), not looped
// back into itself.
func TestSelfBARWriteTargetsHost(t *testing.T) {
	_, r := newSwitchedRC(t, 2, transparentSwitch())
	a := r.Port(0)
	if err := a.SetBAR(BARConfig{Base: 1 << 40, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DMAWrite(0, 1<<40, 64); err != nil {
		t.Fatal(err)
	}
	if got := r.Switches()[0].PortStats(0).P2PTLPs; got != 0 {
		t.Errorf("self-targeted write took the peer path (%d TLPs)", got)
	}
}

// TestBAROverlapRejected: overlapping BAR windows are a configuration
// error.
func TestBAROverlapRejected(t *testing.T) {
	_, r := newSwitchedRC(t, 2, transparentSwitch())
	if err := r.Port(0).SetBAR(BARConfig{Base: 1 << 40, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := r.Port(1).SetBAR(BARConfig{Base: 1<<40 + 4096, Size: 1 << 20}); err == nil {
		t.Error("overlapping BAR accepted")
	}
}

// TestCrossSocketInterconnect: with a second socket and the
// interconnect, a port on socket 1 accessing node-0 memory pays the
// crossing; the same access from socket 0 does not.
func TestCrossSocketInterconnect(t *testing.T) {
	k := sim.New(7)
	ms := testMemSystem(t)
	r := NewRouter(k, ms, nil, nil)
	cfg := testConfig()
	s0, err := r.AddSocket(SocketConfig{Node: 0, PipeLatency: cfg.PipeLatency, PipeSlots: cfg.PipeSlots})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := r.AddSocket(SocketConfig{Node: 1, PipeLatency: cfg.PipeLatency, PipeSlots: cfg.PipeSlots})
	if err != nil {
		t.Fatal(err)
	}
	const psPerByte = 62
	r.SetInterconnect(InterconnectConfig{PSPerByte: psPerByte})
	p0, err := r.AddPort(PortConfig{Link: cfg.Link, WireDelay: cfg.WireDelay}, s0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.AddPort(PortConfig{Link: cfg.Link, WireDelay: cfg.WireDelay}, s1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Address 0 homes on node 0 (nil AddressMap).
	local, err := p0.DMARead(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := p1.DMARead(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The remote path pays the memory system's RemoteLatency relative
	// to socket 1 plus the 64-byte payload's serialization on the bus
	// (the request crosses with no payload).
	want := 100*sim.Nanosecond + 64*psPerByte*sim.Picosecond
	if got := remote.Complete - local.Complete; got != want {
		t.Errorf("cross-socket read %v - local %v = %v, want %v", remote.Complete, local.Complete, got, want)
	}
}

// TestRouterAccessors exercises the introspection surface a topology
// debugger leans on.
func TestRouterAccessors(t *testing.T) {
	cfg := DefaultSwitchTestConfig()
	k, r := newSwitchedRC(t, 2, cfg)
	sw := r.Switches()[0]
	sw.EnableWaitSampling()

	if len(r.Sockets()) != 1 || r.Sockets()[0].Node() != 0 {
		t.Errorf("sockets = %v", r.Sockets())
	}
	if len(r.Ports()) != 2 || r.Port(1).Index() != 1 {
		t.Errorf("ports misindexed")
	}
	if r.Port(0).Socket() != r.Sockets()[0] || r.Port(0).Switch() != sw {
		t.Error("port attachment accessors wrong")
	}
	if sw.Socket() != r.Sockets()[0] || sw.Downstreams() != 2 {
		t.Errorf("switch accessors wrong: %v downstreams", sw.Downstreams())
	}
	if got := sw.Config().ForwardLatency; got != cfg.ForwardLatency {
		t.Errorf("switch config round-trip: %v", got)
	}
	if got := r.Port(0).Link(); got != testConfig().Link {
		t.Errorf("port link round-trip: %v", got)
	}
	if _, ok := sw.WaitSummary(true); ok {
		t.Error("wait summary before any traffic")
	}

	for i := 0; i < 2; i++ {
		k.AfterEvent(0, &closedLoopWriter{p: r.Port(i), left: 50, t: t}, 0, 0)
	}
	k.Run()
	if s, ok := sw.WaitSummary(true); !ok || s.N == 0 {
		t.Error("wait summary empty after saturating traffic")
	}
	if _, ok := sw.WaitSummary(false); ok {
		t.Error("down-direction summary without down traffic")
	}
	if sw.UpUtilization() <= 0 || r.Port(0).UpUtilization() <= 0 {
		t.Error("uplink/port utilization not accounted")
	}
	if sw.DownUtilization() != 0 {
		t.Error("down utilization without down traffic")
	}
	if r.Port(0).Stats().WriteOps == 0 {
		t.Error("port stats not accounted")
	}
}

// TestBuilderValidation covers the router builder error paths.
func TestBuilderValidation(t *testing.T) {
	k := sim.New(1)
	ms := testMemSystem(t)
	r := NewRouter(k, ms, nil, nil)
	if _, err := r.AddPort(PortConfig{Link: pcie.DefaultGen3x8()}, nil, nil); err == nil {
		t.Error("socketless direct port accepted")
	}
	if _, err := r.AddSocket(SocketConfig{PipeLatency: -sim.Nanosecond, PipeSlots: 1}); err == nil {
		t.Error("negative pipe latency accepted")
	}
	if _, err := r.AddSocket(SocketConfig{PipeLatency: sim.Nanosecond, PipeSlots: 0}); err == nil {
		t.Error("zero pipe slots accepted")
	}
	sock, err := r.AddSocket(SocketConfig{PipeLatency: sim.Nanosecond, PipeSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := PortConfig{Link: pcie.DefaultGen3x8(), WireDelay: -1}
	if _, err := r.AddPort(bad, sock, nil); err == nil {
		t.Error("negative wire delay accepted")
	}
	if _, err := r.AddSwitch(SwitchConfig{Uplink: pcie.DefaultGen3x8(), ForwardLatency: -1}, sock); err == nil {
		t.Error("negative forward latency accepted")
	}
	if _, err := r.AddSwitch(SwitchConfig{Uplink: pcie.DefaultGen3x8()}, nil); err == nil {
		t.Error("socketless switch accepted")
	}
	tiny := SwitchConfig{Uplink: pcie.DefaultGen3x8()}
	tiny.UpCredits.P = dll.Credits{Hdr: 1, Data: 2} // cannot hold one MPS TLP
	if _, err := r.AddSwitch(tiny, sock); err == nil {
		t.Error("undersized posted pool accepted")
	}
	sw, err := r.AddSwitch(SwitchConfig{Uplink: pcie.DefaultGen3x8()}, sock)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.AddPort(PortConfig{Link: pcie.DefaultGen3x8()}, nil, sw)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetBAR(BARConfig{Base: 1 << 40, Size: 0}); err == nil {
		t.Error("zero-size BAR accepted")
	}
	if p.BAR() != nil {
		t.Error("failed SetBAR left a window behind")
	}
}
