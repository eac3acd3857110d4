package nfp

import (
	"testing"

	"pciebench/internal/device"
	"pciebench/internal/device/netfpga"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

func hostRC(t *testing.T, k *sim.Kernel) (*rc.RootComplex, *mem.System) {
	t.Helper()
	ms, err := mem.NewSystem(mem.Config{
		Nodes:       1,
		Cache:       mem.CacheConfig{SizeBytes: 15 << 20, Ways: 20, LineSize: 64, DDIOWays: 2},
		LLCLatency:  50 * sim.Nanosecond,
		DRAMLatency: 120 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rc.New(k, rc.Config{
		Link:        pcie.DefaultGen3x8(),
		PipeLatency: 100 * sim.Nanosecond,
		PipeSlots:   24,
		WireDelay:   120 * sim.Nanosecond,
	}, ms, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, ms
}

// readLatency measures one warm read of size sz on engine build.
func readLatency(t *testing.T, build func(*sim.Kernel, device.Path) (*device.Engine, error), sz int, direct bool) sim.Time {
	t.Helper()
	k := sim.New(3)
	r, ms := hostRC(t, k)
	e, err := build(k, r)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's baseline (§6.1) warms the 8KB host buffer first.
	ms.WarmHost(0, []mem.Extent{{Addr: 0, Size: 8 << 10}})
	var lat sim.Time
	e.Submit(device.Op{DMA: 0, Size: sz, Direct: direct, OnDone: func(c device.Completion) {
		lat = c.Done - c.Submitted
	}})
	k.Run()
	return lat
}

func TestNFPFixedOffsetOverNetFPGA(t *testing.T) {
	// Paper Fig 5: the NFP's DMA-engine path has a fixed ~100ns offset
	// over NetFPGA for small transfers.
	nfpLat := readLatency(t, New, 64, false)
	netLat := readLatency(t, netfpga.New, 64, false)
	delta := nfpLat - netLat
	if delta < 80*sim.Nanosecond || delta > 140*sim.Nanosecond {
		t.Errorf("NFP-NetFPGA small-read offset = %v, want ~100ns", delta)
	}
}

func TestNFPGapWidensWithSize(t *testing.T) {
	// Paper §6.1: "the gap increasing for larger transfers" due to the
	// CTM staging transfer.
	small := readLatency(t, New, 64, false) - readLatency(t, netfpga.New, 64, false)
	large := readLatency(t, New, 2048, false) - readLatency(t, netfpga.New, 2048, false)
	if large <= small {
		t.Errorf("gap at 2048B (%v) not wider than at 64B (%v)", large, small)
	}
	// The widening is roughly the 2048B staging cost (~200ns).
	widen := large - small
	if widen < 150*sim.Nanosecond || widen > 280*sim.Nanosecond {
		t.Errorf("gap widening = %v, want ~200ns", widen)
	}
}

func TestNFPDirectMatchesNetFPGA(t *testing.T) {
	// Paper §6.1: "When using the NFP's direct PCIe command interface
	// ... the NFP-6000 achieves the same latency as the NetFPGA".
	nfpDirect := readLatency(t, New, 64, true)
	netLat := readLatency(t, netfpga.New, 64, false)
	delta := nfpDirect - netLat
	if delta < -30*sim.Nanosecond || delta > 30*sim.Nanosecond {
		t.Errorf("NFP direct vs NetFPGA delta = %v, want ~0", delta)
	}
}

func TestAbsoluteLatencyCalibration(t *testing.T) {
	// Paper Fig 6 (Xeon E5 Haswell): 64B DMA reads have a median of
	// ~547ns on the NFP.
	lat := readLatency(t, New, 64, false)
	if lat < 480*sim.Nanosecond || lat > 620*sim.Nanosecond {
		t.Errorf("NFP 64B warm read = %v, want ~547ns", lat)
	}
	// NetFPGA (and NFP direct) sit around 430-480ns.
	lat = readLatency(t, netfpga.New, 64, false)
	if lat < 380*sim.Nanosecond || lat > 520*sim.Nanosecond {
		t.Errorf("NetFPGA 64B warm read = %v, want ~450ns", lat)
	}
}

func TestFig5SizeScaling(t *testing.T) {
	// Paper Fig 5 endpoints: at 2048B, NFP LAT_RD ~1500ns and NetFPGA
	// ~1250ns.
	nfp := readLatency(t, New, 2048, false)
	if nfp < 1300*sim.Nanosecond || nfp > 1700*sim.Nanosecond {
		t.Errorf("NFP 2048B read = %v, want ~1500ns", nfp)
	}
	net := readLatency(t, netfpga.New, 2048, false)
	if net < 1050*sim.Nanosecond || net > 1450*sim.Nanosecond {
		t.Errorf("NetFPGA 2048B read = %v, want ~1250ns", net)
	}
}

func TestTimestampResolutions(t *testing.T) {
	if Config().TimestampResolution != 19200 {
		t.Errorf("NFP resolution = %v, want 19.2ns", Config().TimestampResolution)
	}
	if netfpga.Config().TimestampResolution != 4*sim.Nanosecond {
		t.Errorf("NetFPGA resolution = %v, want 4ns", netfpga.Config().TimestampResolution)
	}
}

func TestConfigsValid(t *testing.T) {
	if err := Config().Validate(); err != nil {
		t.Errorf("NFP config: %v", err)
	}
	if err := netfpga.Config().Validate(); err != nil {
		t.Errorf("NetFPGA config: %v", err)
	}
}
