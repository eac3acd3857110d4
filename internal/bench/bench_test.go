package bench

import (
	"testing"

	"pciebench/internal/device"
	"pciebench/internal/device/netfpga"
	"pciebench/internal/device/nfp"
	"pciebench/internal/hostif"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// buildTarget assembles a Haswell-like host with the chosen device
// config (kept local to avoid an import cycle with sysconf; the
// integration tests in internal/report exercise the sysconf builder).
func buildTarget(t *testing.T, devCfg device.Config, seed int64) *Target {
	t.Helper()
	k := sim.New(seed)
	ms, err := mem.NewSystem(mem.Config{
		Nodes:         2,
		Cache:         mem.CacheConfig{SizeBytes: 15 << 20, Ways: 20, LineSize: 64, DDIOWays: 2},
		LLCLatency:    50 * sim.Nanosecond,
		DRAMLatency:   120 * sim.Nanosecond,
		RemoteLatency: 100 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	host := hostif.New(ms, nil)
	complex, err := rc.New(k, rc.Config{
		Link:        pcie.DefaultGen3x8(),
		PipeLatency: 100 * sim.Nanosecond,
		PipeSlots:   24,
		WireDelay:   120 * sim.Nanosecond,
	}, ms, nil, host)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := device.New(k, complex, devCfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := host.Alloc(32<<20, 0, hostif.Chunked4M, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{Host: host, Engine: eng, Buffer: buf}
}

func TestParamsUnits(t *testing.T) {
	p := Params{WindowSize: 8192, TransferSize: 64}
	if p.UnitSize() != 64 || p.Units() != 128 {
		t.Errorf("unit=%d units=%d", p.UnitSize(), p.Units())
	}
	// Offset pushes the unit to two lines.
	p = Params{WindowSize: 8192, TransferSize: 64, Offset: 8}
	if p.UnitSize() != 128 || p.Units() != 64 {
		t.Errorf("offset unit=%d units=%d", p.UnitSize(), p.Units())
	}
	// 8B transfers still occupy a whole line.
	p = Params{WindowSize: 4096, TransferSize: 8}
	if p.UnitSize() != 64 {
		t.Errorf("8B unit = %d", p.UnitSize())
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{WindowSize: 8192, TransferSize: 64, Transactions: 10}
	if err := good.Validate(1 << 20); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"zero transfer", Params{WindowSize: 8192, Transactions: 1}},
		{"zero transactions", Params{WindowSize: 8192, TransferSize: 64}},
		{"window < unit", Params{WindowSize: 32, TransferSize: 64, Transactions: 1}},
		{"window > buffer", Params{WindowSize: 2 << 20, TransferSize: 64, Transactions: 1}},
		{"bad offset", Params{WindowSize: 8192, TransferSize: 64, Offset: 64, Transactions: 1}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(1 << 20); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestLatRdBasics(t *testing.T) {
	tgt := buildTarget(t, nfp.Config(), 3)
	res, err := LatRd(tgt, Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: HostWarm, Transactions: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 500 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// Fig 6 anchor: NFP on Haswell, 64B warm reads ~547ns median.
	if res.Summary.Median < 480 || res.Summary.Median > 620 {
		t.Errorf("median = %.1fns, want ~547", res.Summary.Median)
	}
	// Quantization: all samples are multiples of 19.2ns.
	for _, s := range res.Samples[:10] {
		ticks := s / 19.2
		if diff := ticks - float64(int(ticks+0.5)); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("sample %.3f not on a 19.2ns grid", s)
		}
	}
}

func TestLatRdWarmVsCold(t *testing.T) {
	run := func(cache CacheState) float64 {
		tgt := buildTarget(t, netfpga.Config(), 5)
		res, err := LatRd(tgt, Params{
			WindowSize: 8 << 10, TransferSize: 64, Cache: cache, Transactions: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.Median
	}
	warm, cold := run(HostWarm), run(Cold)
	// §6.3: warm reads are ~70ns cheaper. (4ns quantization grid.)
	if d := cold - warm; d < 60 || d > 80 {
		t.Errorf("cold-warm = %.1fns, want ~70", d)
	}
}

func TestLatWrRdOrdersAfterWrite(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 7)
	wr, err := LatWrRd(tgt, Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: HostWarm, Transactions: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt2 := buildTarget(t, netfpga.Config(), 7)
	rd, err := LatRd(tgt2, Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: HostWarm, Transactions: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Summary.Median <= rd.Summary.Median {
		t.Errorf("LAT_WRRD (%.1f) not above LAT_RD (%.1f)", wr.Summary.Median, rd.Summary.Median)
	}
}

func TestSequentialPatternCoversWindow(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 1)
	p := Params{WindowSize: 4096, TransferSize: 64, Pattern: Sequential, Transactions: 64, Warmup: 64}
	if err := tgt.prepare(p); err != nil {
		t.Fatal(err)
	}
	g := newAddrGen(tgt, p)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[g.next()] = true
	}
	if len(seen) != 64 {
		t.Errorf("sequential covered %d units, want 64", len(seen))
	}
	// Wraps around.
	first := tgt.Buffer.DMAAddr(0)
	if got := g.next(); got != first {
		t.Errorf("wrap: got %#x, want %#x", got, first)
	}
}

func TestBwRdCalibration(t *testing.T) {
	// Fig 4a anchor: NFP 64B warm read bandwidth ~30 Gb/s; NetFPGA a
	// few Gb/s higher; both well below the 40G Ethernet reference.
	tgt := buildTarget(t, nfp.Config(), 11)
	res, err := BwRd(tgt, Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: HostWarm, Transactions: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gbps < 24 || res.Gbps > 36 {
		t.Errorf("NFP BW_RD 64B = %.1f Gb/s, want ~30", res.Gbps)
	}

	tgt = buildTarget(t, netfpga.Config(), 11)
	res2, err := BwRd(tgt, Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: HostWarm, Transactions: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Gbps <= res.Gbps {
		t.Errorf("NetFPGA (%.1f) not above NFP (%.1f) at 64B", res2.Gbps, res.Gbps)
	}
}

func TestBwRdLargeTransfersLinkLimited(t *testing.T) {
	// Fig 4a: at 1024B+ both implementations approach the model's
	// effective read bandwidth (~50 Gb/s).
	tgt := buildTarget(t, netfpga.Config(), 13)
	res, err := BwRd(tgt, Params{
		WindowSize: 64 << 10, TransferSize: 1024, Cache: HostWarm, Transactions: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gbps < 45 || res.Gbps > 54 {
		t.Errorf("1024B BW_RD = %.1f Gb/s, want ~50", res.Gbps)
	}
}

func TestBwWrLinkLimited(t *testing.T) {
	// 64B writes: wire cost 88B per 64B payload -> ~42 Gb/s ceiling.
	tgt := buildTarget(t, netfpga.Config(), 17)
	res, err := BwWr(tgt, Params{
		WindowSize: 8 << 10, TransferSize: 64, Cache: HostWarm, Transactions: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gbps < 34 || res.Gbps > 43 {
		t.Errorf("BW_WR 64B = %.1f Gb/s, want ~40", res.Gbps)
	}
}

func TestBwRdWrBothDirectionsCompete(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 19)
	res, err := BwRdWr(tgt, Params{
		WindowSize: 64 << 10, TransferSize: 512, Cache: HostWarm, Transactions: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-direction throughput of alternating 512B ops: reads and
	// writes share the up direction, so per-direction payload sits
	// below the unidirectional read number but stays substantial.
	if res.Gbps < 20 || res.Gbps > 55 {
		t.Errorf("BW_RDWR 512B = %.1f Gb/s", res.Gbps)
	}
}

func TestBwWrInsensitiveToCacheState(t *testing.T) {
	// §6.3: "For DMA Writes, there is no benefit if the data is
	// resident in the cache or not."
	run := func(cache CacheState) float64 {
		tgt := buildTarget(t, netfpga.Config(), 23)
		res, err := BwWr(tgt, Params{
			WindowSize: 64 << 10, TransferSize: 64, Cache: cache, Transactions: 15000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gbps
	}
	warm, cold := run(HostWarm), run(Cold)
	rel := (warm - cold) / cold
	if rel > 0.05 || rel < -0.05 {
		t.Errorf("BW_WR warm %.1f vs cold %.1f: %.1f%% difference, want ~0", warm, cold, rel*100)
	}
}

func TestBwRdWarmBeatsColdAt64B(t *testing.T) {
	// §6.3 / Fig 7b: 64B reads benefit measurably from cache residency.
	run := func(cache CacheState) float64 {
		tgt := buildTarget(t, nfp.Config(), 29)
		res, err := BwRd(tgt, Params{
			WindowSize: 64 << 10, TransferSize: 64, Cache: cache, Transactions: 15000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gbps
	}
	warm, cold := run(HostWarm), run(Cold)
	if warm <= cold*1.05 {
		t.Errorf("warm %.1f not measurably above cold %.1f", warm, cold)
	}
}

func TestBwRd512BNoCacheBenefit(t *testing.T) {
	// §6.3: "from 512B DMA Reads onwards, there is no measurable
	// difference" — the link, not memory latency, binds.
	run := func(cache CacheState) float64 {
		tgt := buildTarget(t, nfp.Config(), 31)
		res, err := BwRd(tgt, Params{
			WindowSize: 256 << 10, TransferSize: 512, Cache: cache, Transactions: 10000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gbps
	}
	warm, cold := run(HostWarm), run(Cold)
	rel := (warm - cold) / cold
	if rel > 0.03 {
		t.Errorf("512B warm %.1f vs cold %.1f: %.1f%% benefit, want ~0", warm, cold, rel*100)
	}
}

func TestLatencyErrorsPropagate(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 1)
	if _, err := LatRd(tgt, Params{WindowSize: 8192, TransferSize: 0, Transactions: 10}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := BwRd(tgt, Params{WindowSize: 8192, TransferSize: 64, Transactions: 0}); err == nil {
		t.Error("zero transactions accepted")
	}
}

func TestUnalignedOffsetCostsMore(t *testing.T) {
	// §3/§4: unaligned reads generate extra completion TLPs (RCB), so
	// bandwidth at the same transfer size drops.
	run := func(offset int) float64 {
		tgt := buildTarget(t, netfpga.Config(), 37)
		res, err := BwRd(tgt, Params{
			WindowSize: 64 << 10, TransferSize: 512, Offset: offset,
			Cache: HostWarm, Transactions: 10000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gbps
	}
	aligned, unaligned := run(0), run(4)
	if unaligned >= aligned {
		t.Errorf("unaligned (%.2f) not below aligned (%.2f)", unaligned, aligned)
	}
}

func TestStringsForReporting(t *testing.T) {
	p := Params{WindowSize: 8192, TransferSize: 64, Cache: HostWarm, Transactions: 5}
	s := p.String()
	for _, want := range []string{"win=8192", "xfer=64", "warm", "rand"} {
		if !contains(s, want) {
			t.Errorf("Params.String() = %q missing %q", s, want)
		}
	}
	if Sequential.String() != "seq" || Random.String() != "rand" {
		t.Error("pattern strings")
	}
	if Cold.String() != "cold" || DeviceWarm.String() != "devwarm" {
		t.Error("cache state strings")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCDFFromResult(t *testing.T) {
	tgt := buildTarget(t, netfpga.Config(), 41)
	res, err := LatRd(tgt, Params{WindowSize: 8192, TransferSize: 64, Cache: HostWarm, Transactions: 100})
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := res.CDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.At(res.Summary.Max) != 1.0 {
		t.Error("CDF does not reach 1 at max")
	}
}
