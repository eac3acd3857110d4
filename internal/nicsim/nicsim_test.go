package nicsim

import (
	"strings"
	"testing"

	"pciebench/internal/hostif"
	"pciebench/internal/mem"
	"pciebench/internal/model"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
	"pciebench/internal/workload"
)

func buildStack(t *testing.T) (*sim.Kernel, *rc.RootComplex, *hostif.Buffer) {
	t.Helper()
	k := sim.New(3)
	ms, err := mem.NewSystem(mem.Config{
		Nodes:       1,
		Cache:       mem.CacheConfig{SizeBytes: 15 << 20, Ways: 20, LineSize: 64, DDIOWays: 2},
		LLCLatency:  50 * sim.Nanosecond,
		DRAMLatency: 120 * sim.Nanosecond,
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
	buf, err := host.Alloc(8<<20, 0, hostif.Chunked4M, 0)
	if err != nil {
		t.Fatal(err)
	}
	// RX rings live in warm, frequently polled memory.
	buf.WarmHost(0, 64<<10)
	return k, complex, buf
}

func TestLoopbackParamErrors(t *testing.T) {
	_, complex, buf := buildStack(t)
	if _, err := Loopback(complex, buf.DMAAddr(0), 0, 10); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := Loopback(complex, buf.DMAAddr(0), 64, 0); err == nil {
		t.Error("count 0 accepted")
	}
}

func TestLoopbackFig2SmallFrames(t *testing.T) {
	// Fig 2: ~1000ns total around 128B with PCIe contributing ~90%.
	_, complex, buf := buildStack(t)
	samples, err := Loopback(complex, buf.DMAAddr(0), 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	med, frac := MedianLoopback(samples)
	if med < 800*sim.Nanosecond || med > 1200*sim.Nanosecond {
		t.Errorf("128B loopback median = %v, want ~1000ns", med)
	}
	if frac < 0.82 || frac > 0.95 {
		t.Errorf("128B PCIe fraction = %.3f, want ~0.90", frac)
	}
}

func TestLoopbackFig2LargeFrames(t *testing.T) {
	// Fig 2: ~2400ns at 1500B with the PCIe share falling to ~77%.
	_, complex, buf := buildStack(t)
	samples, err := Loopback(complex, buf.DMAAddr(0), 1500, 32)
	if err != nil {
		t.Fatal(err)
	}
	med, frac := MedianLoopback(samples)
	if med < 2100*sim.Nanosecond || med > 3000*sim.Nanosecond {
		t.Errorf("1500B loopback median = %v, want ~2400ns", med)
	}
	if frac < 0.72 || frac > 0.85 {
		t.Errorf("1500B PCIe fraction = %.3f, want ~0.77", frac)
	}
}

func TestLoopbackPCIeFractionFalls(t *testing.T) {
	// The PCIe share decreases with frame size (Fig 2's right edge).
	_, complex, buf := buildStack(t)
	fr := func(sz int) float64 {
		samples, err := Loopback(complex, buf.DMAAddr(0), sz, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, f := MedianLoopback(samples)
		return f
	}
	small, large := fr(64), fr(1500)
	if large >= small {
		t.Errorf("PCIe fraction did not fall: %.3f -> %.3f", small, large)
	}
}

func TestLoopbackLatencyRisesWithSize(t *testing.T) {
	_, complex, buf := buildStack(t)
	var prev sim.Time
	for _, sz := range []int{64, 256, 512, 1024, 1500} {
		samples, err := Loopback(complex, buf.DMAAddr(0), sz, 8)
		if err != nil {
			t.Fatal(err)
		}
		med, _ := MedianLoopback(samples)
		if med <= prev {
			t.Errorf("latency not rising at %dB: %v <= %v", sz, med, prev)
		}
		prev = med
	}
}

func TestMedianLoopbackEmpty(t *testing.T) {
	tot, frac := MedianLoopback(nil)
	if tot != 0 || frac != 0 {
		t.Error("empty samples")
	}
}

// throughput runs design's per-packet transaction mix on the workload
// engine in the Figure 1 setting (one queue, fixed-size frames,
// saturating arrivals) and returns the payload Gb/s per direction.
func throughput(k *sim.Kernel, complex *rc.RootComplex, design model.NIC, bufDMA uint64, pktSz, pairs, window int) (float64, error) {
	res, err := workload.Run(k, complex, bufDMA, workload.Config{
		Queues:  1,
		Window:  window,
		Design:  design,
		Sizes:   workload.FixedSize(pktSz),
		Arrival: workload.Saturate(),
	}, pairs)
	if err != nil {
		return 0, err
	}
	return res.GbpsPerDirection, nil
}

func TestThroughputMatchesAnalyticalModel(t *testing.T) {
	// The event-driven run of each Fig 1 design should land within 15%
	// of the closed-form model at large packet sizes (where link
	// serialization dominates and latency effects vanish).
	link := pcie.DefaultGen3x8()
	for _, design := range []model.NIC{model.SimpleNIC(), model.ModernNICKernel(), model.ModernNICDPDK()} {
		for _, sz := range []int{512, 1024, 1500} {
			k, complex, buf := buildStack(t)
			got, err := throughput(k, complex, design, buf.DMAAddr(0), sz, 3000, 64)
			if err != nil {
				t.Fatalf("%s/%d: %v", design.Name, sz, err)
			}
			want := design.Bandwidth(link, sz) / 1e9
			rel := (got - want) / want
			if rel > 0.15 || rel < -0.15 {
				t.Errorf("%s %dB: simulated %.2f vs model %.2f Gb/s (%.1f%%)",
					design.Name, sz, got, want, rel*100)
			}
		}
	}
}

func TestThroughputOrderingMatchesFigure1(t *testing.T) {
	// Simulated designs must preserve the Figure 1 ordering at every
	// size: DPDK >= kernel >= simple.
	for _, sz := range []int{64, 256, 1024} {
		run := func(design model.NIC) float64 {
			k, complex, buf := buildStack(t)
			got, err := throughput(k, complex, design, buf.DMAAddr(0), sz, 2000, 64)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		simple := run(model.SimpleNIC())
		kernel := run(model.ModernNICKernel())
		dpdk := run(model.ModernNICDPDK())
		if !(dpdk >= kernel*0.98 && kernel >= simple) {
			t.Errorf("%dB ordering: dpdk %.2f kernel %.2f simple %.2f", sz, dpdk, kernel, simple)
		}
	}
}

func TestThroughputErrors(t *testing.T) {
	k, complex, buf := buildStack(t)
	if _, err := throughput(k, complex, model.SimpleNIC(), buf.DMAAddr(0), 0, 10, 8); err == nil || !strings.Contains(err.Error(), "frame size 0 out of") {
		t.Errorf("size 0: err = %v, want the frame-size error", err)
	}
	if _, err := throughput(k, complex, model.SimpleNIC(), buf.DMAAddr(0), 64, 0, 8); err == nil {
		t.Error("pairs 0 accepted")
	}
}

func TestLoopbackSampleFraction(t *testing.T) {
	s := LoopbackSample{Total: 1000, PCIe: 900, NonPCIe: 100}
	if f := s.PCIeFraction(); f != 0.9 {
		t.Errorf("fraction = %v", f)
	}
	if (LoopbackSample{}).PCIeFraction() != 0 {
		t.Error("zero sample fraction")
	}
}
