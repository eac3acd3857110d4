package model

import (
	"testing"
	"testing/quick"

	"pciebench/internal/pcie"
)

func gbps(bits float64) float64 { return bits / 1e9 }

func TestEffectiveWriteBandwidth(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	// A 256B write moves 256 payload per 280 wire bytes.
	got := gbps(EffectiveWriteBandwidth(cfg, 256))
	want := gbps(cfg.TLPBandwidth()) * 256 / 280
	if diff := got - want; diff > 0.01 || diff < -0.01 {
		t.Errorf("256B write BW = %.2f, want %.2f", got, want)
	}
	if EffectiveWriteBandwidth(cfg, 0) != 0 {
		t.Error("0B write")
	}
}

func TestSawToothPattern(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	// Crossing an MPS boundary adds a header: BW(257) < BW(256).
	if EffectiveWriteBandwidth(cfg, 257) >= EffectiveWriteBandwidth(cfg, 256) {
		t.Error("no saw-tooth drop at MPS boundary for writes")
	}
	if EffectiveReadBandwidth(cfg, 257) >= EffectiveReadBandwidth(cfg, 256) {
		t.Error("no saw-tooth drop at MPS boundary for reads")
	}
	// Within a tooth, bandwidth rises with size.
	if EffectiveWriteBandwidth(cfg, 255) <= EffectiveWriteBandwidth(cfg, 128) {
		t.Error("bandwidth not rising within a tooth")
	}
}

func TestEffectiveBWMatchesPaperFigure1(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	// Paper §2: "PCIe protocol overheads reduce the usable bandwidth to
	// around 50 Gb/s" for large bidirectional transfers.
	bw := gbps(EffectiveBidirBandwidth(cfg, 1500))
	if bw < 48 || bw < 0 || bw > 53 {
		t.Errorf("1500B bidirectional effective BW = %.2f Gb/s, want ~50", bw)
	}
	// Small transfers suffer much more.
	small := gbps(EffectiveBidirBandwidth(cfg, 64))
	if small > 35 {
		t.Errorf("64B bidirectional BW = %.2f Gb/s, expected heavy overhead", small)
	}
}

func TestEthernetLineRate(t *testing.T) {
	// 1500B frames on 40G: 40 * 1500/1520 = 39.47 Gb/s.
	got := gbps(EthernetLineRate(40e9, 1500))
	if got < 39.4 || got > 39.5 {
		t.Errorf("1500B Ethernet = %.3f", got)
	}
	// Minimum frame clamp.
	if EthernetLineRate(40e9, 32) != EthernetLineRate(40e9, 64) {
		t.Error("sub-64B frames not clamped")
	}
}

func TestNICModelOrdering(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	simple, kernel, dpdk := SimpleNIC(), ModernNICKernel(), ModernNICDPDK()
	for _, sz := range []int{64, 128, 256, 512, 1024, 1500} {
		raw := EffectiveBidirBandwidth(cfg, sz)
		s := simple.Bandwidth(cfg, sz)
		kk := kernel.Bandwidth(cfg, sz)
		d := dpdk.Bandwidth(cfg, sz)
		// Figure 1 ordering: Effective >= DPDK >= kernel >= simple.
		if !(raw >= d && d >= kk && kk > s) {
			t.Errorf("sz %d: ordering violated: raw %.1f dpdk %.1f kernel %.1f simple %.1f",
				sz, gbps(raw), gbps(d), gbps(kk), gbps(s))
		}
	}
}

func TestSimpleNICCrossoverNear512(t *testing.T) {
	// Paper §2: the simple NIC "would only achieve 40Gb/s line rate
	// throughput for Ethernet frames larger than 512B".
	cfg := pcie.DefaultGen3x8()
	simple := SimpleNIC()
	if simple.Bandwidth(cfg, 256) >= EthernetLineRate(40e9, 256) {
		t.Error("simple NIC reaches 40G line rate at 256B; paper says it should not")
	}
	if simple.Bandwidth(cfg, 1024) < EthernetLineRate(40e9, 1024) {
		t.Error("simple NIC misses 40G line rate at 1024B; paper says it should reach it")
	}
	// The crossover is between 256B and 1024B, near 512B.
	crossed := false
	for sz := 256; sz <= 1024; sz += 8 {
		if simple.Bandwidth(cfg, sz) >= EthernetLineRate(40e9, sz) {
			if sz < 384 || sz > 768 {
				t.Errorf("crossover at %dB, want near 512B", sz)
			}
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("no crossover found")
	}
}

func TestModernNICsSustain40GAt64B(t *testing.T) {
	// Figure 1: both modern models stay above the simple NIC and the
	// DPDK driver clears 40G Ethernet for most sizes; at 64B even
	// modern NICs are below 40G line rate (line rate at 64B is 30.5
	// Gb/s payload).
	cfg := pcie.DefaultGen3x8()
	eth64 := EthernetLineRate(40e9, 64)
	dpdk := ModernNICDPDK().Bandwidth(cfg, 64)
	if gbps(dpdk) < 20 {
		t.Errorf("DPDK at 64B = %.1f Gb/s, implausibly low", gbps(dpdk))
	}
	_ = eth64
	// At 1500B both modern models exceed 40G Ethernet line rate.
	for _, m := range []NIC{ModernNICKernel(), ModernNICDPDK()} {
		if m.Bandwidth(cfg, 1500) < EthernetLineRate(40e9, 1500) {
			t.Errorf("%s below 40G line rate at 1500B", m.Name)
		}
	}
}

func TestPerPacketWireBytes(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	// Simple NIC at 512B, hand-computed:
	// TX: payload MRd up 24, CplD down 2*20+512=552; tail MMIO down 28;
	//     desc fetch up 24 down 36; intr up 28; head read down 24 up 24.
	// RX: payload MWr up 24*2+512=560; freelist tail down 28; freelist
	//     fetch up 24 down 36; desc wb up 40; intr up 28; head read
	//     down 24 up 24.
	up, down := SimpleNIC().PerPacketWireBytes(cfg, 512)
	wantUp := float64(24 + 24 + 28 + 24 + 560 + 24 + 40 + 28 + 24)
	wantDown := float64(552 + 28 + 36 + 24 + 28 + 36 + 24)
	if up != wantUp {
		t.Errorf("up = %v, want %v", up, wantUp)
	}
	if down != wantDown {
		t.Errorf("down = %v, want %v", down, wantDown)
	}
}

func TestValidate(t *testing.T) {
	for _, m := range []NIC{SimpleNIC(), ModernNICKernel(), ModernNICDPDK()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := NIC{Name: "bad", TX: []Interaction{{"x", DMARead, 16, 0, RoleOther}}}
	if err := bad.Validate(); err == nil {
		t.Error("PerPackets 0 accepted")
	}
	bad2 := NIC{Name: "bad2", RX: []Interaction{{"x", DMARead, 0, 1, RoleOther}}}
	if err := bad2.Validate(); err == nil {
		t.Error("0 bytes accepted")
	}
}

// Property: NIC bandwidth is always positive, below the raw effective
// bandwidth, and packet rate times size equals bandwidth.
func TestNICBandwidthBounds(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	nics := []NIC{SimpleNIC(), ModernNICKernel(), ModernNICDPDK()}
	f := func(s uint16, which uint8) bool {
		sz := int(s%2048) + 1
		n := nics[int(which)%len(nics)]
		bw := n.Bandwidth(cfg, sz)
		if bw <= 0 || bw > EffectiveBidirBandwidth(cfg, sz) {
			return false
		}
		rate := n.PacketRate(cfg, sz)
		return !(rate*float64(sz)*8-bw > 1 || bw-rate*float64(sz)*8 > 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestZeroSizeEverywhere(t *testing.T) {
	cfg := pcie.DefaultGen3x8()
	if SimpleNIC().Bandwidth(cfg, 0) != 0 || SimpleNIC().PacketRate(cfg, 0) != 0 {
		t.Error("0-size packets should yield 0")
	}
	if EffectiveReadBandwidth(cfg, 0) != 0 || EffectiveBidirBandwidth(cfg, 0) != 0 {
		t.Error("0-size transfers should yield 0")
	}
}
