// Package nicsim runs the paper's NIC loopback workload over the
// simulated PCIe subsystem.
//
// Loopback reproduces the §2 ExaNIC experiment behind Figure 2: a
// kernel-bypass application writes a frame to the NIC with PIO, the
// NIC loops it through its MAC back to an RX DMA into the host ring,
// and the application polls the ring. The run decomposes the total
// latency into its PCIe and non-PCIe parts exactly as the modified
// ExaNIC firmware did. The per-packet transaction mix of a NIC design
// (Figure 1) runs on the internal/workload traffic engine.
package nicsim

import (
	"fmt"

	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// LoopbackConfig shapes the ExaNIC-style loopback experiment.
type LoopbackConfig struct {
	// PIOChunk is the write-combining buffer size: the CPU's frame
	// write reaches the device as PIOChunk-byte MWr TLPs.
	PIOChunk int
	// PIOInterval is the rate at which the core's write-combining
	// buffers drain to the uncore; one 64B WC flush leaves roughly
	// every ~55-65 ns, which dominates large-frame TX and is itself
	// part of the PCIe contribution.
	PIOInterval sim.Time
	// PIOFixed is the core-to-uncore posting latency of the first
	// write-combining flush (PCIe-side).
	PIOFixed sim.Time
	// MACFixed is the fixed non-PCIe NIC path: MAC, PHY and loopback
	// plumbing in the device.
	MACFixed sim.Time
	// MACPerByte is the per-byte non-PCIe cost (cut-through wire
	// serialization and partial buffering at 10G).
	MACPerByte sim.Time
	// DescBytes is the RX descriptor written back with each frame.
	DescBytes int
	// PollGranularity is how often the polling CPU re-checks the ring.
	PollGranularity sim.Time
}

// DefaultLoopback returns the calibration used for Figure 2.
func DefaultLoopback() LoopbackConfig {
	return LoopbackConfig{
		PIOChunk:        64,
		PIOInterval:     55 * sim.Nanosecond,
		PIOFixed:        220 * sim.Nanosecond,
		MACFixed:        80 * sim.Nanosecond,
		MACPerByte:      sim.Time(330), // 0.33 ns/B: cut-through 10G loopback
		DescBytes:       16,
		PollGranularity: 10 * sim.Nanosecond,
	}
}

// LoopbackSample decomposes one frame's round trip.
type LoopbackSample struct {
	Total   sim.Time
	PCIe    sim.Time // PIO TX + RX DMA + host visibility
	NonPCIe sim.Time // MAC/PHY/loopback
}

// PCIeFraction returns the PCIe share of the total.
func (s LoopbackSample) PCIeFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.PCIe) / float64(s.Total)
}

// Loopback measures the round-trip latency of count frames of size sz
// through a loopback NIC attached to complex, with the RX ring in the
// buffer starting at ringDMA. It returns per-frame samples.
func Loopback(complex *rc.RootComplex, cfg LoopbackConfig, ringDMA uint64, sz, count int) ([]LoopbackSample, error) {
	if sz <= 0 || count <= 0 {
		return nil, fmt.Errorf("nicsim: bad loopback params sz=%d count=%d", sz, count)
	}
	if cfg.PIOChunk <= 0 {
		cfg.PIOChunk = 64
	}
	samples := make([]LoopbackSample, 0, count)
	at := sim.Time(0)
	for i := 0; i < count; i++ {
		start := at

		// TX: the CPU writes the frame through write-combining PIO.
		// Each chunk leaves the core PIOInterval apart and crosses the
		// link as an MWr TLP; the frame is complete at the device when
		// the last chunk lands.
		var txDone sim.Time
		issued := start + cfg.PIOFixed
		for off := 0; off < sz; off += cfg.PIOChunk {
			n := cfg.PIOChunk
			if sz-off < n {
				n = sz - off
			}
			arrive := complex.MMIOWrite(issued, n)
			if arrive > txDone {
				txDone = arrive
			}
			issued += cfg.PIOInterval
		}
		pioTime := txDone - start

		// NIC: MAC/PHY out, loopback, MAC/PHY in (non-PCIe).
		macTime := cfg.MACFixed + sim.Time(int64(cfg.MACPerByte)*int64(sz))
		rxReady := txDone + macTime

		// RX: the NIC DMA-writes the frame and its descriptor; the
		// polling application sees the frame once the descriptor write
		// is globally visible, plus poll granularity.
		frame, err := complex.DMAWrite(rxReady, ringDMA, sz)
		if err != nil {
			return nil, err
		}
		desc, err := complex.DMAWrite(frame.LinkDone, ringDMA+uint64(sz), cfg.DescBytes)
		if err != nil {
			return nil, err
		}
		visible := desc.MemDone
		if frame.MemDone > visible {
			visible = frame.MemDone
		}
		end := visible + cfg.PollGranularity

		s := LoopbackSample{
			Total:   end - start,
			NonPCIe: macTime,
			PCIe:    (end - start) - macTime - pioTimeNonPCIe(pioTime),
		}
		samples = append(samples, s)
		// Space frames out so runs are independent.
		at = end + 1*sim.Microsecond
	}
	return samples, nil
}

// pioTimeNonPCIe returns the part of the PIO phase not attributable to
// PCIe. The write-combining drain and link crossing are both PCIe-side
// costs, so nothing is subtracted; the function exists to make the
// decomposition explicit (and greppable) next to the paper's firmware
// hook.
func pioTimeNonPCIe(sim.Time) sim.Time { return 0 }

// MedianLoopback returns the median total latency and PCIe fraction
// over the samples.
func MedianLoopback(samples []LoopbackSample) (total sim.Time, pcieFraction float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	totals := extractTotals(samples)
	// Insertion sort: sample counts are small.
	for i := 1; i < len(totals); i++ {
		for j := i; j > 0 && totals[j] < totals[j-1]; j-- {
			totals[j], totals[j-1] = totals[j-1], totals[j]
		}
	}
	med := totals[len(totals)/2]
	// Use the fraction of the sample closest to the median total.
	best := samples[0]
	for _, s := range samples {
		if abs64(int64(s.Total-med)) < abs64(int64(best.Total-med)) {
			best = s
		}
	}
	return med, best.PCIeFraction()
}

func extractTotals(samples []LoopbackSample) []sim.Time {
	out := make([]sim.Time, len(samples))
	for i, s := range samples {
		out[i] = s.Total
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
