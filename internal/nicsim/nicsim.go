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

// The ExaNIC-style loopback calibration behind Figure 2.
const (
	// pioChunk is the write-combining buffer size: the CPU's frame
	// write reaches the device as pioChunk-byte MWr TLPs.
	pioChunk = 64
	// pioInterval is the rate at which the core's write-combining
	// buffers drain to the uncore; one 64B WC flush leaves roughly
	// every ~55-65 ns, which dominates large-frame TX and is itself
	// part of the PCIe contribution.
	pioInterval = 55 * sim.Nanosecond
	// pioFixed is the core-to-uncore posting latency of the first
	// write-combining flush (PCIe-side).
	pioFixed = 220 * sim.Nanosecond
	// macFixed is the fixed non-PCIe NIC path: MAC, PHY and loopback
	// plumbing in the device.
	macFixed = 80 * sim.Nanosecond
	// macPerByte is the per-byte non-PCIe cost (cut-through wire
	// serialization and partial buffering at 10G): 0.33 ns/B.
	macPerByte = 330 * sim.Picosecond
	// descBytes is the RX descriptor written back with each frame.
	descBytes = 16
	// pollGranularity is how often the polling CPU re-checks the ring.
	pollGranularity = 10 * sim.Nanosecond
)

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
func Loopback(complex *rc.RootComplex, ringDMA uint64, sz, count int) ([]LoopbackSample, error) {
	if sz <= 0 || count <= 0 {
		return nil, fmt.Errorf("nicsim: bad loopback params sz=%d count=%d", sz, count)
	}
	samples := make([]LoopbackSample, 0, count)
	at := sim.Time(0)
	for i := 0; i < count; i++ {
		start := at

		// TX: the CPU writes the frame through write-combining PIO.
		// Each chunk leaves the core pioInterval apart and crosses the
		// link as an MWr TLP; the frame is complete at the device when
		// the last chunk lands.
		var txDone sim.Time
		issued := start + pioFixed
		for off := 0; off < sz; off += pioChunk {
			n := pioChunk
			if sz-off < n {
				n = sz - off
			}
			arrive := complex.MMIOWrite(issued, n)
			if arrive > txDone {
				txDone = arrive
			}
			issued += pioInterval
		}

		// NIC: MAC/PHY out, loopback, MAC/PHY in (non-PCIe).
		macTime := macFixed + macPerByte*sim.Time(sz)
		rxReady := txDone + macTime

		// RX: the NIC DMA-writes the frame and its descriptor; the
		// polling application sees the frame once the descriptor write
		// is globally visible, plus poll granularity.
		frame, err := complex.DMAWrite(rxReady, ringDMA, sz)
		if err != nil {
			return nil, err
		}
		desc, err := complex.DMAWrite(frame.LinkDone, ringDMA+uint64(sz), descBytes)
		if err != nil {
			return nil, err
		}
		visible := desc.MemDone
		if frame.MemDone > visible {
			visible = frame.MemDone
		}
		end := visible + pollGranularity

		// The write-combining drain and the link crossing are both
		// PCIe-side, so only the MAC time is non-PCIe.
		s := LoopbackSample{
			Total:   end - start,
			NonPCIe: macTime,
			PCIe:    (end - start) - macTime,
		}
		samples = append(samples, s)
		// Space frames out so runs are independent.
		at = end + 1*sim.Microsecond
	}
	return samples, nil
}

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
