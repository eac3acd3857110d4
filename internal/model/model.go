// Package model implements the paper's analytical PCIe model (§3): the
// effective bandwidth of a link as a function of transfer size, and the
// achievable throughput of NIC/driver designs expressed as per-packet
// PCIe transaction lists.
//
// Everything here is closed-form arithmetic over the wire-size
// accounting in internal/pcie; no simulation is involved. A sweep cell
// with model=true reports these values for its link and NIC design
// (internal/sweep), so one grid can set model and simulator side by
// side; the workload and nicsim tests hold simulated throughput to
// them within a tolerance.
package model

import (
	"fmt"

	"pciebench/internal/pcie"
)

// EffectiveWriteBandwidth returns the payload throughput in bits/s of a
// device issuing back-to-back DMA writes of sz bytes (Equation 1
// applied to the device→host direction).
func EffectiveWriteBandwidth(cfg pcie.LinkConfig, sz int) float64 {
	if sz <= 0 {
		return 0
	}
	wire := cfg.WriteBytes(sz)
	return cfg.TLPBandwidth() * float64(sz) / float64(wire)
}

// EffectiveReadBandwidth returns the payload throughput in bits/s of
// back-to-back DMA reads of sz bytes. The host→device direction carries
// the completions (Equation 3); the device→host direction carries only
// the requests, so completions bind.
func EffectiveReadBandwidth(cfg pcie.LinkConfig, sz int) float64 {
	if sz <= 0 {
		return 0
	}
	down := cfg.ReadCompletionBytes(sz)
	return cfg.TLPBandwidth() * float64(sz) / float64(down)
}

// EffectiveBidirBandwidth returns the per-direction payload throughput
// in bits/s when the device simultaneously reads and writes sz-byte
// transfers (one read plus one write per "packet pair", as a
// full-duplex NIC would). The device→host direction carries write data
// and read requests; the host→device direction carries read
// completions. This is the "Effective PCIe BW" curve of Figure 1.
func EffectiveBidirBandwidth(cfg pcie.LinkConfig, sz int) float64 {
	if sz <= 0 {
		return 0
	}
	up := cfg.WriteBytes(sz) + cfg.ReadRequestBytes(sz)
	down := cfg.ReadCompletionBytes(sz)
	pairRate := cfg.TLPBandwidth() / 8 / float64(max(up, down)) // pairs per second
	return pairRate * float64(sz) * 8
}

// Ethernet framing overhead per frame: 7B preamble + 1B SFD + 12B
// minimum inter-frame gap. The 4B FCS is part of the frame size.
const ethernetOverhead = 20

// EthernetLineRate returns the payload throughput in bits/s of an
// Ethernet link running at linkRate bits/s carrying back-to-back frames
// of frameSz bytes (the "40G Ethernet" reference line of Figures 1/4).
func EthernetLineRate(linkRate float64, frameSz int) float64 {
	if frameSz < 64 {
		frameSz = 64 // minimum frame, padded
	}
	return linkRate * float64(frameSz) / float64(frameSz+ethernetOverhead)
}

// Direction of a PCIe transaction's initiator.
type Direction int

// Transaction kinds a NIC/driver interaction can use.
const (
	// DMARead: device reads host memory (descriptor fetch, TX packet).
	DMARead = iota
	// DMAWrite: device writes host memory (RX packet, descriptor
	// write-back, MSI interrupt).
	DMAWrite
	// MMIOWrite: driver writes a device register (doorbell/pointer).
	MMIOWrite
	// MMIORead: driver reads a device register (head pointer).
	MMIORead
)

// Role classifies an interaction by the ring mechanism it implements,
// so workload-level knobs (doorbell batching, interrupt moderation,
// descriptor-batch tuning) can retarget the right transactions without
// matching on names. RoleOther interactions are never rewritten.
type Role int

// Interaction roles.
const (
	// RoleOther marks design-specific interactions no generic knob
	// should touch.
	RoleOther Role = iota
	// RoleDoorbell: driver MMIO writes of ring tail pointers.
	RoleDoorbell
	// RoleDescFetch: device DMA reads of TX/freelist descriptors.
	RoleDescFetch
	// RoleWriteBack: device DMA writes of completion descriptors.
	RoleWriteBack
	// RoleInterrupt: MSI/MSI-X interrupt writes.
	RoleInterrupt
	// RoleHeadRead: driver MMIO reads of device head pointers (the
	// register reads poll-mode drivers avoid).
	RoleHeadRead
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleDoorbell:
		return "doorbell"
	case RoleDescFetch:
		return "desc-fetch"
	case RoleWriteBack:
		return "write-back"
	case RoleInterrupt:
		return "interrupt"
	case RoleHeadRead:
		return "head-read"
	}
	return "other"
}

// Interaction is one device/driver PCIe transaction associated with
// packet processing, amortized over PerPackets packets (batching).
type Interaction struct {
	Name  string
	Kind  int
	Bytes int
	// PerPackets is the amortization factor: the interaction occurs
	// once every PerPackets packets (1 = per packet, 40 = per batch of
	// 40). Must be >= 1.
	PerPackets float64
	// Role classifies the interaction for workload-level batching and
	// moderation knobs.
	Role Role
}

// wireBytes returns the (up, down) wire bytes of one occurrence.
func (ia Interaction) wireBytes(cfg pcie.LinkConfig) (up, down float64) {
	switch ia.Kind {
	case DMARead:
		return float64(cfg.ReadRequestBytes(ia.Bytes)), float64(cfg.ReadCompletionBytes(ia.Bytes))
	case DMAWrite:
		return float64(cfg.WriteBytes(ia.Bytes)), 0
	case MMIOWrite:
		return 0, float64(cfg.WriteBytes(ia.Bytes))
	case MMIORead:
		return float64(cfg.ReadCompletionBytes(ia.Bytes)), float64(cfg.ReadRequestBytes(ia.Bytes))
	}
	return 0, 0
}

// NIC is a NIC/driver design expressed as the per-packet PCIe
// transactions beyond the packet payload transfers themselves.
type NIC struct {
	Name string
	// TX lists the per-TX-packet interactions (besides the payload DMA
	// read).
	TX []Interaction
	// RX lists the per-RX-packet interactions (besides the payload DMA
	// write).
	RX []Interaction
}

// PerPacketWireBytes returns the total (up, down) wire bytes consumed
// per full-duplex packet pair (one TX + one RX of pktSz bytes),
// including payload transfers and all amortized interactions.
func (n NIC) PerPacketWireBytes(cfg pcie.LinkConfig, pktSz int) (up, down float64) {
	// Payload: TX is a DMA read, RX is a DMA write.
	up += float64(cfg.ReadRequestBytes(pktSz))
	down += float64(cfg.ReadCompletionBytes(pktSz))
	up += float64(cfg.WriteBytes(pktSz))
	for _, ia := range n.TX {
		u, d := ia.wireBytes(cfg)
		up += u / ia.PerPackets
		down += d / ia.PerPackets
	}
	for _, ia := range n.RX {
		u, d := ia.wireBytes(cfg)
		up += u / ia.PerPackets
		down += d / ia.PerPackets
	}
	return up, down
}

// Bandwidth returns the per-direction payload throughput in bits/s the
// design achieves for pktSz-byte packets: the packet-pair rate is bound
// by the busier link direction.
func (n NIC) Bandwidth(cfg pcie.LinkConfig, pktSz int) float64 {
	return n.PacketRate(cfg, pktSz) * float64(pktSz) * 8
}

// PacketRate returns full-duplex packet pairs per second for pktSz.
func (n NIC) PacketRate(cfg pcie.LinkConfig, pktSz int) float64 {
	if pktSz <= 0 {
		return 0
	}
	up, down := n.PerPacketWireBytes(cfg, pktSz)
	return cfg.TLPBandwidth() / 8 / max(up, down)
}

// Descriptor and doorbell sizes used by the models (paper §3).
const (
	descBytes    = 16
	pointerBytes = 4
)

// SimpleNIC is the paper's strawman: one descriptor DMA per packet,
// per-packet doorbells, interrupts, and head-pointer reads (§3).
func SimpleNIC() NIC {
	return NIC{
		Name: "Simple NIC",
		TX: []Interaction{
			{"tail pointer write", MMIOWrite, pointerBytes, 1, RoleDoorbell},
			{"descriptor fetch", DMARead, descBytes, 1, RoleDescFetch},
			{"interrupt", DMAWrite, pointerBytes, 1, RoleInterrupt},
			{"head pointer read", MMIORead, pointerBytes, 1, RoleHeadRead},
		},
		RX: []Interaction{
			{"freelist tail write", MMIOWrite, pointerBytes, 1, RoleDoorbell},
			{"freelist descriptor fetch", DMARead, descBytes, 1, RoleDescFetch},
			{"RX descriptor write-back", DMAWrite, descBytes, 1, RoleWriteBack},
			{"interrupt", DMAWrite, pointerBytes, 1, RoleInterrupt},
			{"head pointer read", MMIORead, pointerBytes, 1, RoleHeadRead},
		},
	}
}

// Batching factors of the modern-NIC models, patterned on the Intel
// 82599 (Niantic): descriptor fetches in batches of up to 40,
// write-backs in batches of 8, interrupt moderation (§3).
const (
	descFetchBatch = 40
	writeBackBatch = 8
	intrModeration = 40
)

// ModernNICKernel models an optimized NIC with a conventional kernel
// driver: batched descriptor fetches and write-backs, moderated
// interrupts, amortized doorbells, but the driver still reads device
// registers and takes interrupts.
func ModernNICKernel() NIC {
	return NIC{
		Name: "Modern NIC (kernel driver)",
		TX: []Interaction{
			{"tail pointer write", MMIOWrite, pointerBytes, descFetchBatch, RoleDoorbell},
			{"descriptor batch fetch", DMARead, descBytes * descFetchBatch, descFetchBatch, RoleDescFetch},
			{"descriptor write-back", DMAWrite, descBytes * writeBackBatch, writeBackBatch, RoleWriteBack},
			{"interrupt", DMAWrite, pointerBytes, intrModeration, RoleInterrupt},
			{"head pointer read", MMIORead, pointerBytes, intrModeration, RoleHeadRead},
		},
		RX: []Interaction{
			{"freelist tail write", MMIOWrite, pointerBytes, descFetchBatch, RoleDoorbell},
			{"freelist batch fetch", DMARead, descBytes * descFetchBatch, descFetchBatch, RoleDescFetch},
			{"RX descriptor write-back", DMAWrite, descBytes * writeBackBatch, writeBackBatch, RoleWriteBack},
			{"interrupt", DMAWrite, pointerBytes, intrModeration, RoleInterrupt},
			{"head pointer read", MMIORead, pointerBytes, intrModeration, RoleHeadRead},
		},
	}
}

// ModernNICDPDK models the same NIC driven by a DPDK-style poll-mode
// driver: no interrupts and no device register reads — the driver polls
// the write-back descriptors in host memory instead (§3 footnote 6).
func ModernNICDPDK() NIC {
	return NIC{
		Name: "Modern NIC (DPDK driver)",
		TX: []Interaction{
			{"tail pointer write", MMIOWrite, pointerBytes, descFetchBatch, RoleDoorbell},
			{"descriptor batch fetch", DMARead, descBytes * descFetchBatch, descFetchBatch, RoleDescFetch},
			{"descriptor write-back", DMAWrite, descBytes * writeBackBatch, writeBackBatch, RoleWriteBack},
		},
		RX: []Interaction{
			{"freelist tail write", MMIOWrite, pointerBytes, descFetchBatch, RoleDoorbell},
			{"freelist batch fetch", DMARead, descBytes * descFetchBatch, descFetchBatch, RoleDescFetch},
			{"RX descriptor write-back", DMAWrite, descBytes * writeBackBatch, writeBackBatch, RoleWriteBack},
		},
	}
}

// Validate reports interaction-list errors (zero amortization would
// divide by zero).
func (n NIC) Validate() error {
	for _, list := range [][]Interaction{n.TX, n.RX} {
		for _, ia := range list {
			if ia.PerPackets < 1 {
				return fmt.Errorf("model: %s: interaction %q PerPackets %v < 1", n.Name, ia.Name, ia.PerPackets)
			}
			if ia.Bytes <= 0 {
				return fmt.Errorf("model: %s: interaction %q has no bytes", n.Name, ia.Name)
			}
		}
	}
	return nil
}
