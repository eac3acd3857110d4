package workload_test

import (
	"fmt"

	"pciebench/internal/model"
	"pciebench/internal/pcie"
	"pciebench/internal/sysconf"
	"pciebench/internal/workload"
)

// Example_nicDesign is the paper's "assess design alternatives" use
// case (§3, §7): express a NIC/driver design as its per-packet PCIe
// transactions, evaluate the candidates with the analytical model, then
// check the first that meets line rate on the discrete-event simulator,
// where latency, the root-complex pipeline and the cache all apply. A
// programmable-NIC team wants 40 Gb/s line rate at 256 B packets and
// iterates on descriptor batching to get there.
func Example_nicDesign() {
	const pktSz = 256
	link := pcie.DefaultGen3x8()
	target := model.EthernetLineRate(40e9, pktSz) / 1e9
	fmt.Printf("goal: 40G line rate at %d B packets = %.2f Gb/s payload\n", pktSz, target)

	// Everything but the descriptor batch follows the kernel-driver
	// design.
	design := func(batch int) model.NIC {
		per := float64(batch)
		return model.NIC{
			Name: fmt.Sprintf("batch-%d", batch),
			TX: []model.Interaction{
				{Name: "doorbell", Kind: model.MMIOWrite, Bytes: 4, PerPackets: per},
				{Name: "desc fetch", Kind: model.DMARead, Bytes: 16 * batch, PerPackets: per},
				{Name: "desc write-back", Kind: model.DMAWrite, Bytes: 16 * batch, PerPackets: per},
			},
			RX: []model.Interaction{
				{Name: "freelist doorbell", Kind: model.MMIOWrite, Bytes: 4, PerPackets: per},
				{Name: "freelist fetch", Kind: model.DMARead, Bytes: 16 * batch, PerPackets: per},
				{Name: "rx desc write-back", Kind: model.DMAWrite, Bytes: 16 * batch, PerPackets: per},
			},
		}
	}
	var winner model.NIC
	for _, batch := range []int{1, 4, 8, 40} {
		nic := design(batch)
		bw := nic.Bandwidth(link, pktSz) / 1e9
		verdict := "below line rate"
		if bw >= target {
			verdict = "meets line rate"
			if winner.Name == "" {
				winner = nic
			}
		}
		fmt.Printf("model %-8s %6.2f Gb/s  %s\n", nic.Name, bw, verdict)
	}

	// One queue of fixed-size packets on the paper's Haswell system,
	// arriving as fast as the NIC takes them, up to 64 pairs in flight.
	sys, err := sysconf.ByName("NFP6000-HSW")
	if err != nil {
		panic(err)
	}
	inst, err := sys.Build(sysconf.Options{BufferSize: 4 << 20, NoJitter: true})
	if err != nil {
		panic(err)
	}
	cfg := workload.Config{
		Queues: 1, Window: 64, Design: winner,
		Sizes: workload.FixedSize(pktSz), Arrival: workload.Saturate(),
	}
	inst.Buffer.WarmHost(0, cfg.Footprint())
	res, err := workload.Run(inst.Kernel, inst.RC, inst.Buffer.DMAAddr(0), cfg, 20000)
	if err != nil {
		panic(err)
	}
	verdict := "holds up under simulation"
	if res.GbpsPerDirection < target {
		verdict = "falls short in simulation: revisit the latency budget"
	}
	fmt.Printf("simulated %s: %.2f Gb/s per direction (%.2fM pkt/s), %s\n",
		winner.Name, res.GbpsPerDirection, res.PPS/1e6, verdict)
	// Output:
	// goal: 40G line rate at 256 B packets = 37.10 Gb/s payload
	// model batch-1   34.36 Gb/s  below line rate
	// model batch-4   41.23 Gb/s  meets line rate
	// model batch-8   42.65 Gb/s  meets line rate
	// model batch-40  43.40 Gb/s  meets line rate
	// simulated batch-4: 41.21 Gb/s per direction (20.12M pkt/s), holds up under simulation
}
