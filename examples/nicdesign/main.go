// nicdesign shows the paper's "assess design alternatives" use case
// (§3, §7): express a custom NIC/driver design as its per-packet PCIe
// transactions, evaluate it with the analytical model, then check the
// winning design against the discrete-event simulator.
//
// The scenario: a programmable-NIC team wants 40Gb/s line rate at 256B
// packets and iterates on descriptor batching to get there.
//
// Run with: go run ./examples/nicdesign
package main

import (
	"fmt"
	"log"

	"pciebench/internal/hostif"
	"pciebench/internal/mem"
	"pciebench/internal/model"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
	"pciebench/internal/workload"
)

func main() {
	cfg := pcie.DefaultGen3x8()
	const pktSz = 256
	target := model.EthernetLineRate(40e9, pktSz) / 1e9

	fmt.Printf("Goal: 40G line rate at %dB packets = %.2f Gb/s payload\n\n", pktSz, target)

	// Iterate through design alternatives, varying TX descriptor batch
	// size. Everything else follows the modern kernel-driver design.
	designs := []struct {
		name  string
		batch int
	}{
		{"per-packet descriptors", 1},
		{"batch of 4", 4},
		{"batch of 8", 8},
		{"batch of 40 (Niantic-style)", 40},
	}
	mk := func(batch int) model.NIC {
		return model.NIC{
			Name: fmt.Sprintf("batch-%d", batch),
			TX: []model.Interaction{
				{Name: "doorbell", Kind: model.MMIOWrite, Bytes: 4, PerPackets: float64(batch)},
				{Name: "desc fetch", Kind: model.DMARead, Bytes: 16 * batch, PerPackets: float64(batch)},
				{Name: "desc write-back", Kind: model.DMAWrite, Bytes: 16 * batch, PerPackets: float64(batch)},
			},
			RX: []model.Interaction{
				{Name: "freelist doorbell", Kind: model.MMIOWrite, Bytes: 4, PerPackets: float64(batch)},
				{Name: "freelist fetch", Kind: model.DMARead, Bytes: 16 * batch, PerPackets: float64(batch)},
				{Name: "rx desc write-back", Kind: model.DMAWrite, Bytes: 16 * batch, PerPackets: float64(batch)},
			},
		}
	}

	var winner model.NIC
	fmt.Println("Analytical model (instant):")
	for _, d := range designs {
		nic := mk(d.batch)
		bw := nic.Bandwidth(cfg, pktSz) / 1e9
		verdict := "below line rate"
		if bw >= target {
			verdict = "MEETS line rate"
			if winner.Name == "" {
				winner = nic
			}
		}
		fmt.Printf("  %-28s %6.2f Gb/s  %s\n", d.name, bw, verdict)
	}
	if winner.Name == "" {
		winner = mk(40)
	}

	// Validate the chosen design end-to-end on the simulator, where
	// latency, the root-complex pipeline and cache effects all apply.
	fmt.Printf("\nValidating %q on the discrete-event simulator...\n", winner.Name)
	k := sim.New(1)
	ms, err := mem.NewSystem(mem.Config{
		Nodes:       1,
		Cache:       mem.CacheConfig{SizeBytes: 15 << 20, Ways: 20, LineSize: 64, DDIOWays: 2},
		LLCLatency:  50 * sim.Nanosecond,
		DRAMLatency: 120 * sim.Nanosecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	host := hostif.New(ms, nil)
	complex, err := rc.New(k, rc.Config{
		Link: cfg, PipeLatency: 100 * sim.Nanosecond, PipeSlots: 24,
		WireDelay: 120 * sim.Nanosecond,
	}, ms, nil, host)
	if err != nil {
		log.Fatal(err)
	}
	buf, err := host.Alloc(4<<20, 0, hostif.Chunked4M, 0)
	if err != nil {
		log.Fatal(err)
	}
	buf.WarmHost(0, 64<<10)
	// One queue of fixed-size packets, arriving as fast as the NIC
	// can take them, with up to 64 packet pairs in flight.
	res, err := workload.Run(k, complex, buf.DMAAddr(0), workload.Config{
		Queues: 1, Window: 64, Design: winner,
		Sizes: workload.FixedSize(pktSz), Arrival: workload.Saturate(),
	}, 20000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated: %.2f Gb/s per direction (%.2fM pkt/s)\n",
		res.GbpsPerDirection, res.PPS/1e6)
	if res.GbpsPerDirection >= target {
		fmt.Println("  -> design holds up under simulation.")
	} else {
		fmt.Println("  -> simulation disagrees with the model; revisit latency budget.")
	}
}
