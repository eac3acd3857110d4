// Package pciebench's top-level benchmarks regenerate each table and
// figure of the paper's evaluation as a testing.B target, reporting the
// headline metric of the artifact via b.ReportMetric. Each benchmark is
// named after the figure, table or ablation it regenerates.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package pciebench

import (
	"math/rand"
	"testing"

	"pciebench/internal/bench"
	"pciebench/internal/hostif"
	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/model"
	"pciebench/internal/nicsim"
	"pciebench/internal/pcie"
	"pciebench/internal/report"
	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/tlp"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// mustBuild assembles a system or fails the benchmark.
func mustBuild(b *testing.B, name string, opt sysconf.Options) *sysconf.Instance {
	b.Helper()
	sys, err := sysconf.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sys.Build(opt)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkFig1_NICModels evaluates the analytical Figure 1 curves
// (effective PCIe bandwidth and the three NIC/driver designs) across
// the full transfer-size sweep.
func BenchmarkFig1_NICModels(b *testing.B) {
	cfg := pcie.DefaultGen3x8()
	designs := []model.NIC{model.SimpleNIC(), model.ModernNICKernel(), model.ModernNICDPDK()}
	var last float64
	for i := 0; i < b.N; i++ {
		for sz := 64; sz <= 1520; sz += 16 {
			last = model.EffectiveBidirBandwidth(cfg, sz)
			for _, d := range designs {
				last += d.Bandwidth(cfg, sz)
			}
		}
	}
	b.ReportMetric(model.EffectiveBidirBandwidth(cfg, 1520)/1e9, "Gb/s@1520")
	_ = last
}

// BenchmarkFig2_LoopbackLatency measures the ExaNIC-style loopback
// round trip for 128B frames and reports the median and PCIe share.
func BenchmarkFig2_LoopbackLatency(b *testing.B) {
	inst := mustBuild(b, "NFP6000-HSW", sysconf.Options{BufferSize: 1 << 20, NoJitter: true})
	inst.Buffer.WarmHost(0, 64<<10)
	var med sim.Time
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := nicsim.Loopback(inst.RC, inst.Buffer.DMAAddr(0), 128, 16)
		if err != nil {
			b.Fatal(err)
		}
		med, frac = nicsim.MedianLoopback(samples)
	}
	b.ReportMetric(med.Nanoseconds(), "ns/roundtrip")
	b.ReportMetric(frac*100, "%PCIe")
}

// BenchmarkTable1_Systems assembles all six Table 1 systems.
func BenchmarkTable1_Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range sysconf.Systems() {
			if _, err := s.Build(sysconf.Options{BufferSize: 1 << 20}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(sysconf.Systems())), "systems")
}

// benchBandwidth runs one Figure 4 bandwidth point per iteration.
func benchBandwidth(b *testing.B, run func(*bench.Target, bench.Params) (*bench.BandwidthResult, error), sz int) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		inst := mustBuild(b, "NFP6000-HSW", sysconf.Options{BufferSize: 1 << 20, NoJitter: true})
		res, err := run(inst.Target(), bench.Params{
			WindowSize: 8 << 10, TransferSize: sz,
			Cache: bench.HostWarm, Transactions: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
		gbps = res.Gbps
	}
	b.ReportMetric(gbps, "Gb/s")
}

// BenchmarkFig4a_ReadBandwidth regenerates the 64B BW_RD point of
// Figure 4a (paper: ~30 Gb/s on NFP6000-HSW).
func BenchmarkFig4a_ReadBandwidth(b *testing.B) { benchBandwidth(b, bench.BwRd, 64) }

// BenchmarkFig4b_WriteBandwidth regenerates the 64B BW_WR point of
// Figure 4b.
func BenchmarkFig4b_WriteBandwidth(b *testing.B) { benchBandwidth(b, bench.BwWr, 64) }

// BenchmarkFig4c_ReadWriteBandwidth regenerates the 512B BW_RDWR point
// of Figure 4c.
func BenchmarkFig4c_ReadWriteBandwidth(b *testing.B) { benchBandwidth(b, bench.BwRdWr, 512) }

// BenchmarkFig5_LatencyVsSize regenerates the Figure 5 median LAT_RD
// at 64B and 2048B on the NFP, reporting both.
func BenchmarkFig5_LatencyVsSize(b *testing.B) {
	var m64, m2048 float64
	for i := 0; i < b.N; i++ {
		for _, sz := range []int{64, 2048} {
			inst := mustBuild(b, "NFP6000-HSW", sysconf.Options{BufferSize: 1 << 20, NoJitter: true})
			res, err := bench.LatRd(inst.Target(), bench.Params{
				WindowSize: 8 << 10, TransferSize: sz,
				Cache: bench.HostWarm, Transactions: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if sz == 64 {
				m64 = res.Summary.Median
			} else {
				m2048 = res.Summary.Median
			}
		}
	}
	b.ReportMetric(m64, "ns@64B")
	b.ReportMetric(m2048, "ns@2048B")
}

// BenchmarkFig6_LatencyCDF regenerates the Figure 6 E3 tail and
// reports its median and p99.
func BenchmarkFig6_LatencyCDF(b *testing.B) {
	var med, p99 float64
	for i := 0; i < b.N; i++ {
		inst := mustBuild(b, "NFP6000-HSW-E3", sysconf.Options{BufferSize: 1 << 20, Seed: 17})
		res, err := bench.LatRd(inst.Target(), bench.Params{
			WindowSize: 8 << 10, TransferSize: 64,
			Cache: bench.HostWarm, Transactions: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
		med, p99 = res.Summary.Median, res.Summary.P99
	}
	b.ReportMetric(med, "ns-median")
	b.ReportMetric(p99, "ns-p99")
}

// BenchmarkFig7a_CacheLatency regenerates the Figure 7a warm-vs-cold
// 8B read latency delta inside the LLC.
func BenchmarkFig7a_CacheLatency(b *testing.B) {
	var warm, cold float64
	for i := 0; i < b.N; i++ {
		for _, cache := range []bench.CacheState{bench.HostWarm, bench.Cold} {
			inst := mustBuild(b, "NFP6000-SNB", sysconf.Options{BufferSize: 1 << 20, NoJitter: true})
			res, err := bench.LatRd(inst.Target(), bench.Params{
				WindowSize: 64 << 10, TransferSize: 8, Direct: true,
				Cache: cache, Transactions: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if cache == bench.HostWarm {
				warm = res.Summary.Median
			} else {
				cold = res.Summary.Median
			}
		}
	}
	b.ReportMetric(cold-warm, "ns-warm-benefit")
}

// BenchmarkFig7b_CacheBandwidth regenerates the Figure 7b 64B warm/cold
// read-bandwidth pair inside the LLC.
func BenchmarkFig7b_CacheBandwidth(b *testing.B) {
	var warm, cold float64
	for i := 0; i < b.N; i++ {
		for _, cache := range []bench.CacheState{bench.HostWarm, bench.Cold} {
			inst := mustBuild(b, "NFP6000-SNB", sysconf.Options{BufferSize: 4 << 20, NoJitter: true})
			res, err := bench.BwRd(inst.Target(), bench.Params{
				WindowSize: 1 << 20, TransferSize: 64,
				Cache: cache, Transactions: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if cache == bench.HostWarm {
				warm = res.Gbps
			} else {
				cold = res.Gbps
			}
		}
	}
	b.ReportMetric(warm, "Gb/s-warm")
	b.ReportMetric(cold, "Gb/s-cold")
}

// BenchmarkFig8_NUMA regenerates the Figure 8 64B local-vs-remote
// bandwidth comparison inside the cache window.
func BenchmarkFig8_NUMA(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		run := func(node int) float64 {
			inst := mustBuild(b, "NFP6000-BDW", sysconf.Options{NoJitter: true, BufferNode: node})
			res, err := bench.BwRd(inst.Target(), bench.Params{
				WindowSize: 64 << 10, TransferSize: 64,
				Cache: bench.HostWarm, Transactions: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Gbps
		}
		local, remote := run(0), run(1)
		pct = 100 * (remote - local) / local
	}
	b.ReportMetric(pct, "%remote-penalty")
}

// BenchmarkFig9_IOMMU regenerates the Figure 9 64B IOMMU cliff: the
// bandwidth change beyond the IO-TLB reach.
func BenchmarkFig9_IOMMU(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		run := func(on bool) float64 {
			inst := mustBuild(b, "NFP6000-BDW", sysconf.Options{NoJitter: true, IOMMU: on})
			res, err := bench.BwRd(inst.Target(), bench.Params{
				WindowSize: 16 << 20, TransferSize: 64,
				Cache: bench.HostWarm, Transactions: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Gbps
		}
		off, on := run(false), run(true)
		pct = 100 * (on - off) / off
	}
	b.ReportMetric(pct, "%iommu-change")
}

// BenchmarkTable2_Findings derives the Table 2 findings end to end,
// measuring Figs 8 and 9 afresh on every iteration.
func BenchmarkTable2_Findings(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := report.Table2(report.NewFigures(report.Quick))
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "findings")
}

// ---- Ablation benchmarks: one mechanism varied at a time ----

// BenchmarkAblation_MPS quantifies how the negotiated Maximum Payload
// Size changes effective bidirectional bandwidth at 1500B.
func BenchmarkAblation_MPS(b *testing.B) {
	var out []float64
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, mps := range []int{128, 256, 512} {
			cfg := pcie.DefaultGen3x8()
			cfg.MPS = mps
			out = append(out, model.EffectiveBidirBandwidth(cfg, 1500)/1e9)
		}
	}
	b.ReportMetric(out[0], "Gb/s-mps128")
	b.ReportMetric(out[2], "Gb/s-mps512")
}

// BenchmarkAblation_LinkGeneration projects the paper's headline
// numbers onto Gen4 (the "once hardware is available" note in §6).
func BenchmarkAblation_LinkGeneration(b *testing.B) {
	var g3, g4 float64
	for i := 0; i < b.N; i++ {
		cfg := pcie.DefaultGen3x8()
		g3 = model.EffectiveBidirBandwidth(cfg, 1500) / 1e9
		cfg.Gen = pcie.Gen4
		g4 = model.EffectiveBidirBandwidth(cfg, 1500) / 1e9
	}
	b.ReportMetric(g3, "Gb/s-gen3")
	b.ReportMetric(g4, "Gb/s-gen4")
}

// BenchmarkAblation_IOMMUWalkers shows how the page-walker pool size
// (the Fig 9 mechanism) moves the 64B post-cliff bandwidth.
func BenchmarkAblation_IOMMUWalkers(b *testing.B) {
	var w1, w6 float64
	for i := 0; i < b.N; i++ {
		run := func(walkers int) float64 {
			inst := mustBuild(b, "NFP6000-BDW", sysconf.Options{
				NoJitter: true, IOMMU: true, IOMMUWalkers: walkers,
			})
			res, err := bench.BwRd(inst.Target(), bench.Params{
				WindowSize: 16 << 20, TransferSize: 64,
				Cache: bench.HostWarm, Transactions: 10000,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Gbps
		}
		w1, w6 = run(1), run(6)
	}
	b.ReportMetric(w1, "Gb/s-1walker")
	b.ReportMetric(w6, "Gb/s-6walkers")
}

// BenchmarkAblation_DDIOWays varies the DDIO allocation quota and
// reports the cold 8B write+read latency beyond the default region.
func BenchmarkAblation_DDIOWays(b *testing.B) {
	var narrow, wide float64
	for i := 0; i < b.N; i++ {
		run := func(ways int) float64 {
			sys, err := sysconf.ByName("NFP6000-SNB")
			if err != nil {
				b.Fatal(err)
			}
			sys.DDIOWays = ways
			inst, err := sys.Build(sysconf.Options{NoJitter: true})
			if err != nil {
				b.Fatal(err)
			}
			res, err := bench.LatWrRd(inst.Target(), bench.Params{
				WindowSize: 4 << 20, TransferSize: 8, Direct: true,
				Cache: bench.Cold, Transactions: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Summary.Median
		}
		narrow, wide = run(2), run(16)
	}
	b.ReportMetric(narrow, "ns-2ways")
	b.ReportMetric(wide, "ns-16ways")
}

// ---- Traffic-engine benchmarks (internal/workload) ----

// benchWorkload drives one traffic-engine scenario per iteration and
// reports the aggregate packet rate and the p99.9 completion latency.
func benchWorkload(b *testing.B, cfg workload.Config, pairs int) {
	var pps, p999 float64
	for i := 0; i < b.N; i++ {
		inst := mustBuild(b, "NFP6000-HSW", sysconf.Options{BufferSize: 4 << 20, NoJitter: true})
		inst.Buffer.WarmHost(0, cfg.Footprint())
		res, err := workload.Run(inst.Kernel, inst.RC, inst.Buffer.DMAAddr(0), cfg, pairs)
		if err != nil {
			b.Fatal(err)
		}
		pps, p999 = res.PPS, res.Latency.P999
	}
	b.ReportMetric(pps/1e6, "Mpps")
	b.ReportMetric(p999, "ns-p99.9")
}

// BenchmarkWorkload_MultiQueueIMIX saturates four queue pairs with
// IMIX traffic under the kernel-driver design.
func BenchmarkWorkload_MultiQueueIMIX(b *testing.B) {
	benchWorkload(b, workload.Config{
		Queues: 4, Window: 16, Sizes: workload.IMIX(), Seed: 37,
	}, 4000)
}

// BenchmarkWorkload_PoissonBursts offers 4Mpps of IMIX in 64-packet
// Poisson bursts across four queues: the open-loop path with software
// queueing, where the latency tail lives.
func BenchmarkWorkload_PoissonBursts(b *testing.B) {
	arr, err := workload.Poisson(4e6, 64)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkload(b, workload.Config{
		Queues: 4, Window: 8, Sizes: workload.IMIX(), Arrival: arr, Seed: 37,
	}, 4000)
}

// ---- Topology benchmarks (internal/topo) ----

// BenchmarkTopo_Contend4 saturates four NICs behind one Gen3 x8 switch
// uplink and reports the aggregate rate and the p99 inflation of
// sharing the link.
func BenchmarkTopo_Contend4(b *testing.B) {
	sys, err := sysconf.ByName("NFP6000-HSW")
	if err != nil {
		b.Fatal(err)
	}
	uplink := pcie.DefaultGen3x8()
	var pps, p99 float64
	for i := 0; i < b.N; i++ {
		fab, err := sys.Fabric(topo.Shape{Endpoints: 4, Switch: &uplink},
			sysconf.Options{BufferSize: 4 << 20, NoJitter: true})
		if err != nil {
			b.Fatal(err)
		}
		cfg := workload.Config{Seed: 37, BufferBytes: 4 << 20}
		paths := make([]workload.Path, len(fab.Endpoints))
		bases := make([]uint64, len(fab.Endpoints))
		for j, ep := range fab.Endpoints {
			ep.Buffer.WarmHost(0, cfg.Footprint())
			paths[j] = ep.Port
			bases[j] = ep.Buffer.DMAAddr(0)
		}
		res, err := workload.RunMulti(fab.Kernel, paths, bases, cfg, 1000)
		if err != nil {
			b.Fatal(err)
		}
		pps, p99 = res.PPS, res.Latency.P99
	}
	b.ReportMetric(pps/1e6, "Mpps")
	b.ReportMetric(p99, "ns-p99")
}

// fabricSpec derives a partitionable contention fabric from the BDW
// calibration: eight sockets, endpoints round-robined across them with
// socket-local buffers, so simWorkers > 1 splits the build into eight
// independent simulation islands.
func fabricSpec(b *testing.B, endpoints, simWorkers int) topo.Spec {
	b.Helper()
	const sockets = 8
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := sys.TopoSpec(
		topo.Shape{Endpoints: 2, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: 37, BufferSize: 1 << 20, NoJitter: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	spec.Mem.Nodes = sockets
	base := spec.Sockets[0]
	spec.Sockets = nil
	for i := 0; i < sockets; i++ {
		s := base
		s.Node = i
		spec.Sockets = append(spec.Sockets, s)
	}
	ep0 := spec.Endpoints[0]
	spec.Endpoints = nil
	for i := 0; i < endpoints; i++ {
		ep := ep0
		ep.Name = ""
		ep.Socket = i % sockets
		ep.BufferNode = i % sockets
		spec.Endpoints = append(spec.Endpoints, ep)
	}
	spec.SimWorkers = simWorkers
	return spec
}

// benchFabric builds the fabric with the timer stopped and times the
// traffic engine's run, so ns/op and allocs/op are the run phase
// alone. The serial and parallel variants below differ only in the
// simWorkers knob; their ns/op ratio is the island-parallel speedup
// on however many cores the host has.
func benchFabric(b *testing.B, endpoints, simWorkers, pairs int) {
	b.ReportAllocs()
	var pps float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fab, err := topo.Build(fabricSpec(b, endpoints, simWorkers))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := topo.RunWorkload(fab, workload.Config{Seed: 37, BufferBytes: 1 << 20}, pairs)
		if err != nil {
			b.Fatal(err)
		}
		pps = res.PPS
	}
	b.ReportMetric(pps/1e6, "Mpps")
	b.ReportMetric(float64(endpoints), "endpoints")
}

// BenchmarkFabricSerial is the reference: the contention fabrics
// simulated by the single shared event kernel.
func BenchmarkFabricSerial(b *testing.B) {
	b.Run("8ep", func(b *testing.B) { benchFabric(b, 8, 1, 400) })
	b.Run("64ep", func(b *testing.B) { benchFabric(b, 64, 1, 60) })
}

// BenchmarkFabricParallel partitions the same fabrics into eight
// islands run on up to four goroutines (simworkers=4); results are
// byte-identical to the serial runs.
func BenchmarkFabricParallel(b *testing.B) {
	b.Run("8ep", func(b *testing.B) { benchFabric(b, 8, 4, 400) })
	b.Run("64ep", func(b *testing.B) { benchFabric(b, 64, 4, 60) })
}

// benchFabricCoupled drives a coupled topology — every endpoint behind
// one shared gen3x8 switch, a single simulation island, so it always
// runs on one kernel. The build is untimed, as in benchFabric.
func benchFabricCoupled(b *testing.B, endpoints, pairs int) {
	b.ReportAllocs()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		b.Fatal(err)
	}
	uplink := pcie.DefaultGen3x8()
	var pps float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fab, err := sys.Fabric(topo.Shape{Endpoints: endpoints, Switch: &uplink},
			sysconf.Options{Seed: 37, BufferSize: 1 << 20, NoJitter: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := topo.RunWorkload(fab, workload.Config{Seed: 37, BufferBytes: 1 << 20}, pairs)
		if err != nil {
			b.Fatal(err)
		}
		pps = res.PPS
	}
	b.ReportMetric(pps/1e6, "Mpps")
	b.ReportMetric(float64(endpoints), "endpoints")
}

// BenchmarkFabricCoupledSerial is the coupled reference: the shared
// switch simulated inline on the one event kernel.
func BenchmarkFabricCoupledSerial(b *testing.B) {
	b.Run("8ep", func(b *testing.B) { benchFabricCoupled(b, 8, 400) })
	b.Run("64ep", func(b *testing.B) { benchFabricCoupled(b, 64, 60) })
}

// BenchmarkIOMMUTranslate pins the translation hot path at zero
// allocations per op: sorted-mapping binary search, IO-TLB index hit
// with an intrusive-LRU touch, and the miss path through the walker
// pool with a tail eviction.
func BenchmarkIOMMUTranslate(b *testing.B) {
	const (
		window = 16 << 20
		iova   = uint64(1) << 40
	)
	build := func(b *testing.B) *iommu.IOMMU {
		b.Helper()
		u := iommu.New(sim.New(1), iommu.DefaultConfig())
		for off := 0; off < window; off += 4 << 20 {
			if err := u.Map(iova+uint64(off), 1<<30+uint64(off), 4<<20, iommu.Page4K); err != nil {
				b.Fatal(err)
			}
		}
		return u
	}
	b.Run("hit", func(b *testing.B) {
		u := build(b)
		if _, err := u.Translate(0, iova); err != nil { // prime the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Translate(0, iova); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		u := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		// Stride 4K pages across a window far beyond the 64-entry
		// IO-TLB, so every translation misses and evicts the LRU tail.
		var off uint64
		for i := 0; i < b.N; i++ {
			if _, err := u.Translate(0, iova+off); err != nil {
				b.Fatal(err)
			}
			off = (off + iommu.Page4K) % window
		}
	})
}

// benchFabricIOMMU drives the split fabric with every DMA translated:
// per-socket scope gives each socket its own DRHD-style unit, so the
// fabric still partitions into islands, and the serial/parallel pair
// compares the run phase with translation in the hot path. The build
// is untimed, as in benchFabric.
func benchFabricIOMMU(b *testing.B, endpoints, simWorkers, pairs int) {
	b.ReportAllocs()
	var pps float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec := fabricSpec(b, endpoints, simWorkers)
		cfg := iommu.DefaultConfig()
		spec.IOMMU = &cfg
		spec.IOMMUScope = topo.IOMMUScopePerSocket
		fab, err := topo.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := topo.RunWorkload(fab, workload.Config{Seed: 37, BufferBytes: 1 << 20}, pairs)
		if err != nil {
			b.Fatal(err)
		}
		pps = res.PPS
	}
	b.ReportMetric(pps/1e6, "Mpps")
	b.ReportMetric(float64(endpoints), "endpoints")
}

// BenchmarkFabricIOMMUSerial is the translated reference: per-socket
// units on the single shared event kernel.
func BenchmarkFabricIOMMUSerial(b *testing.B) {
	b.Run("8ep", func(b *testing.B) { benchFabricIOMMU(b, 8, 1, 400) })
	b.Run("64ep", func(b *testing.B) { benchFabricIOMMU(b, 64, 1, 60) })
}

// BenchmarkFabricIOMMUParallel partitions the same translated fabrics
// (simworkers=4): each island's unit binds to that island's kernel, and
// results stay byte-identical to the serial runs.
func BenchmarkFabricIOMMUParallel(b *testing.B) {
	b.Run("8ep", func(b *testing.B) { benchFabricIOMMU(b, 8, 4, 400) })
	b.Run("64ep", func(b *testing.B) { benchFabricIOMMU(b, 64, 4, 60) })
}

// BenchmarkTopo_P2P compares device-to-device DMA against the bounce
// through host DRAM (512B transfers) and reports both medians.
func BenchmarkTopo_P2P(b *testing.B) {
	sys, err := sysconf.ByName("NFP6000-HSW")
	if err != nil {
		b.Fatal(err)
	}
	uplink := pcie.DefaultGen3x8()
	var direct, bounce float64
	for i := 0; i < b.N; i++ {
		run := func(mode string) float64 {
			fab, err := sys.Fabric(topo.Shape{Endpoints: 2, Switch: &uplink},
				sysconf.Options{BufferSize: 4 << 20, NoJitter: true})
			if err != nil {
				b.Fatal(err)
			}
			res, err := topo.RunP2P(fab, mode, 512, 400)
			if err != nil {
				b.Fatal(err)
			}
			return res.Latency.Median
		}
		direct, bounce = run(topo.P2PDirect), run(topo.P2PBounce)
	}
	b.ReportMetric(direct, "ns-direct")
	b.ReportMetric(bounce, "ns-bounce")
}

// ---- Hot-path micro-benchmarks ----

// BenchmarkTLPEncodeDecode measures the protocol tier's packet
// round-trip cost.
func BenchmarkTLPEncodeDecode(b *testing.B) {
	w := tlp.MemWrite{Addr: 0x1000, Data: make([]byte, 256), FirstBE: 0xF, LastBE: 0xF, Addr64: true}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = w.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		var out tlp.MemWrite
		if _, err := out.DecodeFromBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheDeviceAccess measures the LLC model's per-access cost,
// which bounds simulator throughput. One untimed pass over the 100000
// lines it walks allocates their pages first, so the timed loop is the
// steady state at any -benchtime.
func BenchmarkCacheDeviceAccess(b *testing.B) {
	c := mem.NewCache(mem.CacheConfig{SizeBytes: 15 << 20, Ways: 20, LineSize: 64, DDIOWays: 2})
	access := func(i int) {
		addr := uint64(i%100000) * 64
		if i%2 == 0 {
			c.DeviceWrite(addr, true)
		} else {
			c.DeviceRead(addr)
		}
	}
	for i := 0; i < 100000; i++ {
		access(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i)
	}
}

// bdwLLC is the LLC of the paper's Broadwell host (Table 1): 25 MB,
// 20 ways, two of them open to DDIO device writes.
var bdwLLC = mem.CacheConfig{SizeBytes: 25 << 20, Ways: 20, LineSize: 64, DDIOWays: 2}

// BenchmarkNewSystem measures assembling the two-socket Broadwell
// memory system, which every sysconf/topo build (one per sweep cell)
// pays: with the paged LLC it allocates page directories, not lines.
func BenchmarkNewSystem(b *testing.B) {
	cfg := mem.Config{
		Nodes: 2, Cache: bdwLLC,
		LLCLatency: 50 * sim.Nanosecond, DRAMLatency: 120 * sim.Nanosecond, RemoteLatency: 100 * sim.Nanosecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mem.NewSystem(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheRandomWindow measures 64 B device reads and writes at
// random lines of a host-warmed 16 MB window in the Broadwell LLC: the
// access pattern of the 16 MB IO-TLB and cold-write pcie-bench phases,
// which BenchmarkCacheDeviceAccess's sequential walk does not exercise.
func BenchmarkCacheRandomWindow(b *testing.B) {
	const window = 16 << 20
	c := mem.NewCache(bdwLLC)
	for a := uint64(0); a < window; a += 64 {
		c.HostTouch(a, true)
	}
	x := uint64(88172645463325252) // xorshift64 state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % (window / 64) * 64
		if i%2 == 0 {
			c.DeviceRead(addr)
		} else {
			c.DeviceWrite(addr, true)
		}
	}
}

// BenchmarkWarmHost measures what bench.Target.prepare does before a
// host-warm run of Fig 7's largest window: Thrash, then a 64 MB host
// warm through the NFP6000-BDW instance's buffer (sixteen 4 MB chunks
// into the 25 MB LLC). Once the first warm has allocated the LLC pages,
// a warm allocates nothing.
func BenchmarkWarmHost(b *testing.B) { benchWarm(b, (*hostif.Buffer).WarmHost) }

// BenchmarkWarmDevice is BenchmarkWarmHost for a device warm, which
// allocates through the two DDIO ways of each set.
func BenchmarkWarmDevice(b *testing.B) { benchWarm(b, (*hostif.Buffer).WarmDevice) }

func benchWarm(b *testing.B, warm func(buf *hostif.Buffer, off, size int)) {
	const window = 64 << 20
	inst := mustBuild(b, "NFP6000-BDW", sysconf.Options{})
	warm(inst.Buffer, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Host.Thrash()
		warm(inst.Buffer, 0, window)
	}
}

// BenchmarkSimulatedDMARate measures end-to-end simulated DMA
// throughput (simulated transactions per wall second). The steady-state
// loop — event kernel, DMA engine, root complex, cache model — is
// allocation-free, which ReportAllocs keeps visible.
func BenchmarkSimulatedDMARate(b *testing.B) {
	inst := mustBuild(b, "NFP6000-HSW", sysconf.Options{BufferSize: 1 << 20, NoJitter: true})
	b.ReportAllocs()
	b.ResetTimer()
	res, err := bench.BwRd(inst.Target(), bench.Params{
		WindowSize: 8 << 10, TransferSize: 64,
		Cache: bench.HostWarm, Transactions: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Gbps, "sim-Gb/s")
}

// kernelLoopHandler reschedules itself until its budget is spent; a
// pool of them keeps the event heap populated so the benchmark
// exercises real sift-up/sift-down paths, not a single-element queue.
type kernelLoopHandler struct {
	budget int
	stride sim.Time
}

// Handle burns one event and schedules the next.
func (h *kernelLoopHandler) Handle(k *sim.Kernel, a, b int64) {
	if h.budget <= 0 {
		return
	}
	h.budget--
	k.AfterEvent(h.stride, h, a, b)
}

// BenchmarkKernelEventLoop measures the typed-event kernel alone:
// schedule plus dispatch of one event through the 4-ary heap with 16
// events outstanding. It must report 0 allocs/op — the sim package's
// TestTypedEventLoopZeroAlloc asserts the same property as a test, so
// a regression fails CI rather than just skewing this number.
func BenchmarkKernelEventLoop(b *testing.B) {
	k := sim.New(1)
	const handlers = 16
	for i := 0; i < handlers; i++ {
		budget := b.N / handlers
		if i < b.N%handlers {
			budget++ // distribute the remainder so exactly b.N events run
		}
		h := &kernelLoopHandler{
			budget: budget,
			stride: sim.Time(7 + i), // co-prime-ish strides keep the heap shuffled
		}
		k.AfterEvent(sim.Time(i), h, int64(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkMultiServer measures one reservation on a 24-slot
// root-complex pipeline: FIFO arrivals 0–8 ns apart and 100–130 ns
// service times, both drawn from a fixed seeded table, so the arrivals
// slightly outrun the pipeline and every reservation queues. It must
// report 0 allocs/op.
func BenchmarkMultiServer(b *testing.B) {
	const table = 1024
	rng := rand.New(rand.NewSource(1))
	var gaps, service [table]sim.Time
	for i := range gaps {
		gaps[i] = sim.Time(rng.Int63n(int64(8*sim.Nanosecond) + 1))
		service[i] = 100*sim.Nanosecond + sim.Time(rng.Int63n(int64(30*sim.Nanosecond)+1))
	}
	s := sim.NewMultiServer(sim.New(1), 24)
	var at sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += gaps[i%table]
		s.ScheduleAt(at, service[i%table])
	}
}
