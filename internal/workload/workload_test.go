package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pciebench/internal/hostif"
	"pciebench/internal/mem"
	"pciebench/internal/model"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// buildStack assembles the same Gen3 x8 Haswell-like stack the nicsim
// tests use.
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
	buf.WarmHost(0, 1<<20)
	return k, complex, buf
}

func mustRun(t *testing.T, cfg Config, pairs int) *Result {
	t.Helper()
	k, complex, buf := buildStack(t)
	res, err := Run(k, complex, buf.DMAAddr(0), cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunErrors(t *testing.T) {
	k, complex, buf := buildStack(t)
	if _, err := Run(k, complex, buf.DMAAddr(0), Config{}, 0); err == nil {
		t.Error("pairs 0 accepted")
	}
	if _, err := Run(k, complex, buf.DMAAddr(0), Config{Queues: 8, BufferBytes: 64 << 10}, 10); err == nil {
		t.Error("overflowing buffer accepted")
	}
	// Frame sizes outside [1, 9216] fail validation, before any
	// transaction runs, whichever distribution carries them.
	for _, sz := range []int{0, -5, maxFrame + 1, 128 << 10} {
		_, err := Run(k, complex, buf.DMAAddr(0), Config{Sizes: FixedSize(sz)}, 10)
		if want := fmt.Sprintf("frame size %d out of", sz); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("FixedSize(%d): err = %v, want %q", sz, err, want)
		}
	}
	bad := model.NIC{Name: "bad", TX: []model.Interaction{{Name: "x", Kind: model.DMARead, Bytes: 16}}}
	if _, err := Run(k, complex, buf.DMAAddr(0), Config{Design: bad}, 10); err == nil {
		t.Error("invalid design accepted")
	}
}

func TestSingleQueueMatchesAnalyticalModel(t *testing.T) {
	// The single-queue saturating fixed-size case is the old
	// nicsim.Throughput; it must still land within 15% of the
	// closed-form model at sizes where serialization dominates.
	link := pcie.DefaultGen3x8()
	design := model.ModernNICKernel()
	for _, sz := range []int{512, 1500} {
		res := mustRun(t, Config{
			Design: design, Sizes: FixedSize(sz), Window: 64,
		}, 3000)
		want := design.Bandwidth(link, sz) / 1e9
		rel := (res.GbpsPerDirection - want) / want
		if rel > 0.15 || rel < -0.15 {
			t.Errorf("%dB: simulated %.2f vs model %.2f Gb/s (%.1f%%)",
				sz, res.GbpsPerDirection, want, rel*100)
		}
	}
}

func TestMultiQueueAccounting(t *testing.T) {
	const pairs = 2000
	res := mustRun(t, Config{
		Queues: 4, Sizes: IMIX(), Window: 16, Seed: 11,
	}, pairs)
	if res.Pairs != pairs {
		t.Fatalf("Pairs = %d", res.Pairs)
	}
	var sumPairs int
	var sumPPS float64
	for _, q := range res.Queues {
		sumPairs += q.Pairs
		sumPPS += q.PPS
		if q.Pairs == 0 {
			t.Errorf("queue %d starved in closed loop", q.Queue)
		}
	}
	if sumPairs != pairs {
		t.Errorf("per-queue pairs sum %d != %d", sumPairs, pairs)
	}
	if math.Abs(sumPPS-res.PPS)/res.PPS > 1e-9 {
		t.Errorf("per-queue PPS sum %.0f != aggregate %.0f", sumPPS, res.PPS)
	}
	if res.Latency.N != pairs {
		t.Errorf("latency samples %d != %d", res.Latency.N, pairs)
	}
	if !(res.Latency.Median <= res.Latency.P99 && res.Latency.P99 <= res.Latency.P999) {
		t.Errorf("percentiles not monotone: %v", res.Latency)
	}
}

func TestMultiQueueSharesOneLink(t *testing.T) {
	// The link is the bottleneck under saturation: four queues cannot
	// beat one queue by more than scheduling slack, and must not lose
	// much either.
	one := mustRun(t, Config{Queues: 1, Sizes: FixedSize(512), Window: 64}, 3000)
	four := mustRun(t, Config{Queues: 4, Sizes: FixedSize(512), Window: 16}, 3000)
	rel := (four.PPS - one.PPS) / one.PPS
	if rel > 0.10 || rel < -0.10 {
		t.Errorf("4-queue PPS %.0f vs 1-queue %.0f (%.1f%%), want link-bound parity",
			four.PPS, one.PPS, rel*100)
	}
}

func TestOpenLoopUnderloadTracksOfferedRate(t *testing.T) {
	// At 20% of capacity the completion rate equals the offered rate
	// and queues never build.
	arr, err := FixedRate(1e6, 1) // 1 Mpps of 512B vs ~9 Mpps capacity
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{
		Queues: 2, Sizes: FixedSize(512), Arrival: arr, Window: 32, Seed: 5,
	}, 2000)
	if res.OfferedPPS != 1e6 {
		t.Errorf("OfferedPPS = %v", res.OfferedPPS)
	}
	rel := (res.PPS - 1e6) / 1e6
	if math.Abs(rel) > 0.05 {
		t.Errorf("PPS %.0f, want ~1M (%.1f%%)", res.PPS, rel*100)
	}
	// Unloaded: the tail stays near the median.
	if res.Latency.P99 > 3*res.Latency.Median {
		t.Errorf("unloaded tail blew up: p50 %.0f p99 %.0f", res.Latency.Median, res.Latency.P99)
	}
}

func TestOverloadBuildsLatencyTail(t *testing.T) {
	// Offering far more than the link can carry fills the windows and
	// the software queues: completion latency grows far beyond the
	// unloaded round trip while throughput caps at link capacity.
	arr, err := FixedRate(50e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	over := mustRun(t, Config{
		Queues: 2, Sizes: FixedSize(512), Arrival: arr, Window: 16, Seed: 5,
	}, 3000)
	sat := mustRun(t, Config{
		Queues: 2, Sizes: FixedSize(512), Window: 16,
	}, 3000)
	if over.PPS > sat.PPS*1.1 {
		t.Errorf("overload PPS %.0f exceeds saturation %.0f", over.PPS, sat.PPS)
	}
	if over.Latency.P999 < 4*sat.Latency.Median {
		t.Errorf("overload p99.9 %.0fns did not build a queueing tail (unloaded median %.0fns)",
			over.Latency.P999, sat.Latency.Median)
	}
}

func TestPoissonBurstsWidenTheTail(t *testing.T) {
	// At the same mean rate, bursty arrivals queue where smooth ones
	// do not: the burst run's p99.9 must exceed the smooth run's.
	smoothArr, err := FixedRate(4e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	burstArr, err := Poisson(4e6, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Queues: 2, Sizes: FixedSize(512), Window: 8, Seed: 9}
	smoothCfg, burstCfg := base, base
	smoothCfg.Arrival, burstCfg.Arrival = smoothArr, burstArr
	smooth := mustRun(t, smoothCfg, 4000)
	burst := mustRun(t, burstCfg, 4000)
	if burst.Latency.P999 <= smooth.Latency.P999 {
		t.Errorf("burst p99.9 %.0fns <= smooth p99.9 %.0fns",
			burst.Latency.P999, smooth.Latency.P999)
	}
}

func TestRSSSpreadsFlowsAcrossQueues(t *testing.T) {
	// Open-loop packets pick a flow from a large population; its hash
	// must spread work over every queue without gross imbalance.
	arr, err := FixedRate(2e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 4000
	res := mustRun(t, Config{
		Queues: 4, Flows: 1 << 20, Sizes: FixedSize(256), Arrival: arr, Seed: 21,
	}, pairs)
	for _, q := range res.Queues {
		frac := float64(q.Pairs) / pairs
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("queue %d got %.1f%% of packets, want ~25%%", q.Queue, frac*100)
		}
	}
}

func TestQueueOfUniform(t *testing.T) {
	counts := make([]int, 8)
	const flows = 1 << 16
	for f := 0; f < flows; f++ {
		counts[queueOf(uint64(f), 8)]++
	}
	for q, c := range counts {
		frac := float64(c) / flows
		if frac < 0.10 || frac > 0.15 {
			t.Errorf("queue %d gets %.3f of flows, want ~0.125", q, frac)
		}
	}
}

func TestModerationPollModeMatchesDPDKDesign(t *testing.T) {
	// Stripping interrupts and head reads from the kernel design must
	// reproduce the DPDK design's transaction mix exactly.
	polled := Moderation{IntrEvery: -1}.Apply(model.ModernNICKernel())
	dpdk := model.ModernNICDPDK()
	if len(polled.TX) != len(dpdk.TX) || len(polled.RX) != len(dpdk.RX) {
		t.Fatalf("poll mode kept %d/%d interactions, dpdk has %d/%d",
			len(polled.TX), len(polled.RX), len(dpdk.TX), len(dpdk.RX))
	}
	for i := range polled.TX {
		if polled.TX[i] != dpdk.TX[i] {
			t.Errorf("TX[%d] = %+v, want %+v", i, polled.TX[i], dpdk.TX[i])
		}
	}
}

func TestModerationRebatchesDescriptors(t *testing.T) {
	m := Moderation{DescBatch: 8, WriteBackBatch: 4, DoorbellBatch: 16, IntrEvery: 100}
	out := m.Apply(model.SimpleNIC())
	seen := map[model.Role]model.Interaction{}
	for _, ia := range append(out.TX, out.RX...) {
		seen[ia.Role] = ia
	}
	if ia := seen[model.RoleDescFetch]; ia.PerPackets != 8 || ia.Bytes != 16*8 {
		t.Errorf("desc fetch = %+v", ia)
	}
	if ia := seen[model.RoleWriteBack]; ia.PerPackets != 4 || ia.Bytes != 16*4 {
		t.Errorf("write-back = %+v", ia)
	}
	if ia := seen[model.RoleDoorbell]; ia.PerPackets != 16 {
		t.Errorf("doorbell = %+v", ia)
	}
	if ia := seen[model.RoleInterrupt]; ia.PerPackets != 100 {
		t.Errorf("interrupt = %+v", ia)
	}
	// Zero moderation is the identity.
	id := Moderation{}.Apply(model.SimpleNIC())
	if !reflect.DeepEqual(id, model.SimpleNIC()) {
		t.Error("zero moderation rewrote the design")
	}
}

func TestModerationLiftsSimpleNICThroughput(t *testing.T) {
	// Batching the simple NIC's per-packet descriptors and doorbells
	// must raise small-packet throughput, the paper's §3 argument.
	base := mustRun(t, Config{
		Design: model.SimpleNIC(), Sizes: FixedSize(64), Window: 64,
	}, 2000)
	batched := mustRun(t, Config{
		Design: model.SimpleNIC(), Sizes: FixedSize(64), Window: 64,
		Moderation: Moderation{DescBatch: 40, WriteBackBatch: 8, DoorbellBatch: 40, IntrEvery: 40},
	}, 2000)
	if batched.PPS <= base.PPS*1.2 {
		t.Errorf("batched %.0f pps vs per-packet %.0f pps, want > 20%% gain",
			batched.PPS, base.PPS)
	}
}

// Back-to-back runs on fresh stacks, closed and open loop, replay
// exactly; each run reseeds the generator the run before it returned
// to the pool.
func TestDeterministicReplay(t *testing.T) {
	arr, err := Poisson(3e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Queues: 3, Sizes: IMIX(), Arrival: Saturate(), Window: 8, Seed: 99},
		{Queues: 4, Flows: 1 << 16, Sizes: IMIX(), Arrival: arr, Window: 8, Seed: 99},
	} {
		a := mustRun(t, cfg, 1500)
		b := mustRun(t, cfg, 1500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical configs produced different results", cfg.Arrival)
		}
		cfg.Seed = 100
		c := mustRun(t, cfg, 1500)
		if reflect.DeepEqual(a.Latency, c.Latency) {
			t.Errorf("%s: different seeds produced identical latency distributions", cfg.Arrival)
		}
	}
}

// A generator drawn from the pool and reseeded gives the stream of a
// fresh rand.New(rand.NewSource(seed)), whatever it drew before.
func TestPooledRNGMatchesFreshSource(t *testing.T) {
	for seed := int64(-3); seed < 60; seed++ {
		got, want := getRNG(seed), rand.New(rand.NewSource(seed))
		type draws struct {
			i63  int64
			n    int
			f, e float64
		}
		for i := 0; i < 200; i++ {
			g := draws{got.Int63(), got.Intn(1 << 20), got.Float64(), got.ExpFloat64()}
			w := draws{want.Int63(), want.Intn(1 << 20), want.Float64(), want.ExpFloat64()}
			if g != w {
				t.Fatalf("seed %d draw %d: pooled generator %v, fresh %v", seed, i, g, w)
			}
		}
		rngPool.Put(got)
	}
}

func TestSharedKernelMeasuresElapsedNotAbsolute(t *testing.T) {
	// Run twice on one kernel: the second run starts at a later
	// simulated time and must still report its own rate, not a rate
	// diluted by the first run's elapsed time.
	k, complex, buf := buildStack(t)
	cfg := Config{Sizes: FixedSize(512), Window: 32}
	first, err := Run(k, complex, buf.DMAAddr(0), cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(k, complex, buf.DMAAddr(0), cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rel := (second.PPS - first.PPS) / first.PPS
	if math.Abs(rel) > 0.10 {
		t.Errorf("second run PPS %.0f vs first %.0f (%.1f%%)", second.PPS, first.PPS, rel*100)
	}
}

// TestDesignByName: each name returns its built-in design, built once
// and shared, so rewriting it through a Moderation must leave it as
// built; naming a design, or defaulting to one, allocates nothing.
func TestDesignByName(t *testing.T) {
	for name, build := range map[string]func() model.NIC{
		"":       model.ModernNICKernel,
		"kernel": model.ModernNICKernel,
		"simple": model.SimpleNIC,
		"dpdk":   model.ModernNICDPDK,
	} {
		d, err := DesignByName(name)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		Moderation{DoorbellBatch: 7, DescBatch: 3, WriteBackBatch: 5, IntrEvery: -1}.Apply(d)
		if !reflect.DeepEqual(d, build()) {
			t.Errorf("%q after Apply: %+v, want %+v", name, d, build())
		}
	}
	if _, err := DesignByName("exotic"); err == nil {
		t.Error("unknown design accepted")
	}
	cfg := Config{Sizes: FixedSize(1500)}
	for what, f := range map[string]func(){
		"DesignByName": func() { _, _ = DesignByName("kernel") },
		"Validate":     func() { _ = cfg.Validate() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f times per call", what, n)
		}
	}
}
