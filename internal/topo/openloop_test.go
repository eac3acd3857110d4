package topo_test

import (
	"reflect"
	"testing"

	"pciebench/internal/pcie"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// TestOpenLoopCoupledArrivalIdentity drives a fabric of two coupled
// islands (eight endpoints split over both sockets with local buffers,
// four per island) with the textual open-loop arrival forms: results
// must match the serial build byte for byte at every simulation worker
// count, including one (7) that divides neither the island nor the
// endpoint count.
func TestOpenLoopCoupledArrivalIdentity(t *testing.T) {
	build := func(w int) *topo.Fabric {
		sys, err := sysconf.ByName("NFP6000-BDW")
		if err != nil {
			t.Fatal(err)
		}
		fab, err := sys.Fabric(topo.Shape{Endpoints: 8, Placement: "split", LocalBuffers: true}, sysconf.Options{
			Seed: 7, BufferSize: 1 << 20, SimWorkers: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	for _, spec := range []string{"poisson:2M:burst=4", "rate:2M:burst=4"} {
		arr, err := workload.ParseArrival(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20, Arrival: arr, Queues: 2}
		ref, err := topo.RunWorkload(build(1), cfg, 120)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{4, 7} {
			fab := build(w)
			if len(fab.Coupled) != 2 {
				t.Fatalf("simworkers=%d: coupled groups %+v, want two islands of four", w, fab.Coupled)
			}
			res, err := topo.RunWorkload(fab, cfg, 120)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("arrival %q simworkers=%d diverged from serial", spec, w)
			}
		}
	}
}

// fabric16Spec is the 16-NIC open-loop shape: NFP6000-BDW with eight
// endpoints below a Gen3 x8 switch on each socket, socket-local
// buffers, a per-socket IOMMU and the jitter model on.
func fabric16Spec(t *testing.T, seed int64, simWorkers int) topo.Spec {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sys.TopoSpec(
		topo.Shape{Endpoints: 16, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: seed, IOMMU: true, IOMMUScope: topo.IOMMUScopePerSocket, SimWorkers: simWorkers})
	if err != nil {
		t.Fatal(err)
	}
	spec.Switches = []topo.SwitchSpec{
		topo.DefaultSwitch(pcie.DefaultGen3x8(), 0),
		topo.DefaultSwitch(pcie.DefaultGen3x8(), 1),
	}
	for i := range spec.Endpoints {
		spec.Endpoints[i].Switch = i / 8
		spec.Endpoints[i].Socket = i / 8
		spec.Endpoints[i].BufferNode = i / 8
	}
	return spec
}

// TestOpenLoopIslandIdentity pins open-loop identity on the 16-NIC
// shape: Poisson IMIX at 1.1 Mpps per endpoint, where an arrival can
// tie a completion at one instant on one endpoint. Topology seed 8 is
// one that the earlier barrier-replay engine got wrong. Results must
// be byte-identical at 1, 2 and 4 simulation workers.
func TestOpenLoopIslandIdentity(t *testing.T) {
	const seed = 8
	arr, err := workload.Poisson(1.1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Sizes: workload.IMIX(), Arrival: arr, Seed: seed*1_000_003 + 1}
	var ref *workload.MultiResult
	for _, w := range []int{1, 2, 4} {
		fab, res := runSpecWorkload(t, fabric16Spec(t, seed, w), cfg, 500)
		if w == 1 {
			ref = res
			continue
		}
		if len(fab.Islands) != 2 || len(fab.Coupled) != 2 {
			t.Fatalf("simworkers=%d: islands %v, want two islands of eight", w, fab.Islands)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("simworkers=%d diverged from serial in open loop", w)
		}
	}
}
