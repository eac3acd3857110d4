package topo_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pciebench/internal/rc"
	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// coupledFabric builds a fabric whose endpoints all couple into one
// island — through a shared switch when sw is true, through the shared
// socket-0 root complex otherwise.
func coupledFabric(t *testing.T, endpoints int, sw bool, jitter bool, simWorkers int) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	shape := topo.Shape{Endpoints: endpoints}
	if sw {
		shape.Switch = shapeLink()
	}
	fab, err := sys.Fabric(shape, sysconf.Options{
		Seed: 7, BufferSize: 1 << 20, NoJitter: !jitter, SimWorkers: simWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// TestCoupledFabricByteIdentical pins coupled topologies: an
// 8-endpoint fabric sharing a switch (and one sharing a socket) forms
// one island, so it builds serially at every worker count and
// reproduces the serial result byte for byte. The serial result is
// pinned to a committed golden. Regenerate with
// `go test ./internal/topo -run CoupledFabricByteIdentical -update`.
func TestCoupledFabricByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		sw     bool
		golden string
	}{
		{"shared-switch", true, "coupled_switch.golden.json"},
		{"shared-socket", false, "coupled_socket.golden.json"},
	}
	cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := coupledFabric(t, 8, tc.sw, false, 1)
			if serial.Parallel() {
				t.Fatal("simworkers=1 built a parallel fabric")
			}
			ref, err := topo.RunWorkload(serial, cfg, 200)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 7} {
				fab := coupledFabric(t, 8, tc.sw, false, w)
				if fab.Parallel() || len(fab.Coupled) != 0 {
					t.Fatalf("simworkers=%d: one-island fabric did not build serially (%d kernels)", w, len(fab.Kernels))
				}
				res, err := topo.RunWorkload(fab, cfg, 200)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("simworkers=%d diverged from the serial build", w)
				}
			}
			got, err := json.MarshalIndent(ref, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("coupled workload drifted from %s (rerun with -update if intended)", path)
			}
		})
	}
}

// TestJitteryFabricByteIdentical pins the per-island jitter streams:
// with the root-complex jitter model enabled, coupled fabrics (one
// island, built serially on the kernel stream) and split fabrics
// (islands beyond the first draw derived streams) reproduce the serial
// build byte for byte at every worker count.
func TestJitteryFabricByteIdentical(t *testing.T) {
	cfg := workload.Config{Seed: 5, BufferBytes: 1 << 20}

	t.Run("coupled-switch", func(t *testing.T) {
		serial := coupledFabric(t, 4, true, true, 1)
		ref, err := topo.RunWorkload(serial, cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 7} {
			fab := coupledFabric(t, 4, true, true, w)
			if fab.Parallel() {
				t.Fatalf("simworkers=%d: jittery switched fabric did not build serially", w)
			}
			res, err := topo.RunWorkload(fab, cfg, 150)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("simworkers=%d diverged on the jittery switched fabric", w)
			}
		}
	})

	t.Run("split-sockets", func(t *testing.T) {
		build := func(w int) *topo.Fabric {
			sys, err := sysconf.ByName("NFP6000-BDW")
			if err != nil {
				t.Fatal(err)
			}
			fab, err := sys.Fabric(
				topo.Shape{Endpoints: 4, Placement: "split", LocalBuffers: true},
				sysconf.Options{Seed: 7, BufferSize: 1 << 20, SimWorkers: w},
			)
			if err != nil {
				t.Fatal(err)
			}
			return fab
		}
		ref, err := topo.RunWorkload(build(1), cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 7} {
			fab := build(w)
			if !fab.Parallel() || len(fab.Islands) != 2 {
				t.Fatalf("simworkers=%d: jittery split fabric did not partition", w)
			}
			res, err := topo.RunWorkload(fab, cfg, 150)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("simworkers=%d diverged on the jittery split fabric", w)
			}
		}
	})
}

// TestPropertyCoupledInvariance randomizes coupled topologies (endpoint
// count, switched or socket-shared, jitter, queue count, seeds) and
// checks that every worker count builds them serially and reproduces
// the serial result exactly.
func TestPropertyCoupledInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		endpoints := 2 + rng.Intn(5) // 2..6
		sw := rng.Intn(2) == 0
		jitter := rng.Intn(2) == 0
		cfg := workload.Config{
			Seed:        int64(1 + rng.Intn(1000)),
			Queues:      1 + rng.Intn(2),
			BufferBytes: 1 << 20,
		}
		pairs := 80 + rng.Intn(80)
		label := fmt.Sprintf("trial %d (endpoints=%d switch=%v jitter=%v)", trial, endpoints, sw, jitter)

		serial := coupledFabric(t, endpoints, sw, jitter, 1)
		ref, err := topo.RunWorkload(serial, cfg, pairs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, w := range []int{2, 4, 7} {
			fab := coupledFabric(t, endpoints, sw, jitter, w)
			if fab.Parallel() {
				t.Fatalf("%s: simworkers=%d did not build serially", label, w)
			}
			res, err := topo.RunWorkload(fab, cfg, pairs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("%s: simworkers=%d diverged from serial", label, w)
			}
		}
	}
}

// TestPeersCoupling pins the declared-P2P bugfix: naming a peer pair in
// Spec.Peers pulls both endpoints into one island, so the pair builds
// serially even at SimWorkers 4 and its BAR traffic routes inside one
// address map instead of hitting the runtime "crosses simulation
// domains" refusal.
func TestPeersCoupling(t *testing.T) {
	spec := func(peers [][2]int) topo.Spec {
		sys, err := sysconf.ByName("NFP6000-BDW")
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sys.TopoSpec(
			topo.Shape{Endpoints: 2, Placement: "split", LocalBuffers: true},
			sysconf.Options{Seed: 7, BufferSize: 1 << 20, NoJitter: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		sp.Peers = peers
		sp.SimWorkers = 4
		return sp
	}

	// Without the declaration the endpoints land on separate islands and
	// the peer write is refused at the routing boundary.
	fab, err := topo.Build(spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(fab.Islands) != 2 {
		t.Fatalf("islands %v, want two singletons", fab.Islands)
	}
	addr, err := fab.BARAddr(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Endpoints[0].Port.DMAWrite(fab.EndpointKernel(0).Now(), addr, 64); err == nil ||
		!strings.Contains(err.Error(), "crosses simulation domains") {
		t.Fatalf("undeclared peer write: err %v, want a domain-crossing rejection", err)
	}

	// Declaring the pair couples them into one island, which builds
	// serially, and the peer write goes through.
	fab, err = topo.Build(spec([][2]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if fab.Parallel() || !reflect.DeepEqual(fab.Islands, [][]int{{0, 1}}) {
		t.Fatalf("peered fabric: %d kernels, islands %v, want one serial island {0,1}", len(fab.Kernels), fab.Islands)
	}
	addr, err = fab.BARAddr(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Endpoints[0].Port.DMAWrite(fab.EndpointKernel(0).Now(), addr, 64); err != nil {
		t.Fatalf("declared peer write failed: %v", err)
	}

	// Validation rejects malformed declarations.
	bad := spec([][2]int{{0, 2}})
	if _, err := topo.Build(bad); err == nil || !strings.Contains(err.Error(), "peer pair") {
		t.Fatalf("out-of-range peer pair: err %v, want a validation error", err)
	}
	bad = spec([][2]int{{1, 1}})
	if _, err := topo.Build(bad); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("self peer pair: err %v, want a validation error", err)
	}
}

// TestJitterDoesNotSerialize pins the satellite bugfix around the old
// jitter collapse: jitter configured on a socket no endpoint ingresses
// at — or on every socket, with Interconnect{Shared: false} — must not
// cost the fabric its partition.
func TestJitterDoesNotSerialize(t *testing.T) {
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.TopoSpec(
		topo.Shape{Endpoints: 2, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: 7, BufferSize: 1 << 20, NoJitter: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	sp.SimWorkers = 4

	// Jitter on an unused third socket: nothing ingresses there, so no
	// island draws from it.
	sp.Mem.Nodes = 3
	base := sp.Sockets[0]
	unused := base
	unused.Node = 2
	unused.Jitter = rc.ConstantJitter(500 * sim.Nanosecond)
	sp.Sockets = append(sp.Sockets, unused)
	fab, err := topo.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !fab.Parallel() || len(fab.Islands) != 2 {
		t.Fatalf("jitter on an unused socket serialized the fabric: islands %v", fab.Islands)
	}

	// Jitter everywhere plus an explicit non-shared interconnect model:
	// islands own their streams, so this partitions too.
	for i := range sp.Sockets {
		sp.Sockets[i].Jitter = rc.ConstantJitter(500 * sim.Nanosecond)
	}
	sp.Interconnect = &rc.InterconnectConfig{Shared: false}
	fab, err = topo.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !fab.Parallel() || len(fab.Islands) != 2 {
		t.Fatalf("jittery non-shared-interconnect fabric serialized: islands %v", fab.Islands)
	}
}
