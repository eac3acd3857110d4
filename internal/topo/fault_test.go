package topo_test

import (
	"fmt"
	"reflect"
	"testing"

	"pciebench/internal/fault"
	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// buildFaulty builds an n-endpoint NFP6000-BDW fabric split over both
// sockets with socket-local buffers — two islands once n > 1 — with
// the given fault config, simulation worker budget and, optionally,
// the root-complex jitter model.
func buildFaulty(t *testing.T, n, workers int, seed int64, fc *fault.Config, jitter bool) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(topo.Shape{Endpoints: n, Placement: "split", LocalBuffers: true}, sysconf.Options{
		Seed: seed, BufferSize: 1 << 20, SimWorkers: workers, Faults: fc, NoJitter: !jitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// The fault determinism property: fault-injected workload runs on
// partitioned fabrics — BER replays, retrain events, mixed endpoint
// counts and seeds, open and closed loop — are byte-identical
// (counters included) at every simulation worker count, because fault
// streams are keyed by (seed, endpoint, class) rather than by island
// or schedule.
func TestFaultWorkerIdentity(t *testing.T) {
	cases := []struct {
		endpoints int
		seed      int64
		fc        fault.Config
		arrival   string
	}{
		{2, 3, fault.Config{BER: 1e-5}, ""},
		{4, 17, fault.Config{BER: 1e-6}, ""},
		{4, 99, fault.Config{BER: 1e-5, RetrainMTBF: 50 * sim.Microsecond}, ""},
		{5, 7, fault.Config{BER: 1e-5}, "poisson:2M:burst=4"},
		{3, 23, fault.Config{RetrainMTBF: 20 * sim.Microsecond}, "rate:2M"},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			cfg := workload.Config{Seed: tc.seed + 1, BufferBytes: 1 << 20, Queues: 2}
			if tc.arrival != "" {
				arr, err := workload.ParseArrival(tc.arrival)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Arrival = arr
			}
			ref, err := topo.RunWorkload(buildFaulty(t, tc.endpoints, 1, tc.seed, &tc.fc, false), cfg, 150)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Faults == nil {
				t.Fatal("fault counters missing from result")
			}
			if tc.fc.BER > 0 && ref.Faults.Replays == 0 && ref.Faults.Retrains == 0 {
				t.Logf("warning: no fault events fired (weak case)")
			}
			for _, w := range []int{2, 4, 7} {
				fab := buildFaulty(t, tc.endpoints, w, tc.seed, &tc.fc, false)
				if !fab.Parallel() {
					t.Fatalf("simworkers=%d: split fabric did not partition", w)
				}
				res, err := topo.RunWorkload(fab, cfg, 150)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, res) {
					t.Errorf("simworkers=%d diverged from serial (faults: ref=%+v got=%+v)",
						w, *ref.Faults, *res.Faults)
				}
			}
		})
	}
}

// TestReusedFabricRetrainIdentity pins fabric reuse: one fabric driven
// through four consecutive runs resumes every island at the global
// clock, as the serial kernel does, so absolute-time state — link
// retrain schedules above all — sees the same start and every run
// matches the serial fabric's.
func TestReusedFabricRetrainIdentity(t *testing.T) {
	arrivals := []string{"saturate", "poisson:2M:burst=4", "rate:1M", "saturate"}
	faults := []fault.Config{
		{RetrainMTBF: 30 * sim.Microsecond},
		{BER: 1e-6, RetrainMTBF: 50 * sim.Microsecond},
	}
	for fi, fc := range faults {
		for _, jitter := range []bool{false, true} {
			t.Run(fmt.Sprintf("faults%d-jitter=%v", fi, jitter), func(t *testing.T) {
				serial := buildFaulty(t, 6, 1, 13, &fc, jitter)
				par := buildFaulty(t, 6, 4, 13, &fc, jitter)
				if !par.Parallel() {
					t.Fatal("split fabric did not partition")
				}
				retrains := uint64(0)
				for run, spec := range arrivals {
					arr, err := workload.ParseArrival(spec)
					if err != nil {
						t.Fatal(err)
					}
					cfg := workload.Config{Seed: int64(21 + run), BufferBytes: 1 << 20, Queues: 2, Arrival: arr}
					ref, err := topo.RunWorkload(serial, cfg, 150)
					if err != nil {
						t.Fatal(err)
					}
					res, err := topo.RunWorkload(par, cfg, 150)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, res) {
						t.Fatalf("run %d (%s): reused parallel fabric diverged from serial", run, spec)
					}
					retrains += ref.Faults.Retrains
				}
				if retrains == 0 {
					t.Fatal("no retrain fired across the runs; the case tests nothing")
				}
			})
		}
	}
}

// Per-endpoint fault counters must sum to the aggregate, field by
// field — the accounting invariant behind the sweep metrics.
func TestFaultCountersSumConsistent(t *testing.T) {
	fc := &fault.Config{BER: 1e-5, RetrainMTBF: 80 * sim.Microsecond}
	res, err := topo.RunWorkload(buildFaulty(t, 4, 2, 17, fc, false),
		workload.Config{Seed: 5, BufferBytes: 1 << 20, Queues: 1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("aggregate counters missing")
	}
	var sum fault.Counters
	events := false
	for i, ep := range res.Endpoints {
		if ep.Faults == nil {
			t.Fatalf("endpoint %d counters missing", i)
		}
		sum.Add(*ep.Faults)
		events = events || !ep.Faults.Zero()
	}
	if !events {
		t.Error("no endpoint recorded any fault event at BER 1e-5")
	}
	if sum != *res.Faults {
		t.Errorf("per-endpoint sum %+v != aggregate %+v", sum, *res.Faults)
	}
}

// Zero-fault configs must not allocate fault state at all: the
// omitempty JSON contract and cache-key stability both depend on it.
func TestNoFaultsNoCounters(t *testing.T) {
	res, err := topo.RunWorkload(buildFaulty(t, 2, 1, 3, nil, false),
		workload.Config{Seed: 5, BufferBytes: 1 << 20, Queues: 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Errorf("fault-free run attached aggregate counters: %+v", *res.Faults)
	}
	for i, ep := range res.Endpoints {
		if ep.Faults != nil {
			t.Errorf("fault-free run attached counters to endpoint %d", i)
		}
	}
}
