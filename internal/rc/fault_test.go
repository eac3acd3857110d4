package rc

import (
	"testing"

	"pciebench/internal/fault"
	"pciebench/internal/sim"
)

// faultyRC builds a root complex whose port 0 has the given fault
// model installed with streams seeded from seed.
func faultyRC(t *testing.T, seed int64, cfg fault.Config) (*RootComplex, *fault.Counters) {
	t.Helper()
	_, r, _ := newRC(t)
	ctr := &fault.Counters{}
	r.Port(0).InstallFaults(cfg,
		fault.NewStream(seed, 0, fault.ClassLink),
		fault.NewStream(seed, 0, fault.ClassRetrain), ctr)
	return r, ctr
}

// TestLinkFaultReplays: at a BER high enough to corrupt a visible
// fraction of TLPs, reads replay (consuming link time, so completions
// arrive later than on a clean link), counters record every replay as
// correctable, and the whole sequence is a pure function of the seed.
func TestLinkFaultReplays(t *testing.T) {
	run := func(seed int64) ([]sim.Time, fault.Counters) {
		r, ctr := faultyRC(t, seed, fault.Config{BER: 1e-5})
		var done []sim.Time
		at := sim.Time(0)
		for i := 0; i < 200; i++ {
			res, err := r.DMARead(at, 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, res.Complete)
			at = res.Complete
		}
		return done, *ctr
	}
	done1, ctr1 := run(3)
	done2, ctr2 := run(3)
	if ctr1 != ctr2 {
		t.Fatalf("same seed, different counters: %+v vs %+v", ctr1, ctr2)
	}
	for i := range done1 {
		if done1[i] != done2[i] {
			t.Fatalf("same seed, read %d diverged: %d vs %d", i, done1[i], done2[i])
		}
	}
	if ctr1.Replays == 0 {
		t.Fatal("no replays at BER 1e-5 over 200 4KiB reads")
	}
	if ctr1.Correctable != ctr1.Replays {
		t.Errorf("replays %d not all counted correctable (%d)", ctr1.Replays, ctr1.Correctable)
	}

	// Clean link finishes the same read sequence strictly earlier.
	_, clean, _ := newRC(t)
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		res, err := clean.DMARead(at, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		at = res.Complete
	}
	if faulty := done1[len(done1)-1]; faulty <= at {
		t.Errorf("faulty link finished at %d, clean at %d; replays cost nothing", faulty, at)
	}
}

// TestLinkFaultRetrain: with a short MTBF the port periodically drops
// into Recovery (counted non-fatal) and runs degraded for a while
// after; reads issued across a retrain epoch complete later than on a
// healthy link.
func TestLinkFaultRetrain(t *testing.T) {
	r, ctr := faultyRC(t, 11, fault.Config{RetrainMTBF: 20 * sim.Microsecond})
	_, clean, _ := newRC(t)
	var at, cleanAt sim.Time
	for i := 0; i < 300; i++ {
		res, err := r.DMARead(at, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		at = res.Complete
		cres, err := clean.DMARead(cleanAt, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cleanAt = cres.Complete
	}
	if ctr.Retrains == 0 {
		t.Fatalf("no retrains over %v of simulated traffic (MTBF 20us)", at)
	}
	if ctr.NonFatal != ctr.Retrains {
		t.Errorf("retrains %d not all counted non-fatal (%d)", ctr.Retrains, ctr.NonFatal)
	}
	if ctr.Replays != 0 {
		t.Errorf("replays %d with BER 0", ctr.Replays)
	}
	if at <= cleanAt {
		t.Errorf("retraining link finished at %d, clean at %d; dwell cost nothing", at, cleanAt)
	}
}

// TestFaultCountersAccessor: the port surfaces its counter block only
// once a fault model is installed.
func TestFaultCountersAccessor(t *testing.T) {
	_, r, _ := newRC(t)
	if r.Port(0).FaultCounters() != nil {
		t.Error("counters on a fault-free port")
	}
	ctr := &fault.Counters{}
	r.Port(0).InstallFaults(fault.Config{BER: 1e-9},
		fault.NewStream(1, 0, fault.ClassLink),
		fault.NewStream(1, 0, fault.ClassRetrain), ctr)
	if r.Port(0).FaultCounters() != ctr {
		t.Error("installed counter block not returned")
	}
}
