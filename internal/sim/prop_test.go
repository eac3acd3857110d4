package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// Property: whatever order events are inserted in, execution visits
// them in nondecreasing time order, FIFO among equal timestamps, and
// the kernel clock never moves backwards.
func TestPropertyOrderingUnderRandomInsertion(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := New(1)

		type rec struct {
			at  Time
			seq int // insertion order
		}
		const n = 500
		var executed []rec
		for i := 0; i < n; i++ {
			// Coarse timestamps force plenty of ties.
			at := Time(rng.Intn(50)) * Nanosecond
			i := i
			k.At(at, func() {
				executed = append(executed, rec{at: k.Now(), seq: i})
			})
		}
		k.Run()

		if len(executed) != n {
			t.Fatalf("trial %d: executed %d/%d events", trial, len(executed), n)
		}
		var last rec
		for idx, r := range executed {
			if idx > 0 {
				if r.at < last.at {
					t.Fatalf("trial %d: time moved backwards: %v after %v", trial, r.at, last.at)
				}
				if r.at == last.at && r.seq < last.seq {
					t.Fatalf("trial %d: FIFO violated at %v: insertion %d ran after %d",
						trial, r.at, last.seq, r.seq)
				}
			}
			last = r
		}
		if k.Executed != n {
			t.Errorf("trial %d: Executed = %d, want %d", trial, k.Executed, n)
		}
	}
}

// Property: events that schedule further events at random future
// offsets keep time monotone and eventually drain the queue.
func TestPropertyMonotoneUnderRuntimeInsertion(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		k := New(1)
		var (
			prev     Time
			ran      int
			spawnBud = 2000
		)
		var spawn func()
		spawn = func() {
			now := k.Now()
			if now < prev {
				t.Fatalf("trial %d: clock went backwards: %v < %v", trial, now, prev)
			}
			prev = now
			ran++
			for c := rng.Intn(3); c > 0 && spawnBud > 0; c-- {
				spawnBud--
				k.After(Time(rng.Intn(1000)), spawn)
			}
		}
		for i := 0; i < 10; i++ {
			k.At(Time(rng.Intn(100)), spawn)
		}
		end := k.Run()
		if k.Pending() != 0 {
			t.Errorf("trial %d: %d events left after Run", trial, k.Pending())
		}
		if end != prev {
			t.Errorf("trial %d: Run returned %v, last event at %v", trial, end, prev)
		}
		if ran < 10 {
			t.Errorf("trial %d: only %d events ran", trial, ran)
		}
	}
}

// Property: two kernels fed the same randomized schedule execute
// identical event sequences — the determinism the byte-identical
// sweep outputs rest on.
func TestPropertyReplayIdentical(t *testing.T) {
	replay := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		var log []Time
		var spawn func()
		budget := 500
		spawn = func() {
			log = append(log, k.Now())
			if budget > 0 {
				budget--
				k.After(Time(rng.Intn(100))*Nanosecond, spawn)
			}
		}
		for i := 0; i < 5; i++ {
			k.At(Time(rng.Intn(20))*Nanosecond, spawn)
		}
		k.Run()
		return log
	}
	a, b := replay(7), replay(7)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// randNode is one kernel of a randomized independent-kernel model:
// random initial event bursts, and handlers that mix their arguments
// into local state and reschedule themselves at random offsets drawn
// from the node's own stream, so any change in a kernel's event order
// cascades into its trace and sum.
type randNode struct {
	rng   *rand.Rand
	hops  int
	trace []Time
	sum   int64
}

func (n *randNode) Handle(k *Kernel, a, b int64) {
	n.trace = append(n.trace, k.Now())
	n.sum = n.sum*131 + a*7 + b
	if n.hops <= 0 {
		return
	}
	n.hops--
	k.AfterEvent(Time(n.rng.Intn(30))*Nanosecond, n, n.sum, a+1)
}

// runRandKernels builds and runs one randomized model; construction is
// a pure function of (kernels, seed), so runs differ only in workers.
// It returns every observable: per-kernel traces, sums and clocks.
func runRandKernels(kernels, workers int, seed int64) ([][]Time, []int64, []Time) {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]*Kernel, kernels)
	nodes := make([]*randNode, kernels)
	for i := range ks {
		ks[i] = New(seed*100 + int64(i))
		nodes[i] = &randNode{rng: rand.New(rand.NewSource(seed*1000 + int64(i))), hops: 20 + rng.Intn(40)}
		for e := 0; e < 1+rng.Intn(4); e++ {
			ks[i].AtEvent(Time(rng.Intn(40))*Nanosecond, nodes[i], int64(e), int64(i))
		}
	}
	RunAll(ks, workers)
	var traces [][]Time
	var sums []int64
	var clocks []Time
	for i, n := range nodes {
		traces = append(traces, n.trace)
		sums = append(sums, n.sum)
		clocks = append(clocks, ks[i].Now())
	}
	return traces, sums, clocks
}

// Property: randomized sets of independent kernels produce identical
// traces under RunAll at 1, 2, 4 and 7 workers.
func TestPropertyParallelWorkerCountInvariance(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(4000 + trial)
		kernels := 2 + trial%6
		refTraces, refSums, refClocks := runRandKernels(kernels, 1, seed)
		if len(refTraces[0]) == 0 {
			t.Fatalf("trial %d: model executed nothing", trial)
		}
		for _, workers := range []int{2, 4, 7} {
			traces, sums, clocks := runRandKernels(kernels, workers, seed)
			if !reflect.DeepEqual(refTraces, traces) ||
				!reflect.DeepEqual(refSums, sums) ||
				!reflect.DeepEqual(refClocks, clocks) {
				t.Fatalf("trial %d: workers=%d diverged from the one-worker run", trial, workers)
			}
		}
	}
}
