package sim

import "testing"

// TestParallelNoLinksFreeRuns pins RunAll's contract: every kernel runs
// to completion, whatever the worker count — including more workers
// than kernels.
func TestParallelNoLinksFreeRuns(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		kernels := []*Kernel{New(1), New(2), New(3)}
		counts := make([]int, len(kernels))
		for i, k := range kernels {
			c := &counts[i]
			for e := 0; e < 10; e++ {
				k.At(Time(e+i)*Microsecond, func() { *c++ })
			}
		}
		RunAll(kernels, workers)
		for i, k := range kernels {
			if counts[i] != 10 || k.Pending() != 0 {
				t.Fatalf("workers=%d: kernel %d ran %d/10 events, %d pending", workers, i, counts[i], k.Pending())
			}
			if want := Time(9+i) * Microsecond; k.Now() != want {
				t.Fatalf("workers=%d: kernel %d ended at %v, want %v", workers, i, k.Now(), want)
			}
		}
	}
}

// serverChain builds n kernels, each driving its own server through a
// 500-step chain of self-rescheduling events.
func serverChain(n int) []*Kernel {
	kernels := make([]*Kernel, n)
	for i := range kernels {
		k := New(int64(i + 1))
		kernels[i] = k
		srv := NewServer(k)
		steps := 0
		var step func()
		step = func() {
			steps++
			done := srv.Schedule(Time(50+(steps+i)%7) * Nanosecond)
			if steps < 500 {
				k.At(done, step)
			}
		}
		k.At(0, step)
	}
	return kernels
}

// TestParallelManyIslandsRace runs many independent kernels, each with
// its own server and heap churn, on many workers; under -race it
// checks RunAll's fan-out for unsynchronized access. Every kernel must
// land on the clock the single-goroutine run reaches.
func TestParallelManyIslandsRace(t *testing.T) {
	const kernels = 16
	ref := serverChain(kernels)
	RunAll(ref, 1)
	got := serverChain(kernels)
	RunAll(got, 8)
	for i, k := range got {
		if k.Pending() != 0 || k.Executed != 500 {
			t.Fatalf("kernel %d: pending %d executed %d", i, k.Pending(), k.Executed)
		}
		if k.Now() != ref[i].Now() {
			t.Fatalf("kernel %d: 8 workers ended at %v, one worker at %v", i, k.Now(), ref[i].Now())
		}
	}
}
