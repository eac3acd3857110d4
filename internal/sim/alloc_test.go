package sim

import (
	"math/rand"
	"testing"
)

// selfScheduler reschedules itself n times through the typed-event API.
type selfScheduler struct{ n int }

func (s *selfScheduler) Handle(k *Kernel, a, b int64) {
	if s.n > 0 {
		s.n--
		k.AfterEvent(Nanosecond, s, a, b)
	}
}

// TestTypedEventLoopZeroAlloc asserts the kernel's steady-state event
// loop — schedule, heap sift, dispatch — performs zero heap
// allocations once the queue storage has grown.
func TestTypedEventLoopZeroAlloc(t *testing.T) {
	k := New(1)
	// Pre-grow the heap storage beyond anything the loop will hold.
	h := &selfScheduler{}
	for i := 0; i < 64; i++ {
		k.AtEvent(Time(i), h, 0, 0)
	}
	k.Run()

	const events = 1000
	allocs := testing.AllocsPerRun(10, func() {
		s := &selfScheduler{n: events}
		k.AfterEvent(0, s, 0, 0)
		k.Run()
	})
	// One allocation per run for the selfScheduler itself; the events
	// must contribute nothing.
	if allocs > 1 {
		t.Fatalf("event loop allocated %.1f times per %d events, want <= 1 (the handler)", allocs, events)
	}
}

// TestMultiServerEarliestSlot is the regression test for ScheduleAt's
// choice of slot: with the slots busy until staggered horizons, work
// must queue behind the earliest horizon, whichever reservation set it.
func TestMultiServerEarliestSlot(t *testing.T) {
	k := New(1)
	s := NewMultiServer(k, 3)

	// Occupy the slots with decreasing horizons: 300, 200, then 100.
	// (Each call takes the current earliest horizon.)
	if got := s.ScheduleAt(0, 300); got != 300 {
		t.Fatalf("first reservation done at %v, want 300", got)
	}
	if got := s.ScheduleAt(0, 200); got != 200 {
		t.Fatalf("second reservation done at %v, want 200", got)
	}
	if got := s.ScheduleAt(0, 100); got != 100 {
		t.Fatalf("third reservation done at %v, want 100", got)
	}

	// All slots busy; the earliest horizon is 100, set by the third
	// reservation. Queueing behind the first one would return 300+50.
	if got := s.ScheduleAt(0, 50); got != 150 {
		t.Fatalf("fourth reservation done at %v, want 150 (queued behind the earliest-free slot)", got)
	}
	// And again: now the horizons are {300, 200, 150}; next lands at 150.
	if got := s.ScheduleAt(0, 25); got != 175 {
		t.Fatalf("fifth reservation done at %v, want 175", got)
	}

	// A request that starts later than every slot's horizon begins at
	// its own start time.
	if got := s.ScheduleAt(1000, 10); got != 1010 {
		t.Fatalf("late reservation done at %v, want 1010", got)
	}
}

var kernelSink *Kernel

// TestRandBuiltOnFirstDraw: New allocates the kernel alone, and the
// source Rand builds on first use replays math/rand's stream for the
// kernel's seed, so deferring it moves no draw.
func TestRandBuiltOnFirstDraw(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { kernelSink = New(7) }); allocs != 1 {
		t.Errorf("New allocated %.0f times, want 1 (the kernel)", allocs)
	}
	k, want := New(7), rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if got, exp := k.Rand().Int63(), want.Int63(); got != exp {
			t.Fatalf("draw %d: %d, math/rand's seed-7 stream draws %d", i, got, exp)
		}
	}
}
