package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ps",
		1500:            "1.5ns",
		2 * Microsecond: "2.00us",
		3 * Millisecond: "3.00ms",
		2 * Second:      "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromNS(1.5) != 1500 {
		t.Errorf("FromNS(1.5) = %d", FromNS(1.5))
	}
	if (1500 * Picosecond).Nanoseconds() != 1.5 {
		t.Error("Nanoseconds conversion")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion")
	}
}

func TestKernelOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.At(300, func() { order = append(order, 3) })
	k.At(100, func() { order = append(order, 1) })
	k.At(200, func() { order = append(order, 2) })
	end := k.Run()
	if end != 300 {
		t.Errorf("end time %v, want 300ps", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelCascade(t *testing.T) {
	k := New(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			k.After(10, step)
		}
	}
	k.After(0, step)
	end := k.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if end != 990 {
		t.Errorf("end = %v, want 990ps", end)
	}
	if k.Executed != 100 {
		t.Errorf("Executed = %d", k.Executed)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	k := New(1)
	k.At(100, func() { k.At(50, func() {}) })
	k.Run()
}

func TestAfterClampsNegative(t *testing.T) {
	k := New(1)
	ran := false
	k.After(-5, func() { ran = true })
	k.Run()
	if !ran {
		t.Error("negative After did not run")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var ran []Time
	for _, at := range []Time{100, 200, 300, 400} {
		at := at
		k.At(at, func() { ran = append(ran, at) })
	}
	k.RunUntil(250)
	if len(ran) != 2 {
		t.Errorf("ran %v, want 2 events", ran)
	}
	if k.Now() != 250 {
		t.Errorf("now = %v, want 250", k.Now())
	}
	if k.Pending() != 2 {
		t.Errorf("pending = %d, want 2", k.Pending())
	}
	k.Run()
	if len(ran) != 4 {
		t.Errorf("after Run: ran %v", ran)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var samples []int64
		var tick func()
		tick = func() {
			samples = append(samples, int64(k.Now()), k.Rand().Int63n(1000))
			if len(samples) < 100 {
				k.After(Time(k.Rand().Int63n(500)+1), tick)
			}
		}
		k.After(1, tick)
		k.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestServerSerializes(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	// Three back-to-back requests at t=0 serialize.
	c1 := s.Schedule(100)
	c2 := s.Schedule(100)
	c3 := s.Schedule(100)
	if c1 != 100 || c2 != 200 || c3 != 300 {
		t.Errorf("completions %v %v %v, want 100 200 300", c1, c2, c3)
	}
	if s.NextFree() != 300 {
		t.Errorf("NextFree = %v", s.NextFree())
	}
}

func TestServerIdleGap(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	s.Schedule(100)
	// Advance time past the busy period; the next request starts at now.
	k.At(500, func() {
		if c := s.Schedule(50); c != 550 {
			t.Errorf("completion %v, want 550", c)
		}
	})
	k.Run()
}

func TestServerScheduleAt(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	if c := s.ScheduleAt(1000, 100); c != 1100 {
		t.Errorf("ScheduleAt(1000,100) = %v", c)
	}
	// Earlier request still queues after (virtual clock moved forward).
	if c := s.ScheduleAt(0, 100); c != 1200 {
		t.Errorf("second ScheduleAt = %v, want 1200", c)
	}
}

func TestServerUtilization(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	s.Schedule(500)
	k.At(1000, func() {})
	k.Run()
	if u := s.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestMultiServerParallelism(t *testing.T) {
	k := New(1)
	m := NewMultiServer(k, 2)
	c1 := m.Schedule(100)
	c2 := m.Schedule(100)
	c3 := m.Schedule(100)
	if c1 != 100 || c2 != 100 {
		t.Errorf("first two should run in parallel: %v %v", c1, c2)
	}
	if c3 != 200 {
		t.Errorf("third should queue: %v", c3)
	}
	// Two slots: the fourth job shares the second wave with the third.
	if c4 := m.Schedule(100); c4 != 200 {
		t.Errorf("fourth should run beside the third: %v", c4)
	}
}

// A server asked for 0 slots gets one: two jobs run back to back.
func TestMultiServerClampsSlots(t *testing.T) {
	k := New(1)
	m := NewMultiServer(k, 0)
	if c1, c2 := m.Schedule(100), m.Schedule(100); c1 != 100 || c2 != 200 {
		t.Errorf("0 slots: jobs complete at %v and %v, want 100 and 200", c1, c2)
	}
}

// Property: a MultiServer with m slots completes n equal jobs in
// ceil(n/m) * d when all are submitted at t=0.
func TestMultiServerThroughput(t *testing.T) {
	f := func(nn, mm uint8) bool {
		n := int(nn%50) + 1
		m := int(mm%8) + 1
		k := New(1)
		srv := NewMultiServer(k, m)
		var last Time
		for i := 0; i < n; i++ {
			if c := srv.Schedule(100); c > last {
				last = c
			}
		}
		batches := (n + m - 1) / m
		return last == Time(batches*100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Server completions are monotonically non-decreasing in
// submission order regardless of service times.
func TestServerMonotoneCompletions(t *testing.T) {
	f := func(ds []uint16) bool {
		k := New(1)
		s := NewServer(k)
		var prev Time = -1
		for _, d := range ds {
			c := s.Schedule(Time(d % 1000))
			if c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
