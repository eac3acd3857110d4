// Package sim provides the discrete-event simulation kernel underlying
// pciebench's performance tier.
//
// The kernel keeps virtual time in integer picoseconds, runs events from
// a monomorphic 4-ary heap, and offers the virtual-clock resource
// abstractions (Server, MultiServer) with which link directions, pipeline
// slots, DRAM channels and IOMMU page walkers are modeled. All randomness
// flows from a single seeded source so simulations are reproducible
// bit-for-bit.
//
// # Typed events
//
// The event queue is allocation-free in steady state. An event is a plain
// struct carrying its timestamp, a FIFO sequence number, a Handler
// interface value and two opaque int64 arguments; hot paths implement
// Handler on a pointer (or another pointer-shaped type) and pass their
// per-event state through the integer arguments, so scheduling never
// heap-allocates. The closure-based At/After API remains for control
// paths and tests: a func value is itself pointer-shaped, so wrapping it
// costs only whatever the closure captures. The queue is a hand-rolled
// 4-ary heap ordered by (time, sequence); because that key is a strict
// total order, the pop order — and therefore every simulation result —
// is identical to the previous container/heap implementation, just
// without the per-push interface boxing and with a shallower, more
// cache-friendly sift path.
//
// # Independent kernels
//
// A partitioned fabric runs one Kernel per simulation island. Islands
// share no state and exchange no events, so RunAll (parallel.go) simply
// runs each kernel to completion, on up to a given number of
// goroutines; results are byte-identical at any worker count.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is simulated time in picoseconds.
type Time int64

// Convenient durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds returns the time as float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.1fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	}
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// FromNS converts a float64 nanosecond value to Time.
func FromNS(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// Handler is the typed-event callback: the kernel invokes Handle at the
// event's timestamp with the two int64 arguments given at scheduling
// time. Implementations on pointer receivers (or other pointer-shaped
// types, such as single-pointer structs or named func types) can be
// scheduled without heap allocation.
type Handler interface {
	Handle(k *Kernel, a, b int64)
}

// funcHandler adapts a plain closure to Handler. Named func types are
// pointer-shaped, so the interface conversion does not allocate.
type funcHandler func()

// Handle implements Handler by calling the wrapped closure.
func (f funcHandler) Handle(*Kernel, int64, int64) { f() }

// event is one scheduled typed event.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among same-time events
	a, b int64
	h    Handler
}

// before orders events by (time, sequence) — a strict total order, since
// every event gets a unique sequence number.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulator instance. It is not safe for
// concurrent use; a simulation is a single logical thread of control.
type Kernel struct {
	now    Time
	events []event // 4-ary min-heap ordered by (at, seq)
	seq    uint64
	rng    *rand.Rand

	// Executed counts events run, a cheap progress/debug metric.
	Executed uint64
}

// New returns a kernel whose random source is seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics.
func (k *Kernel) At(t Time, fn func()) {
	k.AtEvent(t, funcHandler(fn), 0, 0)
}

// After schedules fn to run d picoseconds from now.
func (k *Kernel) After(d Time, fn func()) {
	k.AfterEvent(d, funcHandler(fn), 0, 0)
}

// AtEvent schedules h.Handle(k, a, b) at absolute time t without
// allocating (provided h is pointer-shaped). Scheduling in the past is a
// programming error and panics.
func (k *Kernel) AtEvent(t Time, h Handler, a, b int64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	k.push(event{at: t, seq: k.seq, a: a, b: b, h: h})
	k.seq++
}

// AfterEvent schedules h.Handle(k, a, b) d picoseconds from now.
func (k *Kernel) AfterEvent(d Time, h Handler, a, b int64) {
	if d < 0 {
		d = 0
	}
	k.AtEvent(k.now+d, h, a, b)
}

// push inserts e into the 4-ary heap, sifting up with a hole instead of
// pairwise swaps.
func (k *Kernel) push(e event) {
	q := append(k.events, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	k.events = q
}

// pop removes and returns the earliest event. The caller guarantees the
// heap is non-empty.
func (k *Kernel) pop() event {
	q := k.events
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the Handler reference for the GC
	q = q[:n]
	if n > 0 {
		// Sift the former tail down from the root, moving the hole.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	k.events = q
	return top
}

// Run executes events until the queue is empty and returns the final
// time.
func (k *Kernel) Run() Time {
	for len(k.events) > 0 {
		e := k.pop()
		k.now = e.at
		k.Executed++
		e.h.Handle(k, e.a, e.b)
	}
	return k.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		e := k.pop()
		k.now = e.at
		k.Executed++
		e.h.Handle(k, e.a, e.b)
	}
	if k.now < t {
		k.now = t
	}
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.events) }

// Server is a single-server FIFO resource using virtual-clock
// bookkeeping: callers ask for an amount of service time and receive the
// completion timestamp; requests queue implicitly by pushing the
// next-free horizon forward. This models any fully serialized resource —
// one direction of a PCIe link, a DMA engine's issue stage, a memory
// channel.
type Server struct {
	k    *Kernel
	free Time
	busy Time // cumulative service time, for utilization accounting
}

// NewServer returns a server bound to kernel k.
func NewServer(k *Kernel) *Server { return &Server{k: k} }

// Schedule reserves d of service time and returns the completion time.
// Service begins at max(now, next-free).
func (s *Server) Schedule(d Time) Time {
	start := s.k.now
	if s.free > start {
		start = s.free
	}
	s.free = start + d
	s.busy += d
	return s.free
}

// ScheduleAt reserves d of service starting no earlier than t.
func (s *Server) ScheduleAt(t Time, d Time) Time {
	start := t
	if s.k.now > start {
		start = s.k.now
	}
	if s.free > start {
		start = s.free
	}
	s.free = start + d
	s.busy += d
	return s.free
}

// NextFree returns the time at which the server falls idle.
func (s *Server) NextFree() Time { return s.free }

// Utilization returns busy time divided by elapsed time (0 if no time
// has passed).
func (s *Server) Utilization() float64 {
	if s.k.now == 0 {
		return 0
	}
	return float64(s.busy) / float64(s.k.now)
}

// MultiServer is an m-server FIFO resource: up to m requests are in
// service concurrently, further requests wait for the earliest free
// slot. It models resources with internal parallelism — IOMMU page
// walkers, root-complex pipeline slots, DRAM banks.
//
// Slots are interchangeable: a reservation depends only on the earliest
// horizon and replaces it. So the horizons are kept as a ring sorted
// ascending from head: a reservation pops the head and inserts the new
// horizon from the tail, walking back past larger ones. The new horizon
// is usually the latest, so the walk is short.
type MultiServer struct {
	k    *Kernel
	ring []Time // slot horizons, ascending cyclically from head
	head int
}

// NewMultiServer returns an m-slot server (m >= 1).
func NewMultiServer(k *Kernel, m int) *MultiServer {
	if m < 1 {
		m = 1
	}
	return &MultiServer{k: k, ring: make([]Time, m)}
}

// Schedule reserves d of service on the earliest available slot,
// returning the completion time.
func (s *MultiServer) Schedule(d Time) Time {
	return s.ScheduleAt(s.k.now, d)
}

// ScheduleAt reserves d of service starting no earlier than t.
func (s *MultiServer) ScheduleAt(t Time, d Time) Time {
	r := s.ring
	start := t
	if s.k.now > start {
		start = s.k.now
	}
	if r[s.head] > start {
		start = r[s.head]
	}
	done := start + d
	// Pop the head; its cell becomes the tail, where done goes in.
	i := s.head
	s.head++
	if s.head == len(r) {
		s.head = 0
	}
	for i != s.head {
		p := i - 1
		if p < 0 {
			p = len(r) - 1
		}
		if r[p] <= done {
			break
		}
		r[i] = r[p]
		i = p
	}
	r[i] = done
	return done
}

// Slots returns the number of parallel servers.
func (s *MultiServer) Slots() int { return len(s.ring) }
