package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// scanServer is the MultiServer this package shipped before the sorted
// ring: one horizon per slot, with a scan for the earliest on every
// reservation. It is kept as the oracle the fuzz target holds
// MultiServer to, call for call.
type scanServer struct {
	k     *Kernel
	slots []Time
}

func (s *scanServer) ScheduleAt(t, d Time) Time {
	best := 0
	for i := 1; i < len(s.slots); i++ {
		if s.slots[i] < s.slots[best] {
			best = i
		}
	}
	s.slots[best] = max(t, s.k.now, s.slots[best]) + d
	return s.slots[best]
}

// maxScanOps bounds one fuzz input, keeping every execution cheap.
const maxScanOps = 1024

// scanService decodes a service time: b ns, where 0 is a zero service
// and 0xff a 1 ms one.
func scanService(b byte) Time {
	if b == 0xff {
		return Millisecond
	}
	return Time(b) * Nanosecond
}

// matchScan drives a MultiServer and the scan oracle through the calls
// data decodes to, on one kernel. The first byte picks 1–32 slots; each
// following 3-byte group [op, a, b] is one call, by op%3:
//
//	0: RunUntil(now + a*b ns), a clock advance;
//	1: ScheduleAt(now + int8(a)*4 ns, scanService(b)), an arrival up to
//	   512 ns before or after now;
//	2: Schedule(scanService(b)).
//
// Every return value must match, and every 16 calls (and at the end)
// the ring read from its head must equal the oracle's sorted horizons.
func matchScan(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	k := New(1)
	n := int(data[0])%32 + 1
	s := NewMultiServer(k, n)
	ref := &scanServer{k: k, slots: make([]Time, n)}
	checkHorizons := func(op int) {
		got := make([]Time, n)
		for i := range got {
			got[i] = s.ring[(s.head+i)%n]
		}
		if want := slices.Sorted(slices.Values(ref.slots)); !slices.Equal(got, want) {
			t.Fatalf("after op %d: ring horizons %d ps, want %d ps", op, got, want)
		}
	}
	op := 0
	for data = data[1:]; len(data) >= 3 && op < maxScanOps; data = data[3:] {
		a, b := data[1], data[2]
		var got, want Time
		switch data[0] % 3 {
		case 0:
			k.RunUntil(k.now + Time(a)*Time(b)*Nanosecond)
		case 1:
			at := k.now + Time(int8(a))*4*Nanosecond
			got, want = s.ScheduleAt(at, scanService(b)), ref.ScheduleAt(at, scanService(b))
		case 2:
			got, want = s.Schedule(scanService(b)), ref.ScheduleAt(k.now, scanService(b))
		}
		if got != want {
			t.Fatalf("op %d [%#x %#x %#x] at now %d ps: MultiServer returned %d ps, scan %d ps",
				op, data[0], a, b, k.now, got, want)
		}
		if op++; op%16 == 0 {
			checkHorizons(op)
		}
	}
	checkHorizons(op)
}

// FuzzMultiServerMatchesScan holds the sorted-ring MultiServer to the
// min-scan on arbitrary call streams; the seed corpus is in
// testdata/fuzz/FuzzMultiServerMatchesScan.
func FuzzMultiServerMatchesScan(f *testing.F) {
	f.Fuzz(matchScan)
}

// TestMultiServerMatchesScan runs random call streams through the fuzz
// target's check, so plain test runs cover more than the seed corpus.
func TestMultiServerMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		data := make([]byte, 1+3*rng.Intn(200))
		rng.Read(data)
		matchScan(t, data)
	}
}
