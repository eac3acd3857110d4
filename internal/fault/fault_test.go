package fault

import (
	"math"
	"testing"

	"pciebench/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config: %v", err)
	}
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	good := &Config{BER: 1e-9, CTO: sim.Microsecond, RetrainMTBF: sim.Millisecond}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if !good.Enabled() {
		t.Error("configured faults report disabled")
	}
	for _, bad := range []*Config{
		{BER: -1e-9},
		{BER: 1},
		{BER: 1.5},
		{CTO: -1},
		{RetrainMTBF: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", *bad)
		}
	}
}

// Fault streams are pure functions of (seed, endpoint, class):
// replaying a stream yields the same draws, and any coordinate change
// decorrelates it — the property the cross-worker determinism of the
// whole subsystem rests on.
func TestStreamDeterminismAndIndependence(t *testing.T) {
	draw := func(s *Stream) [8]float64 {
		var d [8]float64
		for i := range d {
			d[i] = s.Float64()
		}
		return d
	}
	base := draw(NewStream(42, 0, ClassLink))
	if base != draw(NewStream(42, 0, ClassLink)) {
		t.Error("identical streams diverged")
	}
	for _, alt := range []*Stream{
		NewStream(43, 0, ClassLink),
		NewStream(42, 1, ClassLink),
		NewStream(42, 0, ClassRetrain),
	} {
		if base == draw(alt) {
			t.Error("distinct streams correlated")
		}
	}
	for i, u := range base {
		if u < 0 || u >= 1 {
			t.Errorf("draw %d = %v outside [0, 1)", i, u)
		}
	}
}

func TestStreamExp(t *testing.T) {
	s := NewStream(7, 0, ClassRetrain)
	mean := 100 * sim.Microsecond
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := s.Exp(mean)
		if d < sim.Picosecond {
			t.Fatalf("draw %d below 1ps: %d", i, d)
		}
		sum += float64(d)
	}
	if got := sum / n / float64(mean); math.Abs(got-1) > 0.05 {
		t.Errorf("empirical mean %.3f of configured mean", got)
	}
}

func TestTLPCorruptProb(t *testing.T) {
	if p := TLPCorruptProb(0, 1500); p != 0 {
		t.Errorf("zero BER: %v", p)
	}
	small, large := TLPCorruptProb(1e-9, 64), TLPCorruptProb(1e-9, 1500)
	if !(0 < small && small < large && large < 1) {
		t.Errorf("not monotone in size: %v vs %v", small, large)
	}
	// For tiny BER the exact 1-(1-b)^n is ~ n*8*b.
	if approx := 1500 * 8 * 1e-9; math.Abs(large-approx)/approx > 1e-3 {
		t.Errorf("p = %v, want ~%v", large, approx)
	}
}

func TestCountersAddZero(t *testing.T) {
	a := Counters{Correctable: 1, NonFatal: 2, Fatal: 3, Replays: 4, Timeouts: 5, Retrains: 6}
	b := a
	a.Add(b)
	if a.Replays != 8 || a.Fatal != 6 {
		t.Errorf("Add: %+v", a)
	}
	if a.Zero() {
		t.Error("non-zero counters report zero")
	}
	var z Counters
	if !z.Zero() {
		t.Error("zero counters report non-zero")
	}
}
