package iommu

import (
	"errors"
	"testing"

	"pciebench/internal/sim"
)

func newTestIOMMU(entries, walkers int) (*sim.Kernel, *IOMMU) {
	k := sim.New(1)
	u := New(k, Config{
		TLBEntries:  entries,
		WalkLatency: 330 * sim.Nanosecond,
		Walkers:     walkers,
	})
	return k, u
}

func TestMapValidation(t *testing.T) {
	_, u := newTestIOMMU(4, 1)
	if err := u.Map(0, 0, Page4K, 1000); err != ErrBadPage {
		t.Errorf("bad page size: %v", err)
	}
	if err := u.Map(100, 0, Page4K, Page4K); err != ErrMisaligned {
		t.Errorf("misaligned iova: %v", err)
	}
	if err := u.Map(0, 100, Page4K, Page4K); err != ErrMisaligned {
		t.Errorf("misaligned pa: %v", err)
	}
	if err := u.Map(0, 0, Page4K+1, Page4K); err != ErrMisaligned {
		t.Errorf("unaligned size: %v", err)
	}
	// Empty and wrapping ranges pass the alignment check (uint64 of a
	// negative page multiple is a page multiple) and must still fail.
	for _, c := range []struct {
		iova, pa uint64
		size     int
	}{
		{1 << 40, 1 << 30, 0},
		{1 << 40, 1 << 30, -Page4K},
		{1 << 40, 1 << 30, -(1 << 40)},
		{1<<64 - Page4K, 1 << 30, 2 * Page4K},
		{1<<64 - Page4K, 1 << 30, Page4K},
		{1 << 40, 1<<64 - Page4K, 2 * Page4K},
	} {
		if err := u.Map(c.iova, c.pa, c.size, Page4K); err != ErrBadSize {
			t.Errorf("Map(%#x, %#x, %d): %v, want ErrBadSize", c.iova, c.pa, c.size, err)
		}
	}
	if len(u.maps) != 0 {
		t.Fatalf("rejected maps installed %d mappings", len(u.maps))
	}
	if err := u.Map(0, 1<<20, 4*Page4K, Page4K); err != nil {
		t.Fatalf("good map: %v", err)
	}
	if err := u.Map(2*Page4K, 1<<21, 4*Page4K, Page4K); err != ErrOverlap {
		t.Errorf("overlap: %v", err)
	}
}

func TestTranslateFault(t *testing.T) {
	_, u := newTestIOMMU(4, 1)
	_, err := u.Translate(0, 0x1000)
	if !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped translate: %v", err)
	}
	if u.Faults != 1 {
		t.Errorf("Faults = %d", u.Faults)
	}
}

func TestTranslateHitMiss(t *testing.T) {
	_, u := newTestIOMMU(4, 1)
	if err := u.Map(0x10000, 0x50000, 16*Page4K, Page4K); err != nil {
		t.Fatal(err)
	}
	// First access: miss, pays a walk.
	r, err := u.Translate(0, 0x10040)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Error("first access hit")
	}
	if r.PA != 0x50040 {
		t.Errorf("PA = %#x, want 0x50040", r.PA)
	}
	if r.Ready != 330*sim.Nanosecond {
		t.Errorf("Ready = %v, want 330ns", r.Ready)
	}
	// Second access, same page: hit, no delay.
	r, err = u.Translate(400*sim.Nanosecond, 0x10080)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit {
		t.Error("same-page access missed")
	}
	if r.Ready != 400*sim.Nanosecond {
		t.Errorf("hit Ready = %v", r.Ready)
	}
	// Different page: miss again.
	r, _ = u.Translate(400*sim.Nanosecond, 0x12000)
	if r.Hit {
		t.Error("new page hit")
	}
}

func TestTLBCapacityLRU(t *testing.T) {
	_, u := newTestIOMMU(2, 8)
	if err := u.Map(0, 0x100000, 16*Page4K, Page4K); err != nil {
		t.Fatal(err)
	}
	u.Translate(0, 0)        // page 0 -> miss
	u.Translate(0, Page4K)   // page 1 -> miss
	u.Translate(0, 0)        // page 0 -> hit (refreshes LRU)
	u.Translate(0, 2*Page4K) // page 2 -> miss, evicts page 1
	if u.TLBOccupancy() != 2 {
		t.Errorf("occupancy = %d, want 2", u.TLBOccupancy())
	}
	r, _ := u.Translate(0, 0)
	if !r.Hit {
		t.Error("page 0 evicted (should have been protected by LRU refresh)")
	}
	r, _ = u.Translate(0, Page4K)
	if r.Hit {
		t.Error("page 1 survived eviction")
	}
}

func TestSuperpageCoverage(t *testing.T) {
	_, u := newTestIOMMU(2, 1)
	if err := u.Map(0, 1<<31, Page2M, Page2M); err != nil {
		t.Fatal(err)
	}
	u.Translate(0, 0) // miss loads the whole 2MB page
	hits := 0
	for off := uint64(Page4K); off < Page2M; off += 64 * Page4K {
		r, err := u.Translate(0, off)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hit {
			hits++
		}
	}
	if u.Misses != 1 {
		t.Errorf("misses = %d, want 1 (superpage covers all)", u.Misses)
	}
	if hits == 0 {
		t.Error("no hits within the superpage")
	}
}

func TestWalkerPoolSerializesMisses(t *testing.T) {
	// One walker: two concurrent misses serialize; the second is ready
	// only after 2 x 330ns.
	_, u := newTestIOMMU(64, 1)
	if err := u.Map(0, 0, 16*Page4K, Page4K); err != nil {
		t.Fatal(err)
	}
	r1, _ := u.Translate(0, 0)
	r2, _ := u.Translate(0, Page4K)
	if r1.Ready != 330*sim.Nanosecond {
		t.Errorf("first walk ready at %v", r1.Ready)
	}
	if r2.Ready != 660*sim.Nanosecond {
		t.Errorf("second walk ready at %v, want 660ns (serialized)", r2.Ready)
	}

	// Six walkers: six concurrent misses all finish together.
	_, u6 := newTestIOMMU(64, 6)
	if err := u6.Map(0, 0, 16*Page4K, Page4K); err != nil {
		t.Fatal(err)
	}
	var worst sim.Time
	for i := 0; i < 6; i++ {
		r, _ := u6.Translate(0, uint64(i)*Page4K)
		if r.Ready > worst {
			worst = r.Ready
		}
	}
	if worst != 330*sim.Nanosecond {
		t.Errorf("6 misses on 6 walkers: worst ready %v, want 330ns", worst)
	}
}

// The paper's §6.5 inference: with 64 IO-TLB entries and 4KB pages, a
// working set of <= 256KB translates with ~100% hits in steady state; a
// larger working set misses persistently.
func TestTLBReachCliff(t *testing.T) {
	_, u := newTestIOMMU(64, 6)
	window := 4 << 20 // 4MB mapped
	if err := u.Map(0, 0, window, Page4K); err != nil {
		t.Fatal(err)
	}

	measure := func(pages int) float64 {
		u.InvalidateAll()
		u.ResetStats()
		// Two sequential passes; first warms the TLB.
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < pages; p++ {
				if _, err := u.Translate(0, uint64(p)*Page4K); err != nil {
					t.Fatal(err)
				}
			}
		}
		return float64(u.Hits) / float64(u.Hits+u.Misses)
	}

	if hr := measure(64); hr < 0.49 {
		t.Errorf("64-page working set hit rate = %.2f, want ~0.5 (all second-pass hits)", hr)
	}
	if hr := measure(128); hr > 0.01 {
		t.Errorf("128-page working set hit rate = %.2f, want ~0 (sequential sweep defeats LRU)", hr)
	}
}

func TestUnmapFlushes(t *testing.T) {
	_, u := newTestIOMMU(8, 1)
	if err := u.Map(0, 0, Page4K, Page4K); err != nil {
		t.Fatal(err)
	}
	u.Translate(0, 0)
	if u.TLBOccupancy() != 1 {
		t.Fatal("entry not installed")
	}
	if err := u.Unmap(0); err != nil {
		t.Fatal(err)
	}
	if u.TLBOccupancy() != 0 {
		t.Error("unmap did not invalidate")
	}
	if _, err := u.Translate(0, 0); !errors.Is(err, ErrUnmapped) {
		t.Errorf("translate after unmap: %v", err)
	}
	if err := u.Unmap(0x9000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmap missing: %v", err)
	}
}

func TestConfigClamping(t *testing.T) {
	k := sim.New(1)
	u := New(k, Config{TLBEntries: 0, Walkers: 0})
	if u.Config().TLBEntries != 1 || u.Config().Walkers != 1 {
		t.Errorf("clamping failed: %+v", u.Config())
	}
}

// Mappings installed out of IOVA order must resolve exactly like
// in-order installs: Map keeps the table sorted for the binary search.
func TestMapOutOfOrderLookup(t *testing.T) {
	_, u := newTestIOMMU(8, 1)
	regions := []struct{ iova, pa uint64 }{
		{0x40000, 0x940000}, {0x10000, 0x910000}, {0x30000, 0x930000}, {0x20000, 0x920000},
	}
	for _, r := range regions {
		if err := u.Map(r.iova, r.pa, 4*Page4K, Page4K); err != nil {
			t.Fatalf("map %#x: %v", r.iova, err)
		}
	}
	for _, r := range regions {
		res, err := u.Translate(0, r.iova+0x1040)
		if err != nil {
			t.Fatalf("translate %#x: %v", r.iova, err)
		}
		if want := r.pa + 0x1040; res.PA != want {
			t.Errorf("PA for %#x = %#x, want %#x", r.iova, res.PA, want)
		}
	}
	// Gaps between the regions still fault.
	if _, err := u.Translate(0, 0x10000+4*Page4K); !errors.Is(err, ErrUnmapped) {
		t.Errorf("gap translate: %v", err)
	}
	// Overlaps are rejected against sorted neighbors on both sides.
	if err := u.Map(0x0f000, 0, 2*Page4K, Page4K); err != ErrOverlap {
		t.Errorf("left-overlap: %v", err)
	}
	if err := u.Map(0x33000, 0, Page4K, Page4K); err != ErrOverlap {
		t.Errorf("inside-overlap: %v", err)
	}
}

func TestUnmapMiddleKeepsNeighbors(t *testing.T) {
	_, u := newTestIOMMU(8, 1)
	for _, iova := range []uint64{0x10000, 0x20000, 0x30000} {
		if err := u.Map(iova, iova+0x900000, 4*Page4K, Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Unmap(0x20000); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(0, 0x20000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped middle still translates: %v", err)
	}
	for _, iova := range []uint64{0x10000, 0x30000} {
		if _, err := u.Translate(0, iova); err != nil {
			t.Errorf("neighbor %#x lost: %v", iova, err)
		}
	}
}

// Translate is on every DMA's critical path; both the hit path (index
// lookup + LRU touch) and the steady-state miss path (binary search,
// walker reservation, tail eviction + reinstall) must not allocate.
// BenchmarkIOMMUTranslate reports the same property; this fails CI.
func TestTranslateZeroAlloc(t *testing.T) {
	_, u := newTestIOMMU(64, 6)
	window := 16 << 20
	if err := u.Map(0, 1<<30, window, Page4K); err != nil {
		t.Fatal(err)
	}
	var iova uint64
	hits := testing.AllocsPerRun(1000, func() {
		if _, err := u.Translate(0, iova%uint64(64*Page4K)); err != nil {
			t.Fatal(err)
		}
		iova += 64
	})
	if hits != 0 {
		t.Errorf("hit path allocates %.1f/op, want 0", hits)
	}
	misses := testing.AllocsPerRun(1000, func() {
		if _, err := u.Translate(0, iova); err != nil {
			t.Fatal(err)
		}
		iova += Page4K // new page every access: all misses, all evictions
	})
	if misses != 0 {
		t.Errorf("miss path allocates %.1f/op, want 0", misses)
	}
}

func TestResetStats(t *testing.T) {
	_, u := newTestIOMMU(4, 1)
	u.Map(0, 0, Page4K, Page4K)
	u.Translate(0, 0)
	u.Translate(0, 0x100000) // fault
	u.ResetStats()
	if u.Hits != 0 || u.Misses != 0 || u.Faults != 0 {
		t.Error("stats not reset")
	}
}

// Walker throughput cap: n misses through w walkers finish no earlier
// than ceil(n/w) * walkLatency — the Fig 9 bandwidth mechanism.
func TestWalkerThroughputCap(t *testing.T) {
	_, u := newTestIOMMU(4, 6) // tiny TLB so every access misses
	if err := u.Map(0, 0, 1024*Page4K, Page4K); err != nil {
		t.Fatal(err)
	}
	const n = 60
	var worst sim.Time
	for i := 0; i < n; i++ {
		r, err := u.Translate(0, uint64(i)*Page4K)
		if err != nil {
			t.Fatal(err)
		}
		if r.Ready > worst {
			worst = r.Ready
		}
	}
	want := sim.Time(n/6) * 330 * sim.Nanosecond
	if worst != want {
		t.Errorf("60 misses on 6 walkers finish at %v, want %v", worst, want)
	}
}
