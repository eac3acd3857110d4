package hostif

import (
	"testing"

	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/sim"
)

func testMem(t *testing.T) *mem.System {
	t.Helper()
	ms, err := mem.NewSystem(mem.Config{
		Nodes:         2,
		Cache:         mem.CacheConfig{SizeBytes: 64 << 10, Ways: 8, LineSize: 64, DDIOWays: 2},
		LLCLatency:    50 * sim.Nanosecond,
		DRAMLatency:   120 * sim.Nanosecond,
		RemoteLatency: 100 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestAllocModes(t *testing.T) {
	cases := []struct {
		mode       AllocMode
		size       int
		wantChunks int
	}{
		{Chunked4M, 1 << 20, 1},
		{Chunked4M, 10 << 20, 3}, // 4+4+2
		{Huge2M, 5 << 20, 3},     // 2+2+1
		{Huge1G, 64 << 20, 1},
	}
	for _, tc := range cases {
		h := New(testMem(t), nil)
		b, err := h.Alloc(tc.size, 0, tc.mode, 0)
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if b.Chunks() != tc.wantChunks {
			t.Errorf("%v size %d: chunks = %d, want %d", tc.mode, tc.size, b.Chunks(), tc.wantChunks)
		}
	}
}

func TestAllocErrors(t *testing.T) {
	h := New(testMem(t), nil)
	if _, err := h.Alloc(0, 0, Chunked4M, 0); err != ErrBadSize {
		t.Errorf("size 0: %v", err)
	}
	if _, err := h.Alloc(4096, 5, Chunked4M, 0); err != ErrBadNode {
		t.Errorf("bad node: %v", err)
	}
}

func TestChunksNotPhysicallyContiguous(t *testing.T) {
	h := New(testMem(t), nil)
	b, err := h.Alloc(12<<20, 0, Chunked4M, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Chunks() != 3 {
		t.Fatalf("chunks = %d", b.Chunks())
	}
	end0 := b.PhysAddr(0) + uint64(4<<20)
	start1 := b.PhysAddr(4 << 20)
	if start1 == end0 {
		t.Error("chunks are physically contiguous; the allocator should leave gaps")
	}
}

func TestDMAAddrWithoutIOMMUIsPA(t *testing.T) {
	h := New(testMem(t), nil)
	b, _ := h.Alloc(8<<20, 0, Chunked4M, 0)
	for _, off := range []int{0, 4096, 4 << 20, 8<<20 - 1} {
		if b.DMAAddr(off) != b.PhysAddr(off) {
			t.Errorf("off %d: dma %#x != pa %#x", off, b.DMAAddr(off), b.PhysAddr(off))
		}
	}
}

func TestDMAAddrWithIOMMUIsContiguous(t *testing.T) {
	k := sim.New(1)
	mmu := iommu.New(k, iommu.DefaultConfig())
	h := New(testMem(t), mmu)
	b, err := h.Alloc(12<<20, 0, Chunked4M, iommu.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	base := b.DMAAddr(0)
	// IOVA space is contiguous across chunk boundaries as long as chunk
	// sizes are page multiples.
	for _, off := range []int{0, 4096, 4 << 20, 4<<20 + 512, 11 << 20} {
		if got := b.DMAAddr(off); got != base+uint64(off) {
			t.Errorf("off %d: dma %#x, want %#x", off, got, base+uint64(off))
		}
	}
	// Translations resolve to the right physical addresses.
	r, err := mmu.Translate(0, b.DMAAddr(5<<20))
	if err != nil {
		t.Fatal(err)
	}
	if r.PA != b.PhysAddr(5<<20) {
		t.Errorf("translate(5MB) = %#x, want %#x", r.PA, b.PhysAddr(5<<20))
	}
}

func TestSuperpageVsForced4K(t *testing.T) {
	// With natural (superpage) mapping a 4MB buffer needs 2 IO-TLB
	// entries (2MB pages); with sp_off it needs 1024.
	k := sim.New(1)
	mmuSP := iommu.New(k, iommu.Config{TLBEntries: 2048, WalkLatency: 330 * sim.Nanosecond, Walkers: 2})
	hSP := New(testMem(t), mmuSP)
	bSP, err := hSP.Alloc(4<<20, 0, Chunked4M, 0) // natural: 2MB pages
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 4<<20; off += 4096 {
		if _, err := mmuSP.Translate(0, bSP.DMAAddr(off)); err != nil {
			t.Fatal(err)
		}
	}
	if mmuSP.Misses != 2 {
		t.Errorf("superpage misses = %d, want 2", mmuSP.Misses)
	}

	mmu4K := iommu.New(k, iommu.Config{TLBEntries: 2048, WalkLatency: 330 * sim.Nanosecond, Walkers: 2})
	h4K := New(testMem(t), mmu4K)
	b4K, err := h4K.Alloc(4<<20, 0, Chunked4M, iommu.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 4<<20; off += 4096 {
		if _, err := mmu4K.Translate(0, b4K.DMAAddr(off)); err != nil {
			t.Fatal(err)
		}
	}
	if mmu4K.Misses != 1024 {
		t.Errorf("sp_off misses = %d, want 1024", mmu4K.Misses)
	}
}

func TestHomeOf(t *testing.T) {
	h := New(testMem(t), nil)
	b0, _ := h.Alloc(1<<20, 0, Chunked4M, 0)
	b1, _ := h.Alloc(1<<20, 1, Chunked4M, 0)
	if got := h.HomeOf(b0.PhysAddr(0)); got != 0 {
		t.Errorf("node0 buffer homed at %d", got)
	}
	if got := h.HomeOf(b1.PhysAddr(0)); got != 1 {
		t.Errorf("node1 buffer homed at %d", got)
	}
	if got := h.HomeOf(0); got != 0 {
		t.Errorf("out-of-range PA homed at %d, want 0", got)
	}
}

func TestWarmingPaths(t *testing.T) {
	ms := testMem(t)
	h := New(ms, nil)
	b, _ := h.Alloc(8<<10, 0, Chunked4M, 0)

	b.WarmHost(0, 8<<10)
	if got := ms.Access(false, 0, b.PhysAddr(0), 64); got != 50*sim.Nanosecond {
		t.Errorf("after host warm: %v, want LLC", got)
	}

	h.Thrash()
	if got := ms.Access(false, 0, b.PhysAddr(0), 64); got != 120*sim.Nanosecond {
		t.Errorf("after thrash: %v, want DRAM", got)
	}

	b.WarmDevice(0, 8<<10)
	if got := ms.Access(false, 0, b.PhysAddr(4096), 64); got != 50*sim.Nanosecond {
		t.Errorf("after device warm: %v, want LLC", got)
	}
}

func TestWarmSpansChunks(t *testing.T) {
	ms := testMem(t)
	h := New(ms, nil)
	b, _ := h.Alloc(8<<20, 0, Chunked4M, 0) // two 4MB chunks
	// Warm a range straddling the chunk boundary.
	start := 4<<20 - 128
	b.WarmHost(start, 256)
	if got := ms.Access(false, 0, b.PhysAddr(4<<20-64), 64); got != 50*sim.Nanosecond {
		t.Error("pre-boundary line not warm")
	}
	if got := ms.Access(false, 0, b.PhysAddr(4<<20+64), 64); got != 50*sim.Nanosecond {
		t.Error("post-boundary line not warm")
	}
}

// A warm hands the memory system every physical extent of its window
// in one call. Its effect must be the per-line loop's over the same
// lines — resident lines, counters and occupancy — both on cold sets,
// where the evictions happen across chunks, and on live ones.
func TestWarmMatchesPerLine(t *testing.T) {
	const size = 10 << 20
	for _, tc := range []struct {
		mode      AllocMode
		off, size int
		device    bool
	}{
		{Chunked4M, 0, size, false},
		{Chunked4M, 4<<20 - 200, 4<<20 + 300, true}, // partial lines at both ends
		{Huge2M, 1<<20 + 8, 3 << 20, false},
		{Huge2M, 0, size, true},
	} {
		ms, ref := testMem(t), testMem(t)
		b, err := New(ms, nil).Alloc(size, 0, tc.mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, rc := ms.Node(0), ref.Node(0)
		for pass := 0; pass < 3; pass++ {
			if pass == 2 {
				ms.Thrash()
				ref.Thrash()
			}
			if tc.device {
				b.WarmDevice(tc.off, tc.size)
			} else {
				b.WarmHost(tc.off, tc.size)
			}
			for o := tc.off; o < tc.off+tc.size; {
				pa := b.PhysAddr(o)
				if tc.device {
					rc.DeviceWrite(pa/64*64, true)
				} else {
					rc.HostTouch(pa/64*64, true)
				}
				o += 64 - int(pa%64)
			}
			got := [6]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks, uint64(c.Occupancy()), uint64(c.DDIOOccupancy())}
			want := [6]uint64{rc.Hits, rc.Misses, rc.Evictions, rc.Writebacks, uint64(rc.Occupancy()), uint64(rc.DDIOOccupancy())}
			if got != want {
				t.Fatalf("%v %+v pass %d: hits/misses/evictions/writebacks/occupancy/ddio %v, per-line %v", tc.mode, tc, pass, got, want)
			}
			for o := 0; o < size; o += 64 {
				if pa := b.PhysAddr(o); c.Contains(pa) != rc.Contains(pa) {
					t.Fatalf("%v %+v pass %d: offset %d resident %v, per-line %v", tc.mode, tc, pass, o, c.Contains(pa), rc.Contains(pa))
				}
			}
		}
	}
}

// A warm reuses the buffer's extent slice: on live sets, where the
// memory system writes line by line, it allocates nothing.
func TestWarmZeroAlloc(t *testing.T) {
	b, err := New(testMem(t), nil).Alloc(10<<20, 0, Chunked4M, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.WarmHost(0, 10<<20)
	for name, warm := range map[string]func(off, size int){"WarmHost": b.WarmHost, "WarmDevice": b.WarmDevice} {
		if allocs := testing.AllocsPerRun(20, func() { warm(4<<20-64, 4<<20+128) }); allocs != 0 {
			t.Errorf("%s on live sets: %v allocs, want 0", name, allocs)
		}
	}
}

func TestBufferFree(t *testing.T) {
	k := sim.New(1)
	mmu := iommu.New(k, iommu.DefaultConfig())
	h := New(testMem(t), mmu)
	b, err := h.Alloc(8<<20, 0, Chunked4M, iommu.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	dma := b.DMAAddr(0)
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := mmu.Translate(0, dma); err == nil {
		t.Error("translate succeeded after Free")
	}
	// Freeing an IOMMU-less buffer is a no-op.
	h2 := New(testMem(t), nil)
	b2, _ := h2.Alloc(4096, 0, Chunked4M, 0)
	if err := b2.Free(); err != nil {
		t.Error(err)
	}
}

func TestDMAAddrPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	h := New(testMem(t), nil)
	b, _ := h.Alloc(4096, 0, Chunked4M, 0)
	b.DMAAddr(4096)
}

func TestAllocModeStrings(t *testing.T) {
	for m, want := range map[AllocMode]string{
		Chunked4M: "chunked-4M", Huge2M: "huge-2M", Huge1G: "huge-1G",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d: %q != %q", int(m), got, want)
		}
	}
}
