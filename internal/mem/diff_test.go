package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// refGeometries are the cache shapes the differential tests drive the
// paged Cache and the eager reference through.
var refGeometries = []CacheConfig{
	// 4 sets x 4 ways: one partial page, DDIO quota of one way.
	{SizeBytes: 4 * 4 * 64, Ways: 4, LineSize: 64, DDIOWays: 1},
	// 100 sets: a full page plus a partial one.
	{SizeBytes: 100 * 20 * 64, Ways: 20, LineSize: 64, DDIOWays: 2},
	// A line size that is not a power of two takes the division path.
	{SizeBytes: 70 * 8 * 96, Ways: 8, LineSize: 96, DDIOWays: 2},
	// Three pages with a wider DDIO quota.
	{SizeBytes: 130 * 16 * 64, Ways: 16, LineSize: 64, DDIOWays: 4},
}

// Operation kinds of the differential tests.
const (
	opRead uint8 = iota
	opWriteFull
	opWritePartial
	opHostRead
	opHostWrite
	opThrash
	opWarmHost
	opWarmDevice
)

type diffOp struct {
	kind uint8
	addr uint64
	ext  []Extent // the warm's extents (opWarmHost, opWarmDevice)
}

// span is the address range the differential tests draw from: four
// times the cache, so lines both hit and get evicted.
func span(cfg CacheConfig) uint64 { return 4 * uint64(cfg.SizeBytes) }

// matchReference applies ops to a fresh Cache and a fresh reference
// cache and fails at the first divergence: any AccessResult, Contains
// of the accessed line, the four counters, and (every 16 ops, after
// every warm and at the end) Occupancy, DDIOOccupancy and the state of
// every way. The Cache applies a warm through warm, in closed form when
// its sets are cold; the reference applies it line by line. At the end
// Contains must also agree on every line of the span.
func matchReference(t testing.TB, cfg CacheConfig, ops []diffOp) {
	t.Helper()
	c, ref := NewCache(cfg), newRefCache(cfg)
	if c.Sets() != ref.Sets() || c.Config() != ref.Config() {
		t.Fatalf("%+v: geometry %d sets %+v, reference %d sets %+v", cfg, c.Sets(), c.Config(), ref.Sets(), ref.Config())
	}
	for n, op := range ops {
		var got, want AccessResult
		switch op.kind {
		case opRead:
			got, want = c.DeviceRead(op.addr), ref.DeviceRead(op.addr)
		case opWriteFull, opWritePartial:
			full := op.kind == opWriteFull
			got, want = c.DeviceWrite(op.addr, full), ref.DeviceWrite(op.addr, full)
		case opHostRead, opHostWrite:
			write := op.kind == opHostWrite
			got, want = c.HostTouch(op.addr, write), ref.HostTouch(op.addr, write)
		case opThrash:
			c.Thrash()
			ref.Thrash()
		case opWarmHost, opWarmDevice:
			device := op.kind == opWarmDevice
			c.warm(op.ext, device)
			refWarm(ref, op.ext, device)
		}
		if got != want {
			t.Fatalf("%+v op %d %+v: result %+v, reference %+v", cfg, n, op, got, want)
		}
		if g, w := c.Contains(op.addr), ref.Contains(op.addr); g != w {
			t.Fatalf("%+v op %d %+v: Contains %v, reference %v", cfg, n, op, g, w)
		}
		g := [4]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks}
		w := [4]uint64{ref.Hits, ref.Misses, ref.Evictions, ref.Writebacks}
		if g != w {
			t.Fatalf("%+v op %d %+v: hits/misses/evictions/writebacks %v, reference %v", cfg, n, op, g, w)
		}
		if n%16 == 15 || n == len(ops)-1 || op.kind >= opWarmHost {
			if g, w := c.Occupancy(), ref.Occupancy(); g != w {
				t.Fatalf("%+v after op %d: Occupancy %d, reference %d", cfg, n, g, w)
			}
			if g, w := c.DDIOOccupancy(), ref.DDIOOccupancy(); g != w {
				t.Fatalf("%+v after op %d: DDIOOccupancy %d, reference %d", cfg, n, g, w)
			}
			matchWays(t, c, ref, n, op)
		}
	}
	for a := uint64(0); a < span(cfg); a += uint64(cfg.LineSize) {
		if g, w := c.Contains(a), ref.Contains(a); g != w {
			t.Fatalf("%+v after %d ops: Contains(%#x) %v, reference %v", cfg, len(ops), a, g, w)
		}
	}
}

// refWarm applies a warm to the reference one line at a time, in
// order, as host writes or full-line device writes.
func refWarm(ref *refCache, ext []Extent, device bool) {
	line := uint64(ref.cfg.LineSize)
	for _, e := range ext {
		end := e.Addr + uint64(e.Size)
		for a := e.Addr / line * line; a < end; a += line {
			if device {
				ref.DeviceWrite(a, true)
			} else {
				ref.HostTouch(a, true)
			}
		}
	}
}

// matchWays fails unless c and ref hold the same LRU clock and every way
// of every set holds the same line in both: validity, then tag, LRU
// stamp, state and DDIO allocation.
func matchWays(t testing.TB, c *Cache, ref *refCache, n int, op diffOp) {
	t.Helper()
	if c.clock != ref.clock {
		t.Fatalf("%+v after op %d %+v: clock %d, reference %d", c.cfg, n, op, c.clock, ref.clock)
	}
	for s := range ref.sets {
		p := c.live(uint64(s) >> pageShift)
		for w := range ref.sets[s].ways {
			rw := &ref.sets[s].ways[w]
			want := ref.stateOf(rw) != Invalid
			var m uint8
			var tag, use uint64
			if p != nil {
				i := (s&(pageSets-1))*c.cfg.Ways + w
				m, tag, use = p.meta[i], p.tags[i], p.use[i]
			}
			if got := m != 0; got != want || want && (tag != rw.tag || use != rw.use ||
				LineState(m&stateMask) != rw.state || (m&ddioBit != 0) != rw.ddio) {
				t.Fatalf("%+v after op %d %+v: set %d way %d: valid %v tag %d use %d meta %#x, reference valid %v %+v",
					c.cfg, n, op, s, w, got, tag, use, m, want, *rw)
			}
		}
	}
}

// randomOps draws n operations: mostly within a hot window the size of
// the cache (hits, LRU churn), a quarter across the whole span
// (evictions, DDIO quota pressure), a rare Thrash, and one in 64 a host
// or device warm, after a Thrash half the time so its sets are cold.
func randomOps(cfg CacheConfig, rng *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, 0, n)
	for len(ops) < n {
		addr := uint64(rng.Int63n(int64(cfg.SizeBytes)))
		if rng.Intn(4) == 0 {
			addr = uint64(rng.Int63n(int64(span(cfg))))
		}
		kind := uint8(rng.Intn(int(opThrash)))
		if rng.Intn(2000) == 0 {
			kind = opThrash
		}
		if rng.Intn(64) == 0 {
			if rng.Intn(2) == 0 {
				ops = append(ops, diffOp{kind: opThrash})
			}
			kind = opWarmHost + uint8(rng.Intn(2))
		}
		op := diffOp{kind: kind, addr: addr}
		if kind >= opWarmHost {
			op.ext = randomExtents(cfg, rng, addr)
		}
		ops = append(ops, op)
	}
	return ops[:n]
}

// randomExtents draws one to four extents from addr. Each covers part
// of a line to a whole cache, and most start past the previous one's
// end: ascending, but sharing a line when the gap is shorter than a
// line and the ends fall mid-line. One warm in eight overlaps and one in
// eight descends, so the per-line loop runs too.
func randomExtents(cfg CacheConfig, rng *rand.Rand, addr uint64) []Extent {
	ext := make([]Extent, 1+rng.Intn(4))
	for i := range ext {
		size := 1 + rng.Intn(cfg.SizeBytes)
		ext[i] = Extent{Addr: addr, Size: size}
		addr += uint64(size + rng.Intn(4*cfg.LineSize))
	}
	switch rng.Intn(8) {
	case 0:
		for i := 1; i < len(ext); i++ {
			ext[i].Addr = ext[i-1].Addr + uint64(rng.Intn(ext[i-1].Size))
		}
	case 1:
		slices.Reverse(ext)
	}
	return ext
}

// TestCacheMatchesReference holds the paged Cache to the eager
// reference over seeded random operation streams on every geometry.
func TestCacheMatchesReference(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	for _, cfg := range refGeometries {
		for _, seed := range []int64{1, 7, 13} {
			matchReference(t, cfg, randomOps(cfg, rand.New(rand.NewSource(seed)), n))
		}
	}
}

// maxFuzzOps bounds one fuzz input, keeping every execution cheap.
const maxFuzzOps = 1024

// decodeOps turns fuzz input into a geometry and operations. The first
// byte picks the geometry; each following 3-byte group is one op: a
// kind byte and a 16-bit address in 8-byte units, wrapped to the span.
// Kind 0xff is Thrash, so state builds up between thrashes. Kinds
// 0xf0–0xfe are warms: the low bit picks a device warm, the next two
// bits one to four extents, and each extent is the next group: its
// first byte b makes the size (b+1)/256 of the cache and its address is
// the extent's start.
func decodeOps(data []byte) (CacheConfig, []diffOp) {
	if len(data) == 0 {
		return refGeometries[0], nil
	}
	cfg := refGeometries[int(data[0])%len(refGeometries)]
	addrOf := func(g []byte) uint64 { return (uint64(g[1]) | uint64(g[2])<<8) * 8 % span(cfg) }
	var ops []diffOp
	for data = data[1:]; len(data) >= 3 && len(ops) < maxFuzzOps; data = data[3:] {
		op := diffOp{kind: data[0] % opThrash, addr: addrOf(data)}
		switch {
		case data[0] == 0xff:
			op.kind = opThrash
		case data[0] >= 0xf0:
			op.kind = opWarmHost + data[0]&1
			for range 1 + int(data[0]>>1&3) {
				if len(data) < 6 {
					break
				}
				data = data[3:]
				size := (int(data[0]) + 1) * cfg.SizeBytes / 256
				op.ext = append(op.ext, Extent{Addr: addrOf(data), Size: size})
			}
		}
		ops = append(ops, op)
	}
	return cfg, ops
}

// FuzzCacheMatchesReference holds the paged Cache to the eager
// reference on arbitrary operation streams; the seed corpus is in
// testdata/fuzz/FuzzCacheMatchesReference.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := decodeOps(data)
		matchReference(t, cfg, ops)
	})
}
