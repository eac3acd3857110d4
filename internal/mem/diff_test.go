package mem

import (
	"math/rand"
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
)

type diffOp struct {
	kind uint8
	addr uint64
}

// span is the address range the differential tests draw from: four
// times the cache, so lines both hit and get evicted.
func span(cfg CacheConfig) uint64 { return 4 * uint64(cfg.SizeBytes) }

// matchReference applies ops to a fresh Cache and a fresh reference
// cache and fails at the first divergence: any AccessResult, Contains
// of the accessed line, the four counters, and (every 16 ops and at the
// end) Occupancy and DDIOOccupancy. At the end Contains must also agree
// on every line of the span.
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
		if n%16 == 15 || n == len(ops)-1 {
			if g, w := c.Occupancy(), ref.Occupancy(); g != w {
				t.Fatalf("%+v after op %d: Occupancy %d, reference %d", cfg, n, g, w)
			}
			if g, w := c.DDIOOccupancy(), ref.DDIOOccupancy(); g != w {
				t.Fatalf("%+v after op %d: DDIOOccupancy %d, reference %d", cfg, n, g, w)
			}
		}
	}
	for a := uint64(0); a < span(cfg); a += uint64(cfg.LineSize) {
		if g, w := c.Contains(a), ref.Contains(a); g != w {
			t.Fatalf("%+v after %d ops: Contains(%#x) %v, reference %v", cfg, len(ops), a, g, w)
		}
	}
}

// randomOps draws n operations: mostly within a hot window the size of
// the cache (hits, LRU churn), a quarter across the whole span
// (evictions, DDIO quota pressure), and a rare Thrash.
func randomOps(cfg CacheConfig, rng *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		addr := uint64(rng.Int63n(int64(cfg.SizeBytes)))
		if rng.Intn(4) == 0 {
			addr = uint64(rng.Int63n(int64(span(cfg))))
		}
		kind := uint8(rng.Intn(int(opThrash)))
		if rng.Intn(2000) == 0 {
			kind = opThrash
		}
		ops[i] = diffOp{kind: kind, addr: addr}
	}
	return ops
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
// kind byte (Thrash only when it is 0xff, so state builds up between
// thrashes) and a 16-bit address in 8-byte units, wrapped to the span.
func decodeOps(data []byte) (CacheConfig, []diffOp) {
	if len(data) == 0 {
		return refGeometries[0], nil
	}
	cfg := refGeometries[int(data[0])%len(refGeometries)]
	var ops []diffOp
	for data = data[1:]; len(data) >= 3 && len(ops) < maxFuzzOps; data = data[3:] {
		kind := data[0] % opThrash
		if data[0] == 0xff {
			kind = opThrash
		}
		addr := (uint64(data[1]) | uint64(data[2])<<8) * 8 % span(cfg)
		ops = append(ops, diffOp{kind: kind, addr: addr})
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
