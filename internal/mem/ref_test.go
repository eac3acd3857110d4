package mem

// The eager LLC model this package shipped before the paged directory:
// one way record per modeled line, allocated and zeroed up front, with
// a per-way Thrash epoch. It is kept verbatim (only renamed) as the
// oracle the differential and fuzz tests hold Cache to, op for op.

type refWay struct {
	tag   uint64
	use   uint64 // global LRU clock value of last touch
	epoch uint64 // Thrash generation that allocated the line
	state LineState
	ddio  bool // allocated by a device write (counts against the DDIO quota)
}

type refSet struct {
	ways []refWay
}

// refCache is a set-associative last-level cache with true-LRU replacement
// and a per-set DDIO allocation quota. It tracks only metadata (tags and
// states), not data.
type refCache struct {
	cfg   CacheConfig
	sets  []refSet
	clock uint64
	// epoch implements O(1) Thrash: a line is valid only when its epoch
	// matches the cache's, so bumping the cache epoch invalidates every
	// line without rewriting the (multi-megabyte) way metadata. The
	// benchmark harness thrashes before every run, so this dominates
	// setup cost for short runs and sweep grids.
	epoch uint64

	// Address-decomposition constants hoisted out of the access path:
	// when LineSize is a power of two (the practical case) lineShift
	// replaces the division, and nsets caches the set-count divisor.
	lineShift int // -1 when LineSize is not a power of two
	nsets     uint64

	// Statistics.
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// newRefCache builds a cache; SizeBytes must be a multiple of Ways*LineSize.
func newRefCache(cfg CacheConfig) *refCache {
	if cfg.LineSize <= 0 {
		cfg.LineSize = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 16
	}
	if cfg.DDIOWays <= 0 || cfg.DDIOWays > cfg.Ways {
		cfg.DDIOWays = cfg.Ways
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineSize)
	if nsets < 1 {
		nsets = 1
	}
	c := &refCache{cfg: cfg, sets: make([]refSet, nsets), nsets: uint64(nsets)}
	c.lineShift = -1
	if ls := uint64(cfg.LineSize); ls&(ls-1) == 0 {
		for s := 0; uint64(1)<<s <= ls; s++ {
			if uint64(1)<<s == ls {
				c.lineShift = s
				break
			}
		}
	}
	// One backing array for every set's ways: building a large LLC is
	// two allocations instead of one per set, which dominates the cost
	// of assembling a system instance (sweeps build one per grid cell).
	backing := make([]refWay, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i].ways = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return c
}

// locate decomposes addr into its set and tag in one step. The tag is
// the line number (identical to tagFor); the set is the line number
// modulo the set count (identical to setFor).
func (c *refCache) locate(addr uint64) (*refSet, uint64) {
	var line uint64
	if c.lineShift >= 0 {
		line = addr >> c.lineShift
	} else {
		line = addr / uint64(c.cfg.LineSize)
	}
	return &c.sets[line%c.nsets], line
}

// Config returns the cache geometry.
func (c *refCache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *refCache) Sets() int { return len(c.sets) }

// stateOf returns the effective state of a way: lines allocated before
// the last Thrash are Invalid regardless of their stored state.
func (c *refCache) stateOf(w *refWay) LineState {
	if w.epoch != c.epoch {
		return Invalid
	}
	return w.state
}

// Contains reports whether the line holding addr is resident, without
// disturbing LRU state or statistics.
func (c *refCache) Contains(addr uint64) bool {
	s, tag := c.locate(addr)
	return c.lookup(s, tag) >= 0
}

// lookup returns the way index of the line in s, or -1.
func (c *refCache) lookup(s *refSet, tag uint64) int {
	for i := range s.ways {
		w := &s.ways[i]
		if w.state != Invalid && w.epoch == c.epoch && w.tag == tag {
			return i
		}
	}
	return -1
}

// DeviceRead performs a DMA-read lookup of the line holding addr. Per
// DDIO semantics reads are serviced from the cache on a hit but do not
// allocate on a miss.
func (c *refCache) DeviceRead(addr uint64) AccessResult {
	c.clock++
	s, tag := c.locate(addr)
	if i := c.lookup(s, tag); i >= 0 {
		s.ways[i].use = c.clock
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	return AccessResult{Fetched: true}
}

// DeviceWrite performs a DMA-write access to the line holding addr.
// fullLine indicates the write covers the entire cache line. On a miss
// the line is allocated within the DDIO quota; a partial-line miss
// additionally fetches the line from memory (read-modify-write), which
// is the DDIO latency penalty the paper measures.
func (c *refCache) DeviceWrite(addr uint64, fullLine bool) AccessResult {
	c.clock++
	s, tag := c.locate(addr)
	if i := c.lookup(s, tag); i >= 0 {
		s.ways[i].use = c.clock
		s.ways[i].state = Dirty
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	res := AccessResult{Fetched: !fullLine}
	v := c.victimDDIO(s)
	if st := c.stateOf(&s.ways[v]); st == Dirty {
		c.Writebacks++
		res.EvictedDirty = true
		c.Evictions++
	} else if st != Invalid {
		c.Evictions++
	}
	s.ways[v] = refWay{tag: tag, state: Dirty, ddio: true, use: c.clock, epoch: c.epoch}
	return res
}

// HostTouch simulates the CPU reading (write=false) or writing
// (write=true) the line holding addr, allocating anywhere in the set.
// Used by the cache-warming control interface (paper §4: "host warm").
func (c *refCache) HostTouch(addr uint64, write bool) AccessResult {
	c.clock++
	s, tag := c.locate(addr)
	if i := c.lookup(s, tag); i >= 0 {
		s.ways[i].use = c.clock
		if write {
			s.ways[i].state = Dirty
		}
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	res := AccessResult{Fetched: true}
	v := c.victimAny(s)
	if vst := c.stateOf(&s.ways[v]); vst == Dirty {
		c.Writebacks++
		res.EvictedDirty = true
		c.Evictions++
	} else if vst != Invalid {
		c.Evictions++
	}
	st := Clean
	if write {
		st = Dirty
	}
	s.ways[v] = refWay{tag: tag, state: st, ddio: false, use: c.clock, epoch: c.epoch}
	return res
}

// victimAny picks an invalid way or the global LRU way.
func (c *refCache) victimAny(s *refSet) int {
	best := -1
	for i := range s.ways {
		if c.stateOf(&s.ways[i]) == Invalid {
			return i
		}
		if best < 0 || s.ways[i].use < s.ways[best].use {
			best = i
		}
	}
	return best
}

// victimDDIO picks a victim for a device-write allocation. The DDIO
// quota is a hard cap: once the set holds DDIOWays device-allocated
// lines, a new device write must recycle the LRU one of those — even if
// invalid ways exist — because the hardware dedicates specific ways to
// IO allocation. Below the quota, an invalid way is preferred, then the
// set-global LRU way.
func (c *refCache) victimDDIO(s *refSet) int {
	ddioCount := 0
	bestAll, bestDDIO, firstInvalid := -1, -1, -1
	for i := range s.ways {
		if c.stateOf(&s.ways[i]) == Invalid {
			if firstInvalid < 0 {
				firstInvalid = i
			}
			continue
		}
		if bestAll < 0 || s.ways[i].use < s.ways[bestAll].use {
			bestAll = i
		}
		if s.ways[i].ddio {
			ddioCount++
			if bestDDIO < 0 || s.ways[i].use < s.ways[bestDDIO].use {
				bestDDIO = i
			}
		}
	}
	if ddioCount >= c.cfg.DDIOWays {
		return bestDDIO
	}
	if firstInvalid >= 0 {
		return firstInvalid
	}
	return bestAll
}

// Thrash resets the cache to a cold state, as the paper's control
// programs do before every benchmark run. It is O(1): bumping the
// cache epoch invalidates every line lazily instead of rewriting the
// way metadata of the entire LLC.
func (c *refCache) Thrash() {
	c.epoch++
}

// ResetStats zeroes the statistics counters.
func (c *refCache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
}

// Occupancy returns the number of resident (non-invalid) lines.
func (c *refCache) Occupancy() int {
	n := 0
	for i := range c.sets {
		for j := range c.sets[i].ways {
			if c.stateOf(&c.sets[i].ways[j]) != Invalid {
				n++
			}
		}
	}
	return n
}

// DDIOOccupancy returns the number of resident device-allocated lines.
func (c *refCache) DDIOOccupancy() int {
	n := 0
	for i := range c.sets {
		for j := range c.sets[i].ways {
			if c.stateOf(&c.sets[i].ways[j]) != Invalid && c.sets[i].ways[j].ddio {
				n++
			}
		}
	}
	return n
}
