// Package mem models the end-host memory system a PCIe root complex
// talks to: per-node last-level caches with a DDIO-style restricted
// allocation region for device writes, DRAM behind them, and a NUMA
// interconnect between sockets.
//
// The model captures exactly the mechanisms the paper's §6.3 and §6.4
// experiments exercise:
//
//   - DMA reads are serviced from the LLC when the line is resident
//     (~70 ns cheaper than DRAM) and do not allocate on a miss.
//   - DMA writes allocate into a bounded number of lines per set (Intel
//     documents ~10% of the LLC for DDIO); a partial-line write to a
//     non-resident line forces a read-modify-write fetch from DRAM,
//     which is the latency penalty the paper observes once the access
//     window outgrows the DDIO region.
//   - Accesses whose home is the remote socket pay the interconnect
//     latency.
//
// The LLC is modeled at full size (15–25 MB in Table 1), but a run only
// touches its own buffers, so set storage is paged and allocated on the
// first write into a page: building a system allocates no line
// metadata at all. A released system's pages go back to a pool, and
// the next system to write into a page takes its storage from there.
package mem

import "sync"

// LineState is the state of one cache line.
type LineState uint8

// Cache line states.
const (
	Invalid LineState = iota
	Clean
	Dirty
)

// pageSets is the number of consecutive sets one directory page holds.
// A 20-way page is ~22 KB.
const (
	pageShift = 6
	pageSets  = 1 << pageShift
)

// Per-way state byte: the LineState in the low bits, plus ddioBit when
// a device write allocated the line (it counts against the DDIO quota).
// Zero is Invalid.
const (
	stateMask uint8 = 3
	ddioBit   uint8 = 4
)

// page stores pageSets consecutive sets as a structure of arrays: way w
// of the page's s-th set sits at index s*Ways+w of each array.
type page struct {
	epoch uint64   // Thrash generation the page's lines belong to
	tags  []uint64 // line number held by each way
	use   []uint64 // global LRU clock value of each way's last touch
	meta  []uint8  // LineState | ddioBit of each way
}

// CacheConfig shapes a set-associative LLC.
type CacheConfig struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineSize  int // bytes per line
	DDIOWays  int // max lines per set allocatable by device writes
}

// Cache is a set-associative last-level cache with true-LRU replacement
// and a per-set DDIO allocation quota. It tracks only metadata (tags and
// states), not data.
//
// Sets live in a paged directory. A page is allocated on its first
// mutating touch (DeviceWrite, HostTouch); until then every line in it
// is Invalid, and DeviceRead and Contains on it miss without allocating,
// just as DDIO reads never allocate lines.
type Cache struct {
	cfg   CacheConfig
	pages []*page // nil until the page's first mutating touch
	clock uint64
	// epoch implements O(1) Thrash: a page is live only when its epoch
	// matches the cache's, so bumping the cache epoch invalidates every
	// line at once. A stale page reads as all-Invalid and is cleared on
	// its next mutating touch. The benchmark harness thrashes before
	// every run.
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

// NewCache builds a cache; SizeBytes must be a multiple of Ways*LineSize.
// It allocates only the page directory.
func NewCache(cfg CacheConfig) *Cache {
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
	c := &Cache{
		cfg:   cfg,
		pages: make([]*page, (nsets+pageSets-1)/pageSets),
		nsets: uint64(nsets),
	}
	c.lineShift = -1
	if ls := uint64(cfg.LineSize); ls&(ls-1) == 0 {
		for s := 0; uint64(1)<<s <= ls; s++ {
			if uint64(1)<<s == ls {
				c.lineShift = s
				break
			}
		}
	}
	return c
}

// locate decomposes addr into its tag (the line number), the directory
// index of its set's page, and the offset of the set's first way in
// that page.
func (c *Cache) locate(addr uint64) (pi uint64, base int, tag uint64) {
	if c.lineShift >= 0 {
		tag = addr >> c.lineShift
	} else {
		tag = addr / uint64(c.cfg.LineSize)
	}
	set := tag % c.nsets
	return set >> pageShift, int(set&(pageSets-1)) * c.cfg.Ways, tag
}

// live returns page pi when it holds lines of the current epoch, else
// nil (unallocated or stale: every line Invalid).
func (c *Cache) live(pi uint64) *page {
	if p := c.pages[pi]; p != nil && p.epoch == c.epoch {
		return p
	}
	return nil
}

// own returns page pi ready for a mutating touch: taken on first use
// from the pool, or allocated when the pool is empty, and cleared when
// it still holds lines from before the last Thrash or from the cache
// that released it. A cleared page's tags and stamps are stale, but
// every reader checks a way's state byte first.
func (c *Cache) own(pi uint64) *page {
	p := c.pages[pi]
	switch {
	case p == nil:
		n := int(min(pageSets, c.nsets-pi<<pageShift)) * c.cfg.Ways
		if p, _ = pagePool(n).Get().(*page); p != nil {
			clear(p.meta)
		} else {
			lines := make([]uint64, 2*n)
			p = &page{tags: lines[:n:n], use: lines[n:], meta: make([]uint8, n)}
		}
		c.pages[pi] = p
	case p.epoch != c.epoch:
		clear(p.meta)
	}
	p.epoch = c.epoch
	return p
}

// release returns every allocated page to its pool and drops the
// directory, so any later access panics instead of reading pages that
// another cache may own by then.
func (c *Cache) release() {
	for _, p := range c.pages {
		if p != nil {
			pagePool(len(p.meta)).Put(p)
		}
	}
	c.pages = nil
}

// Released pages wait in pagePools, keyed by slot count (sets in the
// page × Ways), for the next cache that needs one: the 15 MB and 25 MB
// LLCs of Table 1, all 20-way, share full pages, and a partial last
// page has a pool of its own. A sync.Pool hands its pages to the
// collector when nobody takes them, so an idle pool holds nothing.
var (
	pagePoolsMu sync.Mutex
	pagePools   = map[int]*sync.Pool{}
)

// pagePool returns the pool of pages with n slots.
func pagePool(n int) *sync.Pool {
	pagePoolsMu.Lock()
	defer pagePoolsMu.Unlock()
	p := pagePools[n]
	if p == nil {
		p = new(sync.Pool)
		pagePools[n] = p
	}
	return p
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.nsets) }

// Contains reports whether the line holding addr is resident, without
// disturbing LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	pi, base, tag := c.locate(addr)
	p := c.live(pi)
	return p != nil && p.find(base, c.cfg.Ways, tag) >= 0
}

// find returns the page index of the way holding tag in the set whose
// ways start at base, or -1.
func (p *page) find(base, ways int, tag uint64) int {
	tags := p.tags[base : base+ways]
	meta := p.meta[base : base+ways]
	meta = meta[:len(tags)]
	for i, t := range tags {
		if t == tag && meta[i] != 0 {
			return base + i
		}
	}
	return -1
}

// AccessResult describes one line-granular cache access.
type AccessResult struct {
	Hit          bool
	Fetched      bool // line was (or had to be) fetched from memory
	EvictedDirty bool // allocation displaced a dirty line (write-back)
}

// DeviceRead performs a DMA-read lookup of the line holding addr. Per
// DDIO semantics reads are serviced from the cache on a hit but do not
// allocate on a miss.
func (c *Cache) DeviceRead(addr uint64) AccessResult {
	c.clock++
	pi, base, tag := c.locate(addr)
	if p := c.live(pi); p != nil {
		if i := p.find(base, c.cfg.Ways, tag); i >= 0 {
			p.use[i] = c.clock
			c.Hits++
			return AccessResult{Hit: true}
		}
	}
	c.Misses++
	return AccessResult{Fetched: true}
}

// DeviceWrite performs a DMA-write access to the line holding addr.
// fullLine indicates the write covers the entire cache line. On a miss
// the line is allocated within the DDIO quota; a partial-line miss
// additionally fetches the line from memory (read-modify-write), which
// is the DDIO latency penalty the paper measures.
func (c *Cache) DeviceWrite(addr uint64, fullLine bool) AccessResult {
	c.clock++
	pi, base, tag := c.locate(addr)
	p := c.own(pi)
	if i := p.find(base, c.cfg.Ways, tag); i >= 0 {
		p.use[i] = c.clock
		p.meta[i] = p.meta[i]&ddioBit | uint8(Dirty)
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	v := p.victimDDIO(base, c.cfg.Ways, c.cfg.DDIOWays)
	return AccessResult{Fetched: !fullLine, EvictedDirty: c.fill(p, v, tag, uint8(Dirty)|ddioBit)}
}

// HostTouch simulates the CPU reading (write=false) or writing
// (write=true) the line holding addr, allocating anywhere in the set.
// Used by the cache-warming control interface (paper §4: "host warm").
func (c *Cache) HostTouch(addr uint64, write bool) AccessResult {
	c.clock++
	pi, base, tag := c.locate(addr)
	p := c.own(pi)
	if i := p.find(base, c.cfg.Ways, tag); i >= 0 {
		p.use[i] = c.clock
		if write {
			p.meta[i] = p.meta[i]&ddioBit | uint8(Dirty)
		}
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	st := uint8(Clean)
	if write {
		st = uint8(Dirty)
	}
	v := p.victimAny(base, c.cfg.Ways)
	return AccessResult{Fetched: true, EvictedDirty: c.fill(p, v, tag, st)}
}

// fill installs tag with state meta in way v, counting the eviction of
// the line it held, if any. It reports whether that line was dirty.
func (c *Cache) fill(p *page, v int, tag uint64, meta uint8) bool {
	dirty := false
	switch LineState(p.meta[v] & stateMask) {
	case Dirty:
		c.Writebacks++
		c.Evictions++
		dirty = true
	case Clean:
		c.Evictions++
	}
	p.tags[v], p.use[v], p.meta[v] = tag, c.clock, meta
	return dirty
}

// victimAny picks the set's first invalid way, or its LRU way.
func (p *page) victimAny(base, ways int) int {
	meta := p.meta[base : base+ways]
	use := p.use[base : base+ways]
	use = use[:len(meta)]
	best := -1
	for i, m := range meta {
		if m == 0 {
			return base + i
		}
		if best < 0 || use[i] < use[best] {
			best = i
		}
	}
	return base + best
}

// victimDDIO picks a victim for a device-write allocation. The DDIO
// quota is a hard cap: once the set holds quota device-allocated lines,
// a new device write must recycle the LRU one of those — even if
// invalid ways exist — because the hardware dedicates specific ways to
// IO allocation. Below the quota, an invalid way is preferred, then the
// set-global LRU way.
func (p *page) victimDDIO(base, ways, quota int) int {
	meta := p.meta[base : base+ways]
	use := p.use[base : base+ways]
	use = use[:len(meta)]
	ddioCount := 0
	bestAll, bestDDIO, firstInvalid := -1, -1, -1
	for i, m := range meta {
		if m == 0 {
			if firstInvalid < 0 {
				firstInvalid = i
			}
			continue
		}
		if bestAll < 0 || use[i] < use[bestAll] {
			bestAll = i
		}
		if m&ddioBit != 0 {
			ddioCount++
			if bestDDIO < 0 || use[i] < use[bestDDIO] {
				bestDDIO = i
			}
		}
	}
	if ddioCount >= quota {
		return base + bestDDIO
	}
	if firstInvalid >= 0 {
		return base + firstInvalid
	}
	return base + bestAll
}

// warm writes every line of extents, in order: as host writes
// (HostTouch, any way of the set) or, when device is set, as full-line
// device writes (DeviceWrite, within the DDIO quota). Results,
// counters and LRU state are those of the per-line loop.
//
// A warm into cold sets is applied in closed form. When no set the warm
// touches holds a live line and the extents ascend without sharing a
// line, every line misses, and the m-th line a set receives lands in
// way m mod q, q being the ways it may allocate (Ways for the host,
// DDIOWays for the device): the first q fill the set's invalid ways in
// order, and each later one evicts the least recently written, which
// is the line q before it. So only a set's last q lines survive, and
// every other line is evicted, dirty, by a later line of the same warm.
// The closed form writes just the survivors with the stamps the loop
// would give them and counts the rest in bulk. Right after Thrash, and
// on a fresh cache, every set is cold.
func (c *Cache) warm(extents []Extent, device bool) {
	if !c.cold(extents) {
		line := uint64(c.cfg.LineSize)
		for _, e := range extents {
			end := e.Addr + uint64(e.Size)
			for a := e.Addr / line * line; a < end; a += line {
				if device {
					c.DeviceWrite(a, true)
				} else {
					c.HostTouch(a, true)
				}
			}
		}
		return
	}
	q, meta := uint64(c.cfg.Ways), uint8(Dirty)
	if device {
		q, meta = uint64(c.cfg.DDIOWays), uint8(Dirty)|ddioBit
	}
	nsets := c.nsets
	counts := warmCounts.Get().(*[]uint32)
	if uint64(len(*counts)) < 2*nsets {
		*counts = make([]uint32, 2*nsets)
	}
	// total[s] counts the warm's lines in set s; seen[s] those in the
	// extents already written. Both return to zero with the set's last
	// extent, so the pool holds zeroed counters.
	total, seen := (*counts)[:nsets], (*counts)[nsets:2*nsets]
	for _, e := range extents {
		first, n := c.span(e)
		full, part := n/nsets, n%nsets
		s := first % nsets
		for i := range min(n, nsets) {
			total[s] += uint32(full + b2u(i < part))
			if s++; s == nsets {
				s = 0
			}
		}
	}
	var g, evicted uint64 // g: the warm's lines before the extent
	for _, e := range extents {
		first, n := c.span(e)
		full, part := n/nsets, n%nsets
		s := first % nsets
		for i := range min(n, nsets) {
			// The extent's k lines in set s are first+i+j*nsets for
			// j < k; a line survives when fewer than q of the set's
			// lines follow it.
			k := full + b2u(i < part)
			before := uint64(seen[s])
			after := uint64(total[s]) - before - k
			keep := min(k, q-min(q, after))
			evicted += k - keep
			if keep > 0 {
				p := c.own(s >> pageShift)
				base := int(s&(pageSets-1)) * c.cfg.Ways
				for j := k - keep; j < k; j++ {
					w := base + int((before+j)%q)
					off := i + j*nsets
					p.tags[w], p.use[w], p.meta[w] = first+off, c.clock+1+g+off, meta
				}
			}
			if seen[s] += uint32(k); seen[s] == total[s] {
				seen[s], total[s] = 0, 0
			}
			if s++; s == nsets {
				s = 0
			}
		}
		g += n
	}
	warmCounts.Put(counts)
	c.clock += g
	c.Misses += g
	c.Evictions += evicted
	c.Writebacks += evicted
}

// warmCounts pools the per-set line counters of closed-form warms
// (2 × Sets), zeroed between uses.
var warmCounts = sync.Pool{New: func() any { return new([]uint32) }}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// span returns the number of the first line extent e covers and how
// many lines, as the per-line loop steps through them.
func (c *Cache) span(e Extent) (first, n uint64) {
	line := uint64(c.cfg.LineSize)
	first = e.Addr / line
	if end := e.Addr + uint64(e.Size); end > first*line {
		n = (end - first*line + line - 1) / line
	}
	return first, n
}

// cold reports whether the closed form applies to a warm of extents:
// they ascend without sharing a line, and no set they touch holds a
// live line. It stops at the first extent out of order or the first
// live set.
func (c *Cache) cold(extents []Extent) bool {
	var next uint64 // lowest line the next extent may start at
	for _, e := range extents {
		first, n := c.span(e)
		if n == 0 {
			continue
		}
		if first < next {
			return false
		}
		next = first + n
		// The extent touches min(n, Sets) consecutive sets, wrapping;
		// scan them a page at a time, skipping pages that are not live.
		s := first % c.nsets
		for left := min(n, c.nsets); left > 0; {
			pi := s >> pageShift
			m := min(left, min((pi+1)<<pageShift, c.nsets)-s)
			if p := c.live(pi); p != nil {
				lo := int(s&(pageSets-1)) * c.cfg.Ways
				for _, b := range p.meta[lo : lo+int(m)*c.cfg.Ways] {
					if b != 0 {
						return false
					}
				}
			}
			left -= m
			if s += m; s == c.nsets {
				s = 0
			}
		}
	}
	return true
}

// Thrash resets the cache to a cold state, as the paper's control
// programs do before every benchmark run. It is O(1): bumping the
// cache epoch turns every page stale at once.
func (c *Cache) Thrash() {
	c.epoch++
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
}

// Occupancy returns the number of resident (non-invalid) lines.
func (c *Cache) Occupancy() int { return c.count(stateMask) }

// DDIOOccupancy returns the number of resident device-allocated lines.
func (c *Cache) DDIOOccupancy() int { return c.count(ddioBit) }

// count returns the number of ways in live pages whose state byte has
// any of bits set.
func (c *Cache) count(bits uint8) int {
	n := 0
	for pi := range c.pages {
		if p := c.live(uint64(pi)); p != nil {
			for _, m := range p.meta {
				if m&bits != 0 {
					n++
				}
			}
		}
	}
	return n
}
