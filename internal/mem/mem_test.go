package mem

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"

	"pciebench/internal/sim"
)

func smallCache() *Cache {
	// 4 sets x 4 ways x 64B lines = 1KB, DDIO quota 1 way.
	return NewCache(CacheConfig{SizeBytes: 1024, Ways: 4, LineSize: 64, DDIOWays: 1})
}

func TestCacheGeometry(t *testing.T) {
	c := smallCache()
	if c.Sets() != 4 {
		t.Errorf("sets = %d, want 4", c.Sets())
	}
	cfg := NewCache(CacheConfig{SizeBytes: 15 * 1024 * 1024, Ways: 20, LineSize: 64, DDIOWays: 2})
	if cfg.Sets() != 12288 {
		t.Errorf("15MB/20-way sets = %d, want 12288", cfg.Sets())
	}
}

func TestCacheDefaults(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024})
	if c.Config().LineSize != 64 || c.Config().Ways != 16 {
		t.Errorf("defaults not applied: %+v", c.Config())
	}
	if c.Config().DDIOWays != 16 {
		t.Errorf("DDIOWays default = %d, want Ways", c.Config().DDIOWays)
	}
}

func TestDeviceReadDoesNotAllocate(t *testing.T) {
	c := smallCache()
	r := c.DeviceRead(0)
	if r.Hit || !r.Fetched {
		t.Errorf("cold read: %+v", r)
	}
	// DDIO: read misses do not allocate.
	if c.Contains(0) {
		t.Error("read miss allocated a line")
	}
	r = c.DeviceRead(0)
	if r.Hit {
		t.Error("second read hit despite no allocation")
	}
}

func TestDeviceWriteAllocatesAndReadHits(t *testing.T) {
	c := smallCache()
	w := c.DeviceWrite(0, true)
	if w.Hit || w.Fetched {
		t.Errorf("full-line cold write: %+v (should allocate without fetch)", w)
	}
	if !c.Contains(0) {
		t.Error("write did not allocate")
	}
	r := c.DeviceRead(0)
	if !r.Hit {
		t.Error("read after write missed")
	}
}

func TestPartialLineWriteMissFetches(t *testing.T) {
	c := smallCache()
	// 8B write to a non-resident line: read-modify-write fetch.
	w := c.DeviceWrite(0, false)
	if !w.Fetched {
		t.Error("partial-line miss did not fetch")
	}
	// Same write once resident: no fetch.
	w = c.DeviceWrite(0, false)
	if !w.Hit || w.Fetched {
		t.Errorf("resident partial write: %+v", w)
	}
}

func TestDDIOQuotaIsHardCap(t *testing.T) {
	c := smallCache() // 4 sets, 4 ways, quota 1 per set
	// Two device lines mapping to set 0 (line addresses 4 sets apart):
	// the second must recycle the first even though invalid ways exist,
	// because the quota dedicates one way to IO allocation.
	a0, a1 := uint64(0), uint64(4*64)
	c.DeviceWrite(a0, true)
	c.DeviceWrite(a1, true)
	if c.Contains(a0) {
		t.Error("first device line survived beyond the DDIO quota")
	}
	if !c.Contains(a1) {
		t.Error("second device line not resident")
	}
	if got := c.DDIOOccupancy(); got != 1 {
		t.Errorf("DDIO occupancy = %d, want 1", got)
	}
}

func TestDDIOQuotaProtectsHostLines(t *testing.T) {
	// 1 set cache: 256B, 4 ways, quota 1.
	c := NewCache(CacheConfig{SizeBytes: 256, Ways: 4, LineSize: 64, DDIOWays: 1})
	hosts := []uint64{0, 64, 128} // three host lines
	for _, a := range hosts {
		c.HostTouch(a, false)
	}
	// Device writes a stream of new lines; they may only use the one
	// remaining way (invalid first, then DDIO-LRU).
	for i := 4; i < 20; i++ {
		c.DeviceWrite(uint64(i*64), true)
	}
	for _, a := range hosts {
		if !c.Contains(a) {
			t.Errorf("host line %#x evicted by device writes", a)
		}
	}
	if got := c.DDIOOccupancy(); got != 1 {
		t.Errorf("DDIO occupancy = %d, want 1 (quota)", got)
	}
}

func TestHostTouchEvictsLRU(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 256, Ways: 4, LineSize: 64, DDIOWays: 4})
	for i := 0; i < 4; i++ {
		c.HostTouch(uint64(i*64), false)
	}
	// Touch line 0 to make line 1 the LRU.
	c.HostTouch(0, false)
	c.HostTouch(4*64, false) // evicts LRU = line 1
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(64) {
		t.Error("LRU line survived")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 256, Ways: 4, LineSize: 64, DDIOWays: 4})
	for i := 0; i < 4; i++ {
		c.HostTouch(uint64(i*64), true) // dirty lines
	}
	c.HostTouch(4*64, false)
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Writebacks)
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
}

func TestThrashAndStats(t *testing.T) {
	c := smallCache()
	c.DeviceWrite(0, true)
	c.DeviceRead(0)
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.Thrash()
	if c.Occupancy() != 0 {
		t.Errorf("occupancy after thrash = %d", c.Occupancy())
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 || c.Writebacks != 0 {
		t.Error("stats not reset")
	}
	if r := c.DeviceRead(0); r.Hit {
		t.Error("hit after thrash")
	}
}

// Property: occupancy never exceeds capacity and DDIO occupancy never
// exceeds the per-set quota times sets, under random access streams.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(CacheConfig{SizeBytes: 2048, Ways: 4, LineSize: 64, DDIOWays: 2})
		for _, op := range ops {
			addr := uint64(op%512) * 64
			switch op % 3 {
			case 0:
				c.DeviceRead(addr)
			case 1:
				c.DeviceWrite(addr, op&0x8 == 0)
			case 2:
				c.HostTouch(addr, op&0x4 == 0)
			}
		}
		capacity := 2048 / 64
		if c.Occupancy() > capacity {
			return false
		}
		if c.DDIOOccupancy() > 2*c.Sets() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sysConfig() Config {
	return Config{
		Nodes:         2,
		Cache:         CacheConfig{SizeBytes: 4096, Ways: 4, LineSize: 64, DDIOWays: 1},
		LLCLatency:    50 * sim.Nanosecond,
		DRAMLatency:   120 * sim.Nanosecond,
		RemoteLatency: 100 * sim.Nanosecond,
	}
}

func TestSystemValidate(t *testing.T) {
	good := sysConfig()
	if _, err := NewSystem(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Nodes = 0
	if _, err := NewSystem(bad); err == nil {
		t.Error("0 nodes accepted")
	}
	bad = good
	bad.Cache.SizeBytes = 0
	if _, err := NewSystem(bad); err == nil {
		t.Error("0 cache accepted")
	}
	bad = good
	bad.DRAMLatency = 10 * sim.Nanosecond
	if _, err := NewSystem(bad); err == nil {
		t.Error("DRAM < LLC accepted")
	}
}

func TestSystemWarmHitColdMiss(t *testing.T) {
	s, err := NewSystem(sysConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Access(false, 0, 0, 64)
	if cold != s.Config().DRAMLatency {
		t.Errorf("cold read latency %v, want DRAM %v", cold, s.Config().DRAMLatency)
	}
	s.WarmHost(0, []Extent{{Addr: 0, Size: 64}})
	warm := s.Access(false, 0, 0, 64)
	if warm != s.Config().LLCLatency {
		t.Errorf("warm read latency %v, want LLC %v", warm, s.Config().LLCLatency)
	}
	// The ~70ns warm benefit the paper reports.
	if delta := cold - warm; delta != 70*sim.Nanosecond {
		t.Errorf("warm benefit %v, want 70ns", delta)
	}
}

func TestSystemRemotePenalty(t *testing.T) {
	s, _ := NewSystem(sysConfig())
	s.WarmHost(1, []Extent{{Addr: 0, Size: 64}})
	local := s.Access(false, 0, 0, 64)  // node 0 cold
	remote := s.Access(false, 1, 0, 64) // node 1 warm but remote
	if remote != s.Config().LLCLatency+s.Config().RemoteLatency {
		t.Errorf("remote warm = %v", remote)
	}
	_ = local
	// Remote DRAM access is the worst case.
	worst := s.Access(false, 1, 1<<20, 64)
	if worst != s.Config().DRAMLatency+s.Config().RemoteLatency {
		t.Errorf("remote cold = %v", worst)
	}
}

func TestSystemMultiLineWorstCase(t *testing.T) {
	s, _ := NewSystem(sysConfig())
	// Warm only the first line of a 256B range: latency is the worst
	// (DRAM) line.
	s.WarmHost(0, []Extent{{Addr: 0, Size: 64}})
	got := s.Access(false, 0, 0, 256)
	if got != s.Config().DRAMLatency {
		t.Errorf("partially warm 256B read = %v, want DRAM", got)
	}
	// Fully warm: LLC.
	s.WarmHost(0, []Extent{{Addr: 0, Size: 256}})
	if got := s.Access(false, 0, 0, 256); got != s.Config().LLCLatency {
		t.Errorf("fully warm 256B read = %v, want LLC", got)
	}
}

func TestSystemPartialWriteRMW(t *testing.T) {
	s, _ := NewSystem(sysConfig())
	// 8B cold write: read-modify-write fetch at DRAM latency.
	if got := s.Access(true, 0, 0, 8); got != s.Config().DRAMLatency {
		t.Errorf("8B cold write = %v, want DRAM (RMW)", got)
	}
	// 64B aligned cold write: full-line allocation, no fetch.
	if got := s.Access(true, 0, 128, 64); got != s.Config().LLCLatency {
		t.Errorf("64B cold write = %v, want LLC", got)
	}
	// 8B write to the now-resident line: fast.
	if got := s.Access(true, 0, 0, 8); got != s.Config().LLCLatency {
		t.Errorf("8B resident write = %v, want LLC", got)
	}
}

func TestSystemDeviceWarm(t *testing.T) {
	s, _ := NewSystem(sysConfig())
	s.WarmDevice(0, []Extent{{Addr: 0, Size: 256}})
	if got := s.Access(false, 0, 0, 64); got != s.Config().LLCLatency {
		t.Errorf("read after device warm = %v, want LLC", got)
	}
	if s.Node(0).DDIOOccupancy() == 0 {
		t.Error("device warm did not allocate DDIO lines")
	}
}

func TestSystemThrash(t *testing.T) {
	s, _ := NewSystem(sysConfig())
	s.WarmHost(0, []Extent{{Addr: 0, Size: 1024}})
	s.Thrash()
	if got := s.Access(false, 0, 0, 64); got != s.Config().DRAMLatency {
		t.Errorf("read after thrash = %v, want DRAM", got)
	}
}

func TestSystemHomeClamped(t *testing.T) {
	s, _ := NewSystem(sysConfig())
	// Out-of-range home falls back to node 0 rather than panicking.
	if got := s.Access(false, 99, 0, 64); got != s.Config().DRAMLatency {
		t.Errorf("clamped home access = %v", got)
	}
}

// The Fig 7a mechanism end-to-end at cache level: a window that fits the
// DDIO region keeps partial-line write latency low; a window larger than
// the DDIO region forces RMW fetches.
func TestDDIOWindowMechanism(t *testing.T) {
	cfg := sysConfig()
	cfg.Cache = CacheConfig{SizeBytes: 64 * 1024, Ways: 8, LineSize: 64, DDIOWays: 1}
	s, _ := NewSystem(cfg)
	ddioCapacity := (64 * 1024 / 8) * 1 // sets * quota * lineSize bytes... in lines

	// Small window: 32 lines, well within the 128-line DDIO capacity.
	small := uint64(32 * 64)
	s.Thrash()
	fetches := 0
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < small; a += 64 {
			if r := s.Node(0).DeviceWrite(a, false); r.Fetched {
				fetches++
			}
		}
	}
	if fetches != 32 { // only the first pass misses
		t.Errorf("small window fetches = %d, want 32 (first pass only)", fetches)
	}

	// Large window: 4x the DDIO capacity; steady-state writes keep
	// missing.
	large := uint64(4 * ddioCapacity * 64 / 64 * 64)
	s.Thrash()
	s.Node(0).ResetStats()
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < large; a += 64 {
			s.Node(0).DeviceWrite(a, false)
		}
	}
	missRate := float64(s.Node(0).Misses) / float64(s.Node(0).Misses+s.Node(0).Hits)
	if missRate < 0.9 {
		t.Errorf("large window miss rate = %.2f, want >= 0.9", missRate)
	}
}

// bdwConfig is the memory system of the paper's two-socket Broadwell
// host: 25 MB, 20-way LLCs with two DDIO ways.
func bdwConfig() Config {
	cfg := sysConfig()
	cfg.Cache = CacheConfig{SizeBytes: 25 << 20, Ways: 20, LineSize: 64, DDIOWays: 2}
	return cfg
}

// allocatedPages counts the directory pages that hold storage.
func allocatedPages(c *Cache) int {
	n := 0
	for _, p := range c.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Building a full-size system allocates only the page directories, not
// a record per modeled line (the eager model allocated 26 MB here).
func TestNewSystemAllocatesNoLines(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewSystem(bdwConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewSystem allocated %d bytes, want < 64 KB", got)
	}
	for n := 0; n < 2; n++ {
		if got := allocatedPages(s.Node(n)); got != 0 {
			t.Errorf("node %d: %d pages allocated before any access", n, got)
		}
	}
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// A released system's pages serve the next system built: a second
// Broadwell memory system takes the 64 MB host warm that filled the
// first one's 320 node-0 pages (~7 MB) without allocating them again,
// and ends in the same state.
func TestReleasedPagesServeTheNextSystem(t *testing.T) {
	// A collection empties the pools; hold it off while measuring. On
	// one P, a pool's per-P private slot, which other Ps cannot take
	// from, stays in reach: the warm's counters are one pooled slice.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := []Extent{{Addr: 0, Size: 64 << 20}}
	first, err := NewSystem(bdwConfig())
	if err != nil {
		t.Fatal(err)
	}
	first.WarmHost(0, warm)
	c := first.Node(0)
	pages, occ, counts := allocatedPages(c), c.Occupancy(), [4]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks}
	first.Release()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := NewSystem(bdwConfig())
	if err != nil {
		t.Fatal(err)
	}
	second.WarmHost(0, warm)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 && !raceEnabled {
		t.Errorf("NewSystem and a 64 MB warm after Release allocated %d bytes, want < 64 KB", got)
	}
	c = second.Node(0)
	if got := allocatedPages(c); got != pages {
		t.Errorf("%d pages after the warm, want %d", got, pages)
	}
	if got := c.Occupancy(); got != occ {
		t.Errorf("Occupancy %d after the warm on recycled pages, want %d", got, occ)
	}
	if got := [4]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks}; got != counts {
		t.Errorf("hits/misses/evictions/writebacks %v on recycled pages, want %v", got, counts)
	}
}

// Systems built, warmed and released on several goroutines at once,
// as an engine's workers do, trade pages through the pools and each
// ends every round in the state of the first: a page is never in two
// caches at once.
func TestReleaseConcurrent(t *testing.T) {
	cfg := sysConfig()
	cfg.Cache = refGeometries[1] // a full page and a partial one
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	warm := []Extent{{Addr: 0, Size: 3 * cfg.Cache.SizeBytes}}
	round := func() [3]uint64 {
		s, _ := NewSystem(cfg) // cfg is valid, so NewSystem cannot fail
		defer s.Release()
		s.WarmHost(0, warm)
		s.WarmDevice(1, warm)
		for a := uint64(0); a < 4096; a += 64 {
			s.Access(true, 0, a, 8)
			s.Access(false, 1, a, 64)
		}
		return [3]uint64{uint64(s.Node(0).Occupancy()), uint64(s.Node(1).DDIOOccupancy()), s.Node(0).Hits}
	}
	want := round()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got := round(); got != want {
					t.Errorf("occupancy, DDIO occupancy and hits %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Every use of a released system, or of a node LLC taken from it
// before, panics instead of reading pages another system may own; a
// second Release does nothing.
func TestReleasedSystemPanics(t *testing.T) {
	s, err := NewSystem(bdwConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := s.Node(1)
	s.WarmHost(1, []Extent{{Addr: 0, Size: 1 << 20}})
	s.Release()
	s.Release()
	ext := []Extent{{Addr: 0, Size: 4096}}
	for name, use := range map[string]func(){
		"Access":           func() { s.Access(false, 0, 0, 64) },
		"AccessFrom":       func() { s.AccessFrom(true, 1, 1, 0, 256) },
		"WarmHost":         func() { s.WarmHost(0, ext) },
		"WarmDevice":       func() { s.WarmDevice(1, ext) },
		"Node":             func() { s.Node(0) },
		"Cache.DeviceRead": func() { c.DeviceRead(0) },
		"Cache.HostTouch":  func() { c.HostTouch(0, true) },
		"Cache.Contains":   func() { c.Contains(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use()
		}()
	}
}

// The access paths allocate nothing once their page exists, and reads
// of an unallocated page neither allocate nor create it.
func TestCacheAccessZeroAlloc(t *testing.T) {
	s, err := NewSystem(bdwConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := s.Node(0)
	c.DeviceWrite(0, true) // allocates page 0
	// Addresses walk the first half of page 0, so multi-line accesses
	// stay inside it.
	var addr uint64
	next := func() uint64 { addr = (addr + 64) % (pageSets / 2 * 64); return addr }
	// A warm whose first set holds a live line writes line by line.
	live := []Extent{{Addr: 0, Size: 256}, {Addr: 1024, Size: 512}}
	for name, op := range map[string]func(){
		"DeviceRead":      func() { c.DeviceRead(next()) },
		"DeviceWrite":     func() { c.DeviceWrite(next(), addr%128 == 0) },
		"HostTouch":       func() { c.HostTouch(next(), addr%128 == 0) },
		"Access read":     func() { s.Access(false, 0, next(), 64) },
		"Access write":    func() { s.Access(true, 0, next(), 8) },
		"Access 3 lines":  func() { s.Access(true, 0, next(), 192) },
		"Access remote":   func() { s.Access(false, 1, next(), 64) },
		"Contains":        func() { c.Contains(next()) },
		"Thrash, rewrite": func() { c.Thrash(); c.DeviceWrite(next(), true) },
		"Warm, live sets": func() { c.HostTouch(0, true); c.warm(live, addr%128 == 0) },
	} {
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s on an allocated page: %v allocs, want 0", name, allocs)
		}
	}

	far := uint64(pageSets * 64) // set pageSets: the first set of page 1
	if got := allocatedPages(c); got != 1 {
		t.Fatalf("%d pages allocated, want 1", got)
	}
	for name, op := range map[string]func(){
		"DeviceRead": func() { c.DeviceRead(far) },
		"Contains":   func() { c.Contains(far) },
	} {
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s on an unallocated page: %v allocs, want 0", name, allocs)
		}
		if c.pages[1] != nil {
			t.Errorf("%s allocated the page it read", name)
		}
	}
}
