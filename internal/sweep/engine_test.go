package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"pciebench/internal/cache"
)

// engineSpec is a small two-axis grid for cache-accounting tests:
// 2 transfers x 2 cache states = 4 fast latency cells.
func engineSpec() *Spec {
	return &Spec{
		Name: "engine-test",
		Axes: []Axis{
			StrAxis("transfer", "64", "128"),
			StrAxis("cache", "warm", "cold"),
		},
		Base: map[string]string{"bench": "lat_rd", "n": "2K", "window": "8K"},
	}
}

func engineTSV(t *testing.T, res *Result) string {
	t.Helper()
	emit, err := EmitterFor("tsv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEngineIdenticalResubmit pins the headline cache property: the
// second run of an identical spec executes zero cells and still emits
// byte-identical output.
func TestEngineIdenticalResubmit(t *testing.T) {
	store := cache.NewMemory()
	e := &Engine{Workers: 3, Cache: store, Build: "test"}

	res1, stats1, err := e.Run(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Cells != 4 || stats1.Executed != 4 || stats1.Hits != 0 {
		t.Fatalf("cold run stats = %+v, want 4 cells all executed", stats1)
	}
	if store.Len() != 4 {
		t.Fatalf("store holds %d entries, want 4", store.Len())
	}

	res2, stats2, err := e.Run(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Hits != 4 {
		t.Fatalf("warm run stats = %+v, want 0 executed / 4 hits", stats2)
	}
	if got, want := engineTSV(t, res2), engineTSV(t, res1); got != want {
		t.Errorf("cached TSV diverged from computed TSV:\n%s\n--- vs ---\n%s", got, want)
	}
}

// TestEngineOneAxisChange pins the incremental property: changing one
// value of one axis recomputes only the cells that mention it.
func TestEngineOneAxisChange(t *testing.T) {
	store := cache.NewMemory()
	e := &Engine{Cache: store, Build: "test"}
	if _, _, err := e.Run(context.Background(), engineSpec()); err != nil {
		t.Fatal(err)
	}

	// Replace one value of the inner axis: cold -> devwarm. The two
	// warm cells keep their grid positions (and therefore their
	// per-cell seeds), so only the two devwarm cells are new work.
	changed := engineSpec()
	changed.Axes[1] = StrAxis("cache", "warm", "devwarm")
	_, stats, err := e.Run(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 2 || stats.Hits != 2 {
		t.Fatalf("one-axis change stats = %+v, want 2 executed / 2 hits", stats)
	}

	// Extending the outer axis appends cells; every existing cell
	// keeps its position and hits.
	extended := engineSpec()
	extended.Axes[0] = StrAxis("transfer", "64", "128", "256")
	_, stats, err = e.Run(context.Background(), extended)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 2 || stats.Hits != 4 {
		t.Fatalf("extended-axis stats = %+v, want 2 executed / 4 hits", stats)
	}
}

// TestEngineCachedByteIdentity compares an uncached run against a
// fully cached one across worker counts: the emitted bytes must be
// identical — the guarantee that lets the service answer from cache.
func TestEngineCachedByteIdentity(t *testing.T) {
	uncached := &Engine{Workers: 1}
	base, _, err := uncached.Run(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := engineTSV(t, base)

	store := cache.NewMemory()
	for _, workers := range []int{1, 4, 7} {
		e := &Engine{Workers: workers, Cache: store, Build: "test"}
		res, _, err := e.Run(context.Background(), engineSpec())
		if err != nil {
			t.Fatal(err)
		}
		if got := engineTSV(t, res); got != want {
			t.Errorf("workers=%d (store len %d): TSV diverged:\n%s\n--- want ---\n%s",
				workers, store.Len(), got, want)
		}
	}
}

// TestEngineBuildAndQualityPartitionCache: results from another build
// or another quality level must never be served.
func TestEngineBuildAndQualityPartitionCache(t *testing.T) {
	store := cache.NewMemory()
	run := func(build string, q Quality) Stats {
		t.Helper()
		e := &Engine{Cache: store, Build: build, Quality: q}
		_, stats, err := e.Run(context.Background(), engineSpec())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	if s := run("build-a", Quick); s.Executed != 4 {
		t.Fatalf("first run: %+v", s)
	}
	if s := run("build-b", Quick); s.Executed != 4 || s.Hits != 0 {
		t.Fatalf("other build must miss: %+v", s)
	}
	if s := run("build-a", Full); s.Executed != 4 || s.Hits != 0 {
		t.Fatalf("other quality must miss: %+v", s)
	}
	if s := run("build-a", Quick); s.Hits != 4 {
		t.Fatalf("original build+quality must still hit: %+v", s)
	}
}

// TestEngineOnCellOrder verifies the streaming hook sees every cell in
// enumeration order even under a parallel pool and a half-warm cache.
func TestEngineOnCellOrder(t *testing.T) {
	store := cache.NewMemory()
	warm := &Engine{Cache: store, Build: "test"}
	if _, _, err := warm.Run(context.Background(), engineSpec()); err != nil {
		t.Fatal(err)
	}

	extended := engineSpec()
	extended.Axes[0] = StrAxis("transfer", "64", "128", "256", "512")
	var seen []int
	e := &Engine{
		Workers: 5,
		Cache:   store,
		Build:   "test",
		OnCell:  func(c CellResult) { seen = append(seen, c.Cell.Index) },
	}
	res, _, err := e.Run(context.Background(), extended)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Cells) {
		t.Fatalf("OnCell saw %d cells, want %d", len(seen), len(res.Cells))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("OnCell order %v not enumeration order", seen)
		}
	}
}

// TestEngineProgress: with part of the grid already cached, Progress
// reports every done count from 1 to Count() exactly once and in
// order, with total equal to Count(), at any worker count. The cached
// cells sit between executed ones, so hits and misses interleave.
func TestEngineProgress(t *testing.T) {
	spec := engineSpec()
	spec.SeedMode = SeedFixed // keys ignore grid position
	cold := spec.Clone()
	cold.Axes[1] = StrAxis("cache", "cold")
	for _, workers := range []int{1, 4} {
		store := cache.NewMemory()
		if _, _, err := (&Engine{Workers: workers, Cache: store}).Run(context.Background(), cold); err != nil {
			t.Fatal(err)
		}
		var done []int
		e := &Engine{Workers: workers, Cache: store, Progress: func(d, total int) {
			if total != spec.Count() {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, spec.Count())
			}
			done = append(done, d)
		}}
		_, st, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Hits != cold.Count() || st.Executed != spec.Count()-cold.Count() {
			t.Fatalf("workers=%d: stats %+v, want %d hits", workers, st, cold.Count())
		}
		if len(done) != spec.Count() {
			t.Fatalf("workers=%d: progress %v, want 1..%d", workers, done, spec.Count())
		}
		for i, d := range done {
			if d != i+1 {
				t.Fatalf("workers=%d: progress %v, want 1..%d in order", workers, done, spec.Count())
			}
		}
	}
}

// TestEngineSeedModesKeying: under fixed seeding a cell's address
// ignores its grid position, under per-cell seeding it must not.
func TestEngineSeedModesKeying(t *testing.T) {
	s := engineSpec()
	e := &Engine{Build: "test"}
	perCell0, err := e.cellKey(s, s.Cells()[0])
	if err != nil {
		t.Fatal(err)
	}
	perCell1, err := e.cellKey(s, s.Cells()[1])
	if err != nil {
		t.Fatal(err)
	}
	if perCell0 == perCell1 {
		t.Fatal("distinct cells share a cache key")
	}

	// Same cell, same spec -> same key (determinism).
	again, err := e.cellKey(s, s.Cells()[0])
	if err != nil {
		t.Fatal(err)
	}
	if again != perCell0 {
		t.Fatal("cell key not deterministic")
	}

	// Fixed seeding: the key depends on parameters only, so the same
	// assignment at a different position would dedup. Simulate by
	// rebuilding the cell with a shifted index.
	fixed := engineSpec()
	fixed.SeedMode = SeedFixed
	c := fixed.Cells()[0]
	k1, err := e.cellKey(fixed, c)
	if err != nil {
		t.Fatal(err)
	}
	c.Index = 7
	k2, err := e.cellKey(fixed, c)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("fixed-seed key depends on grid position")
	}
}

// TestEngineSeedZeroKeysSpecSeed: a cell whose "seed" is 0 runs from the
// spec's Seed, so its cache key must carry that seed too. Two specs that
// differ only in Seed compute different results and must never share a
// cache entry, under either seed mode.
func TestEngineSeedZeroKeysSpecSeed(t *testing.T) {
	for _, mode := range []string{SeedFixed, SeedPerCell} {
		spec := func(seed int64) *Spec {
			return &Spec{
				Name: "seed-zero",
				Axes: []Axis{StrAxis("seed", "0")},
				Base: map[string]string{
					"bench": "workload", "sizes": "imix", "arrival": "poisson:2M:burst=8",
				},
				Probes:   []Probe{{Label: "p99_ns", Metric: "p99"}},
				SeedMode: mode,
				Seed:     seed,
			}
		}
		p99 := func(e *Engine, seed int64) float64 {
			t.Helper()
			res, _, err := e.Run(context.Background(), spec(seed))
			if err != nil {
				t.Fatal(err)
			}
			return res.Cells[0].Values[0]
		}
		want5, want7 := p99(&Engine{}, 5), p99(&Engine{}, 7)
		if want5 == want7 {
			t.Fatalf("%s: spec seeds 5 and 7 both give p99 %v; the check needs results that differ", mode, want5)
		}
		e := &Engine{Cache: cache.NewMemory(), Build: "test"}
		if got := p99(e, 5); got != want5 {
			t.Errorf("%s: seed 5 through the cache: p99 %v, want %v", mode, got, want5)
		}
		if got := p99(e, 7); got != want7 {
			t.Errorf("%s: seed 7 after seed 5 on one cache: p99 %v, want %v (served seed 5's entry)", mode, got, want7)
		}
	}
}

// TestEngineCorruptCacheEntry: a torn or stale blob must fall back to
// recomputation, never to a decode error or a wrong result.
func TestEngineCorruptCacheEntry(t *testing.T) {
	store := cache.NewMemory()
	e := &Engine{Cache: store, Build: "test"}
	s := engineSpec()
	key, err := e.cellKey(s, s.Cells()[0])
	if err != nil {
		t.Fatal(err)
	}
	store.Put(key, []byte("not json"))

	res, stats, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 {
		t.Fatalf("corrupt entry should recompute: %+v", stats)
	}
	uncached, _, err := (&Engine{}).Run(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if engineTSV(t, res) != engineTSV(t, uncached) {
		t.Error("corrupt-entry run diverged from uncached run")
	}
}

// TestEngineQuarantinesCorruptEntry: with a store that supports
// quarantine (the disk cache), a corrupt blob is moved aside during
// the run, so the recomputed result lands in its slot and the next run
// is a clean cache hit rather than a repeat decode failure.
func TestEngineQuarantinesCorruptEntry(t *testing.T) {
	store, err := cache.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: store, Build: "test"}
	s := engineSpec()
	key, err := e.cellKey(s, s.Cells()[0])
	if err != nil {
		t.Fatal(err)
	}
	store.Put(key, []byte("not json"))

	if _, stats, err := e.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	} else if stats.Executed != 4 {
		t.Fatalf("corrupt entry should recompute: %+v", stats)
	}
	blob, ok := store.Get(key)
	if !ok {
		t.Fatal("recomputed cell not stored after quarantine")
	}
	if string(blob) == "not json" {
		t.Fatal("corrupt blob still live in the store")
	}
	if _, stats, err := e.Run(context.Background(), engineSpec()); err != nil {
		t.Fatal(err)
	} else if stats.Hits != 4 {
		t.Fatalf("second run should hit all cells: %+v", stats)
	}
}

// TestSingleMatchesEngine pins that a single run measures exactly what
// the engine measures for the same assignment as a one-cell fixed-seed
// spec. Single runs also sample switch waits, which the engine leaves
// off, so the switched cases check that sampling never perturbs a
// result. The split case runs at GOMAXPROCS 4, so the single run
// builds islands, and compares against an engine at four workers.
func TestSingleMatchesEngine(t *testing.T) {
	cases := []struct {
		name    string
		kv      map[string]string
		workers int
	}{
		{"switched-workload", map[string]string{"bench": "workload", "endpoints": "3", "switch": "on", "sizes": "512", "n": "200", "seed": "1"}, 1},
		{"p2p-bounce", map[string]string{"bench": "p2p", "p2p": "bounce", "transfer": "1024", "n": "100", "seed": "1"}, 1},
		{"lat-rd-cto", map[string]string{"bench": "lat_rd", "window": "8K", "transfer": "64", "cache": "warm", "cto": "1ms", "n": "200", "seed": "1"}, 1},
		{"bw-rd-iommu", map[string]string{"system": "NFP6000-BDW", "bench": "bw_rd", "iommu": "true", "window": "16M", "transfer": "64", "n": "500", "seed": "1"}, 1},
		{"ber-workload", map[string]string{"bench": "workload", "ber": "1e-5", "sizes": "1500", "n": "300", "seed": "1"}, 1},
		{"split-local", map[string]string{"system": "NFP6000-BDW", "bench": "workload", "endpoints": "4", "socket": "split", "buffers": "local", "nojitter": "true", "n": "200", "seed": "1"}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.workers))
			d, err := Single(tc.kv)
			if err != nil {
				t.Fatal(err)
			}
			if d.Result == nil || d.Fabric == nil {
				t.Fatalf("detail kept no result or fabric: %+v", d)
			}
			for _, sw := range d.Fabric.Switches {
				if _, ok := sw.WaitSummary(true); !ok {
					t.Error("single run left switch wait sampling off")
				}
			}
			// GOMAXPROCS reaches the fabric: the split shape builds
			// islands.
			if n := len(d.Fabric.Kernels); tc.workers > 1 && n < 2 {
				t.Errorf("fabric at GOMAXPROCS %d built %d island(s), want several", tc.workers, n)
			}
			base := cloneMap(tc.kv)
			delete(base, "bench")
			s := &Spec{Name: "single", Axes: []Axis{StrAxis("bench", tc.kv["bench"])}, Base: base, SeedMode: SeedFixed}
			res, _, err := (&Engine{Workers: tc.workers}).Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(d.Meas)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res.Cells[0].Meas[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("single run measured\n%s\nthe engine cell\n%s", got, want)
			}
		})
	}
}
