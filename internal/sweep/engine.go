package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"pciebench/internal/cache"
	"pciebench/internal/runner"
)

// Engine is the single execution entry point every grid shares — the
// CLIs (pcie-repro's figures and -run/-spec grids, pcie-bench -suite)
// and the serving layer (internal/serve) all drive sweeps through it. A
// pcie-bench single run is one cell measured by Single, which shares
// the engine's measurement code but needs none of its grid, seed
// mixing, quality defaults or cache. A run is expand -> dedup-against-cache -> execute
// -> emit:
//
//   - the grid expands to cells in deterministic enumeration order;
//   - each cell's canonical job document is hashed into a content
//     address and looked up in the Store (cells are pure functions of
//     spec + seed + build version, so a hit is exact);
//   - only the misses execute, sharded over the internal/runner pool;
//   - results are delivered in enumeration order — to the OnCell
//     stream as soon as each cell's predecessors are done, and as the
//     assembled Result — so output bytes are identical at any worker
//     count, with or without a cache.
type Engine struct {
	// Workers is the runner pool size for cache misses; <= 0 selects
	// GOMAXPROCS. The resolved count also bounds the goroutines each
	// multi-endpoint workload fabric cell runs its islands on. Results
	// are byte-identical for every value, which is why — unlike
	// Quality — Workers is deliberately NOT part of the cache key: a
	// cell computed at any worker count serves requests at every other.
	// The island identity is pinned in internal/topo over generated
	// topologies, arrival processes, fault configs and fabric reuse
	// (TestPropertyParallelFabricInvariance, TestOpenLoopIslandIdentity,
	// TestReusedFabricRetrainIdentity, TestFaultWorkerIdentity).
	Workers int
	// Quality resolves transaction counts left at zero; it is part of
	// the cache key (quick and full results never alias).
	Quality Quality
	// Cache, when non-nil, dedups cells against previously executed
	// results. The cache is best-effort: a failed read is a miss and a
	// failed write only loses the entry.
	Cache cache.Store
	// Build partitions the cache by code version: results computed by
	// a different build never serve a request from this one.
	Build string
	// Progress, when non-nil, receives (done, total) as cells become
	// available (cache hits count immediately); calls are serialized.
	Progress func(done, total int)
	// OnCell, when non-nil, receives every cell result in enumeration
	// order as soon as it and all its predecessors are available —
	// the incremental stream behind the serving layer's NDJSON
	// endpoint. Calls are serialized.
	OnCell func(CellResult)
}

// Stats counts how a run's cells were satisfied.
type Stats struct {
	// Cells is the expanded grid size.
	Cells int `json:"cells"`
	// Hits is how many cells were served from the cache.
	Hits int `json:"cache_hits"`
	// Executed is how many cells actually ran (cache misses, or every
	// cell when no cache is configured).
	Executed int `json:"executed"`
}

// cellJob is the canonical document a cell's content address is
// computed from: every input that can change the cell's measurement.
// encoding/json marshals maps with sorted keys, so the encoding is
// canonical. Probe and contrast labels are excluded — they change no
// value.
type cellJob struct {
	Build    string            `json:"build,omitempty"`
	Quality  string            `json:"quality"`
	Shared   bool              `json:"shared_instance,omitempty"`
	Seed     int64             `json:"seed"`
	KV       map[string]string `json:"kv"`
	Probes   []probeJob        `json:"probes"`
	Contrast *contrastJob      `json:"contrast,omitempty"`
}

type probeJob struct {
	Set    map[string]string `json:"set,omitempty"`
	Metric string            `json:"metric,omitempty"`
}

// contrastJob is the keyed part of a Contrast. Reduce is normalised:
// "pct_delta", the default, keys like an omitted reduce.
type contrastJob struct {
	Set    map[string]string `json:"set"`
	Reduce string            `json:"reduce,omitempty"`
}

// cellKey computes a cell's content address. The seed entering the key
// is the fully resolved per-cell seed (Spec.resolveSeed, the same
// function the run uses), so under per-cell seeding two cells with
// identical parameters at different grid positions key differently —
// as they must, since their results differ — while under fixed seeding
// identical cells dedup across positions and even across specs.
func (e *Engine) cellKey(s *Spec, c Cell) (string, error) {
	var seed int64
	if v, ok := c.KV["seed"]; ok {
		n, err := parseSize(v)
		if err != nil {
			return "", err
		}
		seed = int64(n)
	}
	seed = s.resolveSeed(seed, c.Index)
	job := cellJob{
		Build:   e.Build,
		Quality: e.Quality.String(),
		Shared:  s.SharedInstance,
		Seed:    seed,
		KV:      c.KV,
	}
	if ct := s.Contrast; ct != nil {
		job.Contrast = &contrastJob{Set: ct.Set, Reduce: ct.Reduce}
		if ct.Reduce == "pct_delta" {
			job.Contrast.Reduce = ""
		}
	}
	for _, p := range s.probes() {
		job.Probes = append(job.Probes, probeJob{Set: p.Set, Metric: p.Metric})
	}
	blob, err := json.Marshal(job)
	if err != nil {
		return "", err
	}
	return cache.Key(blob), nil
}

// cachedCell is the stored form of a cell result. The Cell itself
// (index, coordinates) is never cached — it belongs to the requesting
// spec and is re-attached on a hit, which is what lets one cached cell
// serve many grid positions. Float values survive the JSON round trip
// exactly (encoding/json emits the shortest representation that parses
// back to the same float64), so emitted bytes are identical whether a
// cell was computed or recalled.
type cachedCell struct {
	Meas   []Measurement `json:"meas"`
	Values []float64     `json:"values"`
}

// Run expands the spec, satisfies what it can from the cache, executes
// the misses on the worker pool and returns the assembled result plus
// the hit/miss accounting.
func (e *Engine) Run(ctx context.Context, s *Spec) (*Result, Stats, error) {
	if err := s.checkShape(); err != nil {
		return nil, Stats{}, err
	}
	n := s.Count()
	stats := Stats{Cells: n}
	results := make([]CellResult, n)
	ready := make([]bool, n)

	// st serializes OnCell/Progress delivery and enforces enumeration
	// order: a finished cell is published only once all its
	// predecessors are.
	st := &streamState{engine: e, results: results, ready: ready, total: n}

	// Each cell resolves once, in the pass that validates the grid; only
	// a miss keeps its resolved probes, for its run.
	type miss struct {
		cell   Cell
		probes resolvedProbes
		key    string
	}
	var misses []miss
	err := s.resolveCells(func(c Cell, probes resolvedProbes) error {
		var key string
		if e.Cache != nil {
			var err error
			if key, err = e.cellKey(s, c); err != nil {
				return fmt.Errorf("sweep: %s cell %d: cache key: %w", s.Name, c.Index, err)
			}
			if blob, ok := e.Cache.Get(key); ok {
				var cc cachedCell
				if err := json.Unmarshal(blob, &cc); err == nil {
					results[c.Index] = CellResult{Cell: c, Meas: cc.Meas, Values: cc.Values}
					ready[c.Index] = true
					stats.Hits++
					return nil
				} else if q, ok := e.Cache.(interface{ Quarantine(key, reason string) }); ok {
					// Stores that can (the disk cache) move the corrupt
					// blob aside, so it is recomputed once — not re-read
					// and re-rejected on every future run.
					q.Quarantine(key, err.Error())
				}
				// A corrupt entry is just a miss; recompute below.
			}
		}
		probes = resolvedProbes{slices.Clone(probes.cfgs), slices.Clone(probes.perts)}
		misses = append(misses, miss{cell: c, probes: probes, key: key})
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Executed = len(misses)
	st.flush() // publish the leading run of cache hits immediately

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	_, err = runner.Map(ctx, misses, workers,
		func(_ context.Context, _ int, m miss) (struct{}, error) {
			res, err := s.runCell(m.cell, m.probes, e.Quality, workers)
			if err != nil {
				return struct{}{}, err
			}
			if e.Cache != nil {
				if blob, err := json.Marshal(cachedCell{Meas: res.Meas, Values: res.Values}); err == nil {
					e.Cache.Put(m.key, blob)
				}
			}
			st.publish(m.cell.Index, res)
			return struct{}{}, nil
		})
	if err != nil {
		return nil, stats, err
	}
	return &Result{Spec: s, Cells: results}, stats, nil
}

// streamState delivers cell results to OnCell/Progress in enumeration
// order regardless of completion order.
type streamState struct {
	mu      sync.Mutex
	engine  *Engine
	results []CellResult
	ready   []bool
	next    int // first index not yet delivered
	total   int
}

// publish records an executed cell and flushes the newly contiguous
// prefix.
func (st *streamState) publish(index int, res CellResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.results[index] = res
	st.ready[index] = true
	st.flushLocked()
}

func (st *streamState) flush() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.flushLocked()
}

func (st *streamState) flushLocked() {
	for st.next < st.total && st.ready[st.next] {
		if st.engine.OnCell != nil {
			st.engine.OnCell(st.results[st.next])
		}
		st.next++
		if st.engine.Progress != nil {
			st.engine.Progress(st.next, st.total)
		}
	}
}
