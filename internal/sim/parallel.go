// Independent kernels — design note.
//
// A partitioned fabric (internal/topo) gives each simulation island an
// event kernel of its own. Islands share no mutable simulation state
// and exchange no events, so each kernel runs to completion on its own
// and no coordination — windows, links, barriers — is needed. What
// keeps a run byte-identical to the single-kernel schedule is the
// partition, not this function: within an island, events are inserted
// in the same relative order whether the island runs alone or
// interleaved with others on one kernel, so the (time, seq) order
// restricted to the island is the same either way.
//
// Randomness follows the same split. Workload streams are per endpoint
// (seeded by endpoint index); root-complex jitter is per island, with
// island 0 keeping its kernel stream and each further island drawing
// from a stream derived from the spec seed and island id
// (topo.islandSeed). Serial builds install the same assignment, so
// jittery fabrics match serial-vs-parallel draw for draw.

package sim

import "sync"

// RunAll runs every kernel to completion on up to workers goroutines
// (<= 1 runs them in slice order on the calling goroutine). The kernels
// must be independent: no handler may touch another kernel or state a
// handler on another kernel touches. Which goroutine runs a kernel
// never affects its results, only wall-clock balance.
func RunAll(kernels []*Kernel, workers int) {
	if workers > len(kernels) {
		workers = len(kernels)
	}
	if workers <= 1 {
		for _, k := range kernels {
			k.Run()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(kernels); i += workers {
				kernels[i].Run()
			}
		}(w)
	}
	wg.Wait()
}
