// Package runner maps a function over independent items on a bounded
// worker pool.
//
// The paper's evaluation is a large grid of independent points —
// figures 1-9 and the tables sweep transfer size, window size, cache
// state, DDIO, IOMMU and NUMA settings — and every point builds its own
// simulator instance, so the grid parallelizes trivially. Map exploits
// that while keeping results reproducible: items execute in any order
// across workers, but outputs are collected by item index, so the
// assembled output is byte-identical regardless of the worker count.
// Deterministic per-item seeds (Seed) decouple an item's randomness from
// scheduling order. Map reports no progress: its one grid caller,
// sweep.Engine, reports its own, in enumeration order.
//
// A panicking item does not take the process down: the panic is
// captured as a *PanicError and fails the run like any other error.
// The first failure, or cancellation via the context, stops unstarted
// items promptly; already-running items finish their current work.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError wraps a panic recovered inside a worker so one bad item
// cannot take down the whole process.
type PanicError struct {
	Unit  string
	Value any
	Stack []byte
}

// Error formats the captured panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: unit %q panicked: %v", e.Unit, e.Value)
}

// Map runs fn over items on a pool of at most workers goroutines (<= 0
// selects GOMAXPROCS) and returns the outputs in item order. It fails
// fast: the first item error or panic cancels the remaining unstarted
// items, which never run. Among the errors recorded by items that
// actually executed, the one most likely to explain the failure is
// returned: the lowest-index error unrelated to context.Canceled, else
// the lowest-index error that wraps it, else the bare sentinel — so a
// genuine failure is never shadowed by items that merely echoed the
// induced cancellation. If ctx itself is cancelled, its error is
// returned. On success the output slice is identical for every worker
// count.
func Map[T, R any](ctx context.Context, items []T, workers int, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int, len(items))
	for i := range items {
		idx <- i
	}
	close(idx)

	// errs[i] is written only by the worker that executed item i; items
	// skipped by the fail-fast cancellation never touch it.
	errs := make([]error, len(items))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := min(workers, len(items)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if mctx.Err() != nil {
					continue
				}
				if err := call(mctx, fn, i, items[i], &out[i]); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	// Return the error that explains the failure, not its echo: an item
	// that merely respected the induced cancellation records the bare
	// context.Canceled sentinel, which must not shadow the genuine
	// failure that triggered it at a higher index.
	var firstAny, firstWrapped error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstAny == nil {
			firstAny = err
		}
		if !errors.Is(err, context.Canceled) {
			return out, err
		}
		if firstWrapped == nil && err != context.Canceled {
			firstWrapped = err
		}
	}
	if firstWrapped != nil {
		return out, firstWrapped
	}
	return out, firstAny
}

// call runs fn on item i, storing its output in *dst on success and
// converting a panic into a *PanicError.
func call[T, R any](ctx context.Context, fn func(context.Context, int, T) (R, error), i int, item T, dst *R) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Unit: fmt.Sprintf("unit-%d", i), Value: r, Stack: debug.Stack()}
		}
	}()
	v, err := fn(ctx, i, item)
	if err == nil {
		*dst = v
	}
	return err
}

// Seed derives a deterministic, well-mixed per-item seed from a base
// seed and the item's index (a splitmix64 round). Sequential
// base seeds or indices yield decorrelated streams, and the result is
// never zero, so it can feed APIs where zero selects a default.
func Seed(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return int64(z)
}
