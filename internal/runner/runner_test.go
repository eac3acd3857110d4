package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunOrderedResults(t *testing.T) {
	items := make([]int, 20)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(context.Background(), items, workers,
			func(_ context.Context, i int, item int) (int, error) {
				if i != item {
					return 0, fmt.Errorf("item %d delivered at index %d", item, i)
				}
				return item * item, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(items) {
			t.Fatalf("workers=%d: %d outputs", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	// Each unit derives its value from a per-unit seed only, never from
	// execution order; every worker count must assemble the same slice.
	run := func(workers int) []int64 {
		out, err := Map(context.Background(), items, workers,
			func(_ context.Context, i int, item int) (int64, error) {
				return Seed(42, i) ^ int64(item), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	// A panicking item surfaces as a *PanicError naming it; the process
	// survives and the items before it keep their outputs.
	out, err := Map(context.Background(), []int{1, 2, 3}, 1,
		func(_ context.Context, i int, item int) (int, error) {
			if i == 1 {
				panic("kaput")
			}
			return item, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not captured: %v", err)
	}
	if pe.Unit != "unit-1" || pe.Value != "kaput" || len(pe.Stack) == 0 {
		t.Errorf("panic error = %+v", pe)
	}
	if out[0] != 1 {
		t.Errorf("out[0] = %d, want the healthy item's output 1", out[0])
	}
}

func TestRunCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 50)
	var executed atomic.Int32
	out, err := Map(ctx, items, 1,
		func(_ context.Context, i int, _ int) (int, error) {
			if i == 3 {
				cancel() // an item pulls the plug mid-run
			}
			executed.Add(1)
			return i + 1, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n < 4 || n >= 50 {
		t.Errorf("executed %d items, want a partial run", n)
	}
	if out[3] != 4 || out[len(out)-1] != 0 {
		t.Errorf("out[3] = %d, out[last] = %d: want the executed item's output and a skipped item's zero value",
			out[3], out[len(out)-1])
	}
}

func TestMapFailFast(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 32)
	var executed atomic.Int32
	_, err := Map(context.Background(), items, 2,
		func(_ context.Context, i int, _ int) (int, error) {
			executed.Add(1)
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the unit error", err)
	}
}

func TestMapFailFastOnPanic(t *testing.T) {
	items := make([]int, 40)
	var executed atomic.Int32
	_, err := Map(context.Background(), items, 1,
		func(_ context.Context, i int, _ int) (int, error) {
			executed.Add(1)
			if i == 2 {
				panic("kaput")
			}
			return i, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaput" {
		t.Fatalf("err = %v, want the PanicError", err)
	}
	// The panic cancels the remaining units; with one worker nothing
	// after the panicking unit runs.
	if n := executed.Load(); n != 3 {
		t.Errorf("executed %d units after the panic, want 3", n)
	}
}

func TestMapSurfacesErrorWrappingCanceled(t *testing.T) {
	// A unit whose genuine failure wraps context.Canceled must not be
	// mistaken for the induced fail-fast cancellation.
	items := make([]int, 8)
	wrapped := fmt.Errorf("backend gave up: %w", context.Canceled)
	_, err := Map(context.Background(), items, 2,
		func(_ context.Context, i int, _ int) (int, error) {
			if i == 4 {
				return 0, wrapped
			}
			return i, nil
		})
	if !errors.Is(err, wrapped) && err != wrapped {
		t.Fatalf("err = %v, want the wrapped unit error", err)
	}
}

func TestMapPrefersRealErrorOverInducedCancel(t *testing.T) {
	// Unit 0 respects the context and reports the induced cancellation;
	// unit 1 is the genuine failure that triggered it. Map must return
	// the real error even though the echo sits at a lower index.
	boom := errors.New("boom")
	_, err := Map(context.Background(), []int{0, 1}, 2,
		func(ctx context.Context, i int, _ int) (int, error) {
			if i == 0 {
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return 0, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real error", err)
	}
}

func TestSeed(t *testing.T) {
	if Seed(1, 0) == Seed(1, 1) || Seed(1, 0) == Seed(2, 0) {
		t.Error("seeds collide across index/base")
	}
	if Seed(7, 3) != Seed(7, 3) {
		t.Error("seed not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := Seed(1, i)
		if s == 0 {
			t.Fatal("zero seed")
		}
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	empty, err := Map(context.Background(), nil, 0,
		func(context.Context, int, int) (int, error) { return 0, nil })
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty run: %v %v", empty, err)
	}
	// Workers <= 0 falls back to GOMAXPROCS and still completes.
	out, err := Map(context.Background(), []int{1, 2, 3}, -1,
		func(_ context.Context, _ int, v int) (int, error) { return v * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 || out[2] != 30 {
		t.Errorf("out = %v", out)
	}
}
