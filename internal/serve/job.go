package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"pciebench/internal/sweep"
)

// Job states. A job moves queued -> running -> one of the four
// terminal states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateError     = "error"
	StateCancelled = "cancelled"
	StateTimeout   = "timeout"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	switch state {
	case StateDone, StateError, StateCancelled, StateTimeout:
		return true
	}
	return false
}

// job is one submitted sweep: the spec, its execution state, and the
// incrementally growing result rows. Readers (status and streaming
// handlers) snapshot under mu and wait on notify, which is closed and
// replaced on every update — a broadcast that, unlike sync.Cond,
// composes with context cancellation in a select.
type job struct {
	id      string
	spec    *sweep.Spec
	labels  []string
	workers int
	quality sweep.Quality
	created time.Time
	cancel  context.CancelFunc

	mu      sync.Mutex
	notify  chan struct{}
	state   string
	rows    []sweep.Row
	result  *sweep.Result
	stats   sweep.Stats
	err     error
	elapsed time.Duration
}

func newJob(id string, spec *sweep.Spec, workers int, q sweep.Quality, cancel context.CancelFunc) *job {
	return &job{
		id:      id,
		spec:    spec,
		labels:  spec.ProbeLabels(),
		workers: workers,
		quality: q,
		created: time.Now(),
		cancel:  cancel,
		notify:  make(chan struct{}),
		state:   StateQueued,
	}
}

// update mutates the job under the lock and wakes every waiter.
func (j *job) update(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn()
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendRow records one streamed cell result; the engine delivers them
// in enumeration order.
func (j *job) appendRow(c sweep.CellResult) {
	row := sweep.RowOf(j.spec, j.labels, c)
	j.update(func() { j.rows = append(j.rows, row) })
}

// finish records the run outcome and enters a terminal state.
func (j *job) finish(res *sweep.Result, stats sweep.Stats, err error) {
	j.update(func() {
		j.result = res
		j.stats = stats
		j.err = err
		j.elapsed = time.Since(j.created)
		switch {
		case err == nil:
			j.state = StateDone
		case errors.Is(err, context.DeadlineExceeded):
			// The per-job wall-clock deadline fired (Config.JobTimeout):
			// distinct from a client cancel so callers can tell "you asked
			// me to stop" from "I gave up".
			j.state = StateTimeout
		case errors.Is(err, context.Canceled):
			j.state = StateCancelled
		default:
			j.state = StateError
		}
	})
}

// snapshot returns a consistent view for the status and stream
// handlers: the current state, how many rows exist, the run outcome
// and the channel that signals the next change.
func (j *job) snapshot() (state string, rows int, stats sweep.Stats, err error, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, len(j.rows), j.stats, j.err, j.notify
}

// row returns the i'th result row; the caller must know i < rows from
// a snapshot (rows only grow).
func (j *job) row(i int) sweep.Row {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows[i]
}

// await blocks until the job reaches a terminal state or ctx fires,
// returning the final state.
func (j *job) await(ctx context.Context) (string, error) {
	for {
		state, _, _, _, notify := j.snapshot()
		if terminal(state) {
			return state, nil
		}
		select {
		case <-ctx.Done():
			return state, ctx.Err()
		case <-notify:
		}
	}
}
