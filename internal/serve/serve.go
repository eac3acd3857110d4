// Package serve is pcie-bench as a service: a long-running HTTP/JSON
// server that accepts sweep Spec documents on a versioned API, dedups
// cells against a content-addressed result cache, shards execution of
// the misses over the worker pool, and streams results incrementally.
// A submission is validated whole before it is queued — keys, values,
// overrides and every cell's resolved configuration — so a spec that
// could only fail once its cells run is answered 400, not 202.
//
// Sweeps are pure functions of (spec, seed, build version), which is
// what makes the serving shape work: resubmitting a spec with one axis
// value changed recomputes only the changed cells, and an identical
// resubmission executes nothing at all. Interactive what-if
// exploration — drag the MPS slider, re-run one changed axis — becomes
// incremental work.
//
// The v1 API:
//
//	POST   /v1/sweeps                submit a Spec document (or
//	                                 {"run": name, "overrides": [...]}
//	                                 for a registered sweep); query
//	                                 params: quality=quick|full,
//	                                 workers=N (the job's worker pool,
//	                                 at most Config.Workers; it also
//	                                 bounds the goroutines each
//	                                 fabric cell runs its islands on,
//	                                 and results are byte-identical at
//	                                 every value, so it is not part of
//	                                 the cache key) and set=key=v1,v2
//	                                 (repeatable axis/base overrides,
//	                                 fault injection included:
//	                                 set=ber%3D1e-6), validated with
//	                                 the spec; any other parameter
//	                                 answers 400.
//	                                 Returns 202 with the job id, or
//	                                 503 with Retry-After: 1 while 256
//	                                 jobs are queued or running.
//	GET    /v1/sweeps                the retained jobs' status, oldest
//	                                 first.
//	GET    /v1/sweeps/{id}           job status and cache accounting.
//	GET    /v1/sweeps/{id}/results   the emitted grid; ?format= selects
//	                                 any registered emitter (default
//	                                 tsv); ?stream=1 switches to
//	                                 incremental NDJSON rows in
//	                                 enumeration order with a trailer
//	                                 object carrying the accounting.
//	DELETE /v1/sweeps/{id}           cancel a queued or running job
//	                                 (200); a finished one answers 409
//	                                 with its state, cancelling
//	                                 nothing.
//	GET    /v1/registry              registered sweeps and their axes.
//	GET    /v1/cache                 cache entries and aggregate
//	                                 hit/executed counters.
//	GET    /healthz                  liveness.
//
// A server keeps every queued or running job and the 256 that finished
// last; a finished job holds each cell's coordinates and values once.
// Past 256, the job that finished first is evicted, and its id answers
// 410 Gone on every /v1/sweeps/{id} route: resubmitting the spec
// recomputes no cell the cache still holds. An id the server never
// issued answers 404. The memory cache (cache.NewMemory) holds at most
// 64 MiB of keys and values and evicts its oldest entries past that.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pciebench/internal/cache"
	"pciebench/internal/sweep"
)

// Config assembles a Server.
type Config struct {
	// Workers caps the per-job worker pool; requests may ask for fewer
	// via ?workers=N but never more. 0 means GOMAXPROCS at New.
	Workers int
	// MaxJobs bounds concurrently executing jobs; later submissions
	// queue, up to jobLimit queued or running. 0 means 2.
	MaxJobs int
	// Quality is the default quality level (requests may override).
	Quality sweep.Quality
	// Cache, when non-nil, dedups cells across jobs and restarts.
	Cache cache.Store
	// Build partitions the cache by code version (see buildinfo).
	Build string
	// MaxBody bounds the request body of POST /v1/sweeps; oversized
	// submissions get 413. 0 means 4 MiB.
	MaxBody int64
	// JobTimeout, when positive, is the wall-clock deadline for each
	// job: a sweep still running after this long is cancelled and
	// reported with status "timeout".
	JobTimeout time.Duration
	// Logf, when non-nil, receives one line per request and job
	// transition.
	Logf func(format string, args ...any)
}

// jobLimit bounds each of the two groups of jobs a server holds: the
// queued or running ones (a submission past it gets 503) and the
// finished ones (past it, the one that finished first is evicted). So a
// server holds at most 2 × jobLimit jobs. It is a constant, not a knob:
// an evicted job costs its client one resubmission, and the cache
// answers that without executing its cells again.
const jobLimit = 256

// Server implements the HTTP API. Create with New; it is an
// http.Handler. Close cancels running jobs and waits for them.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job // the retained jobs
	finished []*job          // the retained terminal jobs, in the order they finished
	nextID   int             // the sequence number of the last job issued
	totals   sweep.Stats
}

// New builds a Server from cfg, resolving its zero limits to the
// defaults Config documents.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 4 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, cfg.MaxJobs),
		jobs:   map[string]*job{},
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	return s
}

// Config returns the configuration New resolved: the worker cap, job
// concurrency and body bound the server enforces.
func (s *Server) Config() Config { return s.cfg }

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.logf("%s %s", r.Method, r.URL.Path)
	s.mux.ServeHTTP(w, r)
}

// Close cancels every job and waits for their goroutines — the
// graceful-shutdown half that http.Server.Shutdown does not cover.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// apiError is the JSON error envelope of every non-2xx response.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON emits a JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// submission is the envelope form of POST /v1/sweeps for registered
// sweeps; a bare Spec document is the other accepted shape.
type submission struct {
	Run       string   `json:"run"`
	Overrides []string `json:"overrides"`
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Cells   int    `json:"cells"`
	Status  string `json:"status"`
	Results string `json:"results"`
}

// submitParams are the query parameters POST /v1/sweeps takes.
var submitParams = []string{"set", "quality", "workers"}

// handleSubmit accepts a Spec document (the versioned wire format) or
// a {"run": name} envelope, applies overrides, and launches the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			apiError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBody)
			return
		}
		apiError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(body, &probe); err != nil {
		apiError(w, http.StatusBadRequest, "body is not a JSON object: %v", err)
		return
	}

	var spec *sweep.Spec
	var overrides []string
	if _, isEnvelope := probe["run"]; isEnvelope {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var sub submission
		if err := dec.Decode(&sub); err != nil {
			apiError(w, http.StatusBadRequest, "decode submission: %v (valid keys: run overrides)", err)
			return
		}
		spec, err = sweep.ByName(sub.Run)
		if err != nil {
			apiError(w, http.StatusNotFound, "%v", err)
			return
		}
		overrides = sub.Overrides
	} else {
		spec, err = sweep.Decode(bytes.NewReader(body))
		if err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	q := r.URL.Query()
	// A parameter the route does not take would silently run another
	// grid (a misspelt quality, a removed parameter), so it is refused.
	for _, name := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(submitParams, name) {
			apiError(w, http.StatusBadRequest, "unknown query parameter %q (valid: %s)",
				name, strings.Join(submitParams, " "))
			return
		}
	}
	overrides = append(overrides, q["set"]...)
	// Decode validated a bare document and Register a registered sweep,
	// so only overrides leave something to validate. The job resolves
	// its cells again when it runs and keeps none of them queued.
	if len(overrides) > 0 {
		if err := spec.ApplyOverrides(overrides); err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := spec.Validate(); err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	quality := s.cfg.Quality
	switch q.Get("quality") {
	case "":
	case "quick":
		quality = sweep.Quick
	case "full":
		quality = sweep.Full
	default:
		apiError(w, http.StatusBadRequest, "quality must be quick or full, not %q", q.Get("quality"))
		return
	}
	workers := s.cfg.Workers
	if ws := q.Get("workers"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil || n < 1 {
			apiError(w, http.StatusBadRequest, "workers must be a positive integer, not %q", ws)
			return
		}
		// Per-job concurrency limit: a request may shrink its pool but
		// never exceed the server's cap.
		workers = min(n, workers)
	}

	j := s.launch(spec, workers, quality)
	if j == nil {
		s.logf("reject %s: %d jobs queued or running", spec.Name, jobLimit)
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusServiceUnavailable,
			"%d jobs are queued or running, the most this server holds; retry later", jobLimit)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:      j.id,
		Name:    spec.Name,
		Cells:   spec.Count(),
		Status:  "/v1/sweeps/" + j.id,
		Results: "/v1/sweeps/" + j.id + "/results",
	})
}

// launch registers a job and starts its goroutine, bounded by the
// concurrent-jobs semaphore. It registers nothing and returns nil when
// jobLimit jobs are queued or running already: the bound is checked and
// the job registered under one hold of s.mu, so concurrent submissions
// cannot overshoot it.
func (s *Server) launch(spec *sweep.Spec, workers int, quality sweep.Quality) *job {
	s.mu.Lock()
	if len(s.jobs)-len(s.finished) >= jobLimit {
		s.mu.Unlock()
		return nil
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		// The deadline clock starts at submission, not dispatch: a job
		// stuck behind the semaphore burns its budget queueing, which is
		// the behaviour a caller with a wall-clock SLO wants.
		ctx, cancel = context.WithTimeout(s.ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.ctx)
	}
	s.nextID++
	j := newJob(s.nextID, spec, workers, quality, cancel)
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			s.retire(j, sweep.Stats{}, ctx.Err())
			return
		}
		j.update(func() { j.state = StateRunning })
		engine := &sweep.Engine{
			Workers: j.workers,
			Quality: j.quality,
			Cache:   s.cfg.Cache,
			Build:   s.cfg.Build,
			OnCell:  j.appendCell,
		}
		_, stats, err := engine.Run(ctx, spec)
		s.retire(j, stats, err)
		state, _, _, _, _ := j.snapshot()
		s.logf("job %s (%s): %s — %d cells, %d cache hits, %d executed",
			j.id, spec.Name, state, stats.Cells, stats.Hits, stats.Executed)
	}()
	return j
}

// retire finishes a job, adds its accounting to the totals and counts
// it among the retained finished jobs, evicting the one that finished
// first once there are more than jobLimit. All of it happens under one
// hold of s.mu, so a client that sees the job terminal also sees it
// counted out of the queued-or-running bound.
func (s *Server) retire(j *job, stats sweep.Stats, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finish(stats, err)
	s.totals.Cells += stats.Cells
	s.totals.Hits += stats.Hits
	s.totals.Executed += stats.Executed
	s.finished = append(s.finished, j)
	if len(s.finished) > jobLimit {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil
		s.finished = s.finished[1:]
	}
}

// jobID is the id of the job with sequence number seq.
func jobID(seq int) string { return "sw-" + strconv.Itoa(seq) }

// lookup returns the retained job with the given id. Otherwise it
// answers 410 for an id the server issued (its job was evicted) and
// 404 for any other, and returns false.
func (s *Server) lookup(w http.ResponseWriter, id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	issued := s.nextID
	s.mu.Unlock()
	if ok {
		return j, true
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "sw-")); err == nil && n >= 1 && n <= issued && id == jobID(n) {
		apiError(w, http.StatusGone,
			"sweep %s was evicted: the server keeps the %d newest finished jobs; resubmit it, cached cells are not recomputed", id, jobLimit)
	} else {
		apiError(w, http.StatusNotFound, "unknown sweep %q", id)
	}
	return nil, false
}

// statusResponse is the job-status document.
type statusResponse struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	State     string  `json:"state"`
	Cells     int     `json:"cells"`
	Done      int     `json:"done"`
	CacheHits int     `json:"cache_hits"`
	Executed  int     `json:"executed"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) status(j *job) statusResponse {
	state, rows, stats, err, _ := j.snapshot()
	resp := statusResponse{
		ID:        j.id,
		Name:      j.spec.Name,
		State:     state,
		Cells:     j.spec.Count(),
		Done:      rows,
		CacheHits: stats.Hits,
		Executed:  stats.Executed,
	}
	j.mu.Lock()
	if terminal(state) {
		resp.ElapsedMS = float64(j.elapsed) / float64(time.Millisecond)
	} else {
		resp.ElapsedMS = float64(time.Since(j.created)) / float64(time.Millisecond)
	}
	j.mu.Unlock()
	if err != nil && state == StateError {
		resp.Error = err.Error()
	}
	return resp
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleList reports every retained job, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]statusResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.status(j))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancel cancels a queued or running job. A job already in a
// terminal state answers 409 with that state and is left as it is.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	if state, _, _, _, _ := j.snapshot(); terminal(state) {
		writeJSON(w, http.StatusConflict, map[string]string{"id": j.id, "state": state,
			"error": fmt.Sprintf("sweep %s already finished (%s); nothing to cancel", j.id, state)})
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "state": "cancelling"})
}

// handleResults emits a finished grid through a registered emitter, or
// — with ?stream=1 — streams NDJSON rows incrementally as cells
// complete, in enumeration order, ending with a trailer object that
// carries the final state and cache accounting.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		s.streamResults(w, r, j)
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" {
		format = "tsv"
	}
	emit, err := sweep.EmitterFor(format)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	state, err := j.await(r.Context())
	if err != nil {
		return // client went away; nothing sensible to write
	}
	switch state {
	case StateCancelled:
		apiError(w, http.StatusConflict, "sweep %s was cancelled", j.id)
		return
	case StateTimeout:
		apiError(w, http.StatusGatewayTimeout, "sweep %s exceeded the job deadline", j.id)
		return
	case StateError:
		_, _, _, jerr, _ := j.snapshot()
		apiError(w, http.StatusInternalServerError, "sweep %s failed: %v", j.id, jerr)
		return
	}
	switch format {
	case "json", "ndjson":
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	if err := emit(w, j.result()); err != nil {
		s.logf("job %s: emit %s: %v", j.id, format, err)
	}
}

// streamTrailer is the final NDJSON line of a streamed result.
type streamTrailer struct {
	Done      bool   `json:"done"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	CacheHits int    `json:"cache_hits"`
	Executed  int    `json:"executed"`
	Error     string `json:"error,omitempty"`
}

func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		state, rows, stats, jerr, notify := j.snapshot()
		for sent < rows {
			if err := enc.Encode(j.row(sent)); err != nil {
				return
			}
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(state) {
			trailer := streamTrailer{
				Done:      true,
				State:     state,
				Cells:     stats.Cells,
				CacheHits: stats.Hits,
				Executed:  stats.Executed,
			}
			if jerr != nil && state == StateError {
				trailer.Error = jerr.Error()
			}
			enc.Encode(trailer)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
	}
}

// registryEntry describes one registered sweep.
type registryEntry struct {
	Name        string       `json:"name"`
	Title       string       `json:"title,omitempty"`
	Description string       `json:"description,omitempty"`
	Cells       int          `json:"cells"`
	Axes        []sweep.Axis `json:"axes"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	specs := sweep.Specs()
	out := make([]registryEntry, 0, len(specs))
	for _, sp := range specs {
		out = append(out, registryEntry{
			Name:        sp.Name,
			Title:       sp.Title,
			Description: sp.Description,
			Cells:       sp.Count(),
			Axes:        sp.Axes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// cacheResponse reports the store size and the aggregate accounting
// across every job this server ran.
type cacheResponse struct {
	Enabled   bool   `json:"enabled"`
	Build     string `json:"build,omitempty"`
	Entries   int    `json:"entries"`
	Cells     int    `json:"cells"`
	CacheHits int    `json:"cache_hits"`
	Executed  int    `json:"executed"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	totals := s.totals
	s.mu.Unlock()
	resp := cacheResponse{
		Enabled:   s.cfg.Cache != nil,
		Build:     s.cfg.Build,
		Cells:     totals.Cells,
		CacheHits: totals.Hits,
		Executed:  totals.Executed,
	}
	if s.cfg.Cache != nil {
		resp.Entries = s.cfg.Cache.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}
