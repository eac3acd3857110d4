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
//	                                 the cache key), set=key=v1,v2
//	                                 (repeatable axis/base overrides),
//	                                 and ber= / cto= / retrain=
//	                                 (fault-injection sugar for the
//	                                 matching set= override, validated
//	                                 with the spec).
//	                                 Returns 202 with the job id.
//	GET    /v1/sweeps/{id}           job status and cache accounting.
//	GET    /v1/sweeps/{id}/results   the emitted grid; ?format= selects
//	                                 any registered emitter (default
//	                                 tsv); ?stream=1 switches to
//	                                 incremental NDJSON rows in
//	                                 enumeration order with a trailer
//	                                 object carrying the accounting.
//	DELETE /v1/sweeps/{id}           cancel a queued or running job.
//	GET    /v1/registry              registered sweeps and their axes.
//	GET    /v1/cache                 cache entries and aggregate
//	                                 hit/executed counters.
//	GET    /healthz                  liveness.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
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
	// queue. 0 means 2.
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

// Server implements the HTTP API. Create with New; it is an
// http.Handler. Close cancels running jobs and waits for them.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job ids in submission order
	nextID int
	totals sweep.Stats
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, maxJobs),
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

// writeJSON emits a 2xx JSON body.
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

// handleSubmit accepts a Spec document (the versioned wire format) or
// a {"run": name} envelope, applies overrides, and launches the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	maxBody := s.cfg.MaxBody
	if maxBody <= 0 {
		maxBody = 4 << 20
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			apiError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxBody)
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
	overrides = append(overrides, q["set"]...)
	// ?ber=, ?cto= and ?retrain= are sugar for set=<key>=...: fault
	// injection is a first-class what-if axis. Validate parses the
	// values like any other override and answers 400.
	for _, key := range []string{"ber", "cto", "retrain"} {
		if v := q.Get(key); v != "" {
			overrides = append(overrides, key+"="+v)
		}
	}
	if err := spec.ApplyOverrides(overrides); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
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
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:      j.id,
		Name:    spec.Name,
		Cells:   spec.Count(),
		Status:  "/v1/sweeps/" + j.id,
		Results: "/v1/sweeps/" + j.id + "/results",
	})
}

// launch registers a job and starts its goroutine, bounded by the
// concurrent-jobs semaphore.
func (s *Server) launch(spec *sweep.Spec, workers int, quality sweep.Quality) *job {
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

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("sw-%d", s.nextID)
	j := newJob(id, spec, workers, quality, cancel)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			j.finish(nil, sweep.Stats{}, ctx.Err())
			return
		}
		j.update(func() { j.state = StateRunning })
		engine := &sweep.Engine{
			Workers: j.workers,
			Quality: j.quality,
			Cache:   s.cfg.Cache,
			Build:   s.cfg.Build,
			OnCell:  j.appendRow,
		}
		res, stats, err := engine.Run(ctx, spec)
		j.finish(res, stats, err)
		s.mu.Lock()
		s.totals.Cells += stats.Cells
		s.totals.Hits += stats.Hits
		s.totals.Executed += stats.Executed
		s.mu.Unlock()
		state, _, _, _, _ := j.snapshot()
		s.logf("job %s (%s): %s — %d cells, %d cache hits, %d executed",
			id, spec.Name, state, stats.Cells, stats.Hits, stats.Executed)
	}()
	return j
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
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
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleList reports every submitted job, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]statusResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.status(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
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
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
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
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	if err := emit(w, res); err != nil {
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
