package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"pciebench/internal/cache"
	"pciebench/internal/sweep"
)

// testSpec is a small, fast 4-cell grid in the versioned wire format.
const testSpec = `{
  "version": 1,
  "name": "serve-test",
  "axes": [
    {"name": "transfer", "values": ["64", "128"]},
    {"name": "cache", "values": ["warm", "cold"]}
  ],
  "base": {"bench": "lat_rd", "n": "2K", "window": "8K"}
}`

// slowSpec is a 32-cell grid at ~300ms per cell, for cancellation
// tests (executed with workers=1 it runs ~10s, far longer than the
// time the test needs to observe one row and cancel).
const slowSpec = `{
  "name": "serve-slow",
  "axes": [{"name": "seed", "values": [
    "1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16",
    "17","18","19","20","21","22","23","24","25","26","27","28","29","30","31","32"
  ]}],
  "base": {"bench": "lat_rd", "transfer": "64", "n": "1M", "window": "8K"}
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, body, query string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func status(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state)
// and returns the final status.
func waitState(t *testing.T, ts *httptest.Server, id, want string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := status(t, ts, id)
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return statusResponse{}
}

func fetch(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d %s (want %d)", path, resp.StatusCode, raw, wantCode)
	}
	return raw
}

// cliTSV runs the same spec through the Engine the CLIs use and emits
// TSV — the reference the service output must match byte for byte.
func cliTSV(t *testing.T, specJSON string, workers int) string {
	t.Helper()
	spec, err := sweep.Decode(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e := &sweep.Engine{Workers: workers}
	res, _, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	emit, err := sweep.EmitterFor("tsv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSubmitPollFetch is the basic round trip: submit, poll to done,
// fetch TSV — and the served bytes must equal the CLI path's bytes at
// several worker counts.
func TestSubmitPollFetch(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: cache.NewMemory(), Build: "test"})
	sub := submit(t, ts, testSpec, "")
	if sub.Cells != 4 || sub.Name != "serve-test" {
		t.Fatalf("submit response %+v", sub)
	}
	st := waitState(t, ts, sub.ID, StateDone)
	if st.Done != 4 || st.Executed != 4 || st.CacheHits != 0 {
		t.Fatalf("done status %+v", st)
	}

	served := string(fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results?format=tsv", http.StatusOK))
	for _, workers := range []int{1, 3, 8} {
		if want := cliTSV(t, testSpec, workers); served != want {
			t.Errorf("served TSV != CLI TSV at workers=%d:\n%s\n--- vs ---\n%s", workers, served, want)
		}
	}

	// Default format is TSV; other registered emitters work; unknown
	// formats 400 with the shared registry error.
	if def := string(fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results", http.StatusOK)); def != served {
		t.Error("default format is not tsv")
	}
	fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results?format=json", http.StatusOK)
	fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results?format=table", http.StatusOK)
	bad := fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results?format=yaml", http.StatusBadRequest)
	if !bytes.Contains(bad, []byte("unknown format")) {
		t.Errorf("bad-format error: %s", bad)
	}

	// A one-worker resubmission serves the same bytes — and, because
	// the worker count is not part of the cache key, entirely from the
	// cache the first job populated.
	one := submit(t, ts, testSpec, "?workers=1")
	ost := waitState(t, ts, one.ID, StateDone)
	if ost.CacheHits != 4 || ost.Executed != 0 {
		t.Fatalf("workers=1 resubmission did not hit the shared cache: %+v", ost)
	}
	if got := string(fetch(t, ts, "/v1/sweeps/"+one.ID+"/results?format=tsv", http.StatusOK)); got != served {
		t.Error("workers=1 served different bytes than the first job")
	}
}

// TestWorkerCap: a request may shrink its job's pool below the server's
// cap but never raise it above, and the default cap is GOMAXPROCS.
func TestWorkerCap(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		cap, want int
		query     string
	}{
		{0, procs, ""},
		{0, 1, "?workers=1"},
		{0, procs, fmt.Sprintf("?workers=%d", procs+3)},
		{2, 2, ""},
		{2, 1, "?workers=1"},
		{2, 2, "?workers=5"},
	} {
		srv, ts := newTestServer(t, Config{Workers: tc.cap})
		sub := submit(t, ts, testSpec, tc.query)
		j, ok := srv.job(sub.ID)
		if !ok {
			t.Fatalf("job %s not registered", sub.ID)
		}
		if j.workers != tc.want {
			t.Errorf("cap %d, query %q: job runs %d workers, want %d", tc.cap, tc.query, j.workers, tc.want)
		}
		waitState(t, ts, sub.ID, StateDone)
	}
}

// TestStreamNDJSON reads the incremental stream: every cell row in
// enumeration order, then a trailer with the accounting.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: cache.NewMemory(), Build: "test"})
	sub := submit(t, ts, testSpec, "")

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/results?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var rows []sweep.Row
	var trailer streamTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done":true`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var row sweep.Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad stream line %s: %v", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("streamed %d rows, want 4", len(rows))
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("stream out of order: row %d carries index %d", i, row.Index)
		}
	}
	if !trailer.Done || trailer.State != StateDone || trailer.Cells != 4 || trailer.Executed != 4 {
		t.Fatalf("trailer %+v", trailer)
	}

	// The streamed rows equal the batch ndjson emitter's output.
	batch := fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results?format=ndjson", http.StatusOK)
	var streamed bytes.Buffer
	enc := json.NewEncoder(&streamed)
	for _, row := range rows {
		enc.Encode(row)
	}
	if streamed.String() != string(batch) {
		t.Errorf("streamed rows != ndjson emitter:\n%s\n--- vs ---\n%s", streamed.String(), batch)
	}
}

// TestCacheAccounting pins the serving cache contract: an identical
// resubmission executes zero cells, and a one-axis-value change
// recomputes only the changed cells.
func TestCacheAccounting(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: cache.NewMemory(), Build: "test"})

	first := submit(t, ts, testSpec, "")
	waitState(t, ts, first.ID, StateDone)

	second := submit(t, ts, testSpec, "")
	st := waitState(t, ts, second.ID, StateDone)
	if st.Executed != 0 || st.CacheHits != 4 {
		t.Fatalf("identical resubmit: executed=%d hits=%d, want 0/4", st.Executed, st.CacheHits)
	}
	if tsv1, tsv2 := fetch(t, ts, "/v1/sweeps/"+first.ID+"/results", http.StatusOK),
		fetch(t, ts, "/v1/sweeps/"+second.ID+"/results", http.StatusOK); !bytes.Equal(tsv1, tsv2) {
		t.Error("cached resubmission served different bytes")
	}

	// One axis value changed: cold -> devwarm recomputes exactly the
	// two devwarm cells.
	changed := strings.Replace(testSpec, `"warm", "cold"`, `"warm", "devwarm"`, 1)
	third := submit(t, ts, changed, "")
	st = waitState(t, ts, third.ID, StateDone)
	if st.Executed != 2 || st.CacheHits != 2 {
		t.Fatalf("one-axis change: executed=%d hits=%d, want 2/2", st.Executed, st.CacheHits)
	}

	// Aggregate accounting surfaces on /v1/cache.
	var cs cacheResponse
	if err := json.Unmarshal(fetch(t, ts, "/v1/cache", http.StatusOK), &cs); err != nil {
		t.Fatal(err)
	}
	if !cs.Enabled || cs.Entries != 6 || cs.Executed != 6 || cs.CacheHits != 6 {
		t.Fatalf("cache stats %+v, want enabled, 6 entries, 6 executed, 6 hits", cs)
	}
}

// TestOverridesAndRegisteredSweeps drives the envelope submission form
// and ?set= query overrides.
func TestOverridesAndRegisteredSweeps(t *testing.T) {
	sweep.Register(&sweep.Spec{
		Name: "serve-test-reg",
		Axes: []sweep.Axis{sweep.StrAxis("transfer", "64")},
		Base: map[string]string{"bench": "lat_rd", "n": "1K", "window": "8K"},
	})
	_, ts := newTestServer(t, Config{})

	// Envelope + overrides: widen the axis to two values.
	sub := submit(t, ts, `{"run": "serve-test-reg", "overrides": ["transfer=64,128"]}`, "")
	if sub.Cells != 2 {
		t.Fatalf("override ignored: %+v", sub)
	}
	waitState(t, ts, sub.ID, StateDone)

	// Query ?set= overrides compose the same way.
	sub = submit(t, ts, testSpec, "?set=transfer%3D64%2C128%2C256%2C512")
	if sub.Cells != 8 {
		t.Fatalf("?set= override ignored: %+v", sub)
	}

	// The registry lists the registered sweep with its axes.
	var entries []registryEntry
	if err := json.Unmarshal(fetch(t, ts, "/v1/registry", http.StatusOK), &entries); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Name == "serve-test-reg" && len(e.Axes) == 1 && e.Cells == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry lacks serve-test-reg: %+v", entries)
	}
}

// TestCancelMidJob cancels a long sweep after its first streamed row
// and verifies the job lands in the cancelled state with partial
// progress.
func TestCancelMidJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub := submit(t, ts, slowSpec, "")

	// Wait for the first streamed row so cancellation is mid-job.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/results?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream ended before first row")
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	st := waitState(t, ts, sub.ID, StateCancelled)
	if st.Done >= st.Cells {
		t.Fatalf("cancelled job completed all %d cells", st.Cells)
	}
	// Fetching results of a cancelled job reports the conflict.
	fetch(t, ts, "/v1/sweeps/"+sub.ID+"/results", http.StatusConflict)
}

// TestServerCloseCancelsJobs: Close (the graceful-shutdown half) must
// cancel running jobs and return.
func TestServerCloseCancelsJobs(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sub := submit(t, ts, slowSpec, "")
	waitState(t, ts, sub.ID, StateRunning)

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	if st := status(t, ts, sub.ID); st.State != StateCancelled {
		t.Fatalf("job state after Close: %q", st.State)
	}
}

// TestErrorResponses covers the 4xx surface.
func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body, query string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/sweeps"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if code, body := post("not json", ""); code != http.StatusBadRequest {
		t.Errorf("bad body: %d %s", code, body)
	}
	if code, body := post(`{"name": "x", "axes": [{"name": "bogus", "values": ["1"]}]}`, ""); code != http.StatusBadRequest || !strings.Contains(body, "unknown parameter") {
		t.Errorf("bad axis: %d %s", code, body)
	}
	if code, body := post(`{"nmae": "typo"}`, ""); code != http.StatusBadRequest || !strings.Contains(body, "valid keys") {
		t.Errorf("unknown field: %d %s", code, body)
	}
	if code, body := post(strings.Replace(testSpec, `"version": 1`, `"version": 9`, 1), ""); code != http.StatusBadRequest || !strings.Contains(body, "version 9") {
		t.Errorf("future version: %d %s", code, body)
	}
	// A micro-benchmark cell whose window exceeds the host buffer is
	// rejected at submission, before any cell executes.
	if code, body := post(`{"name":"bad","axes":[{"name":"window","values":["8K","128M"]}],"base":{"bench":"bw_rd","n":"200","transfer":"64"}}`, ""); code != http.StatusBadRequest || !strings.Contains(body, "larger than the host buffer") {
		t.Errorf("oversized window: %d %s (want 400)", code, body)
	}
	// So is a p2p cell with a negative sample count, even behind a
	// valid cell that would otherwise have run first.
	if code, body := post(`{"name":"bad","axes":[{"name":"n","values":["100","-5"]}],"base":{"bench":"p2p","transfer":"256"}}`, ""); code != http.StatusBadRequest || !strings.Contains(body, "n=-5") {
		t.Errorf("negative p2p n: %d %s (want 400)", code, body)
	}
	if code, body := post(`{"run": "no-such-sweep"}`, ""); code != http.StatusNotFound {
		t.Errorf("unknown registered sweep: %d %s", code, body)
	}
	if code, body := post(testSpec, "?quality=extreme"); code != http.StatusBadRequest {
		t.Errorf("bad quality: %d %s", code, body)
	}
	if code, body := post(testSpec, "?workers=-1"); code != http.StatusBadRequest {
		t.Errorf("bad workers: %d %s", code, body)
	}

	fetch(t, ts, "/v1/sweeps/sw-999", http.StatusNotFound)
	fetch(t, ts, "/v1/sweeps/sw-999/results", http.StatusNotFound)
	if body := fetch(t, ts, "/healthz", http.StatusOK); !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz: %s", body)
	}
}

// TestJobList exercises GET /v1/sweeps.
func TestJobList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		sub := submit(t, ts, testSpec, "")
		waitState(t, ts, sub.ID, StateDone)
	}
	var jobs []statusResponse
	if err := json.Unmarshal(fetch(t, ts, "/v1/sweeps", http.StatusOK), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != fmt.Sprintf("sw-%d", i+1) {
			t.Fatalf("job order %+v", jobs)
		}
	}
}

// TestMaxBodyLimit: an oversized submission gets a clear 413, and the
// configured limit does not reject bodies under it.
func TestMaxBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 1024})

	big := `{"run": "pad", "overrides": ["` + strings.Repeat("x", 2048) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s (want 413)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "1024") {
		t.Errorf("413 body %s does not name the limit", raw)
	}

	sub := submit(t, ts, testSpec, "")
	waitState(t, ts, sub.ID, StateDone)
}

// TestJobTimeout: a job that overruns the configured wall-clock
// deadline is cancelled, reported with the dedicated "timeout" state
// (distinct from a client cancel), and its results answer 504.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 100 * time.Millisecond})

	sub := submit(t, ts, slowSpec, "")
	st := waitState(t, ts, sub.ID, StateTimeout)
	if st.State != StateTimeout {
		t.Fatalf("state %q, want %q", st.State, StateTimeout)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("results of timed-out job: %d, want 504", resp.StatusCode)
	}

	// A job that fits the deadline is untouched by it.
	ok := submit(t, ts, testSpec, "")
	waitState(t, ts, ok.ID, StateDone)
}

// TestBerQueryParameter: ?ber= is validated sugar for set=ber=..., the
// fault-injection what-if axis of the serving surface.
func TestBerQueryParameter(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sub := submit(t, ts, testSpec, "?ber=1e-6")
	waitState(t, ts, sub.ID, StateDone)

	resp, err := http.Post(ts.URL+"/v1/sweeps?ber=2", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ber=2: %d %s (want 400)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "bit error rate") {
		t.Errorf("400 body %s does not explain the bad BER", raw)
	}
}

// TestFaultQueryParameters: ?cto= and ?retrain= mirror ?ber= — each is
// validated sugar for the matching set= override, with the same 400
// surface on a malformed value.
func TestFaultQueryParameters(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, q := range []string{"?cto=50us", "?retrain=1ms", "?ber=1e-6&cto=50us&retrain=1ms"} {
		sub := submit(t, ts, testSpec, q)
		waitState(t, ts, sub.ID, StateDone)
	}

	for _, bad := range []string{"?cto=fast", "?retrain=-3"} {
		resp, err := http.Post(ts.URL+"/v1/sweeps"+bad, "application/json", strings.NewReader(testSpec))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s (want 400)", bad, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "duration") {
			t.Errorf("%s: 400 body %s does not explain the bad duration", bad, raw)
		}
	}
}
