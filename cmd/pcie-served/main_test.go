package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// startServed runs the real entry point on an ephemeral port and
// returns its base URL plus a shutdown func that cancels the serving
// context (the signal path) and waits for a clean exit.
func startServed(t *testing.T, extra ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	var logs bytes.Buffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() {
		errc <- run(ctx, args, &logs, func(addr string) { addrc <- addr })
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("server exited before listening: %v (logs: %s)", err, logs.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}
	return "http://" + addr, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("server did not shut down")
			return nil
		}
	}
}

// TestServedRoundTrip boots the binary's run(), submits a registered
// sweep with an override, fetches its TSV and shuts down cleanly.
func TestServedRoundTrip(t *testing.T) {
	base, shutdown := startServed(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The report package's registered sweeps must be visible: that is
	// what the blank import in main.go buys.
	resp, err = http.Get(base + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	var reg []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(reg) == 0 {
		t.Fatal("registry is empty; report sweeps not linked in")
	}

	spec := `{"version": 1, "name": "served-rt",
	  "axes": [{"name": "transfer", "values": ["64", "128"]}],
	  "base": {"bench": "lat_rd", "n": "1K", "window": "8K"}}`
	resp, err = http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID      string `json:"id"`
		Results string `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}

	// The non-stream results endpoint blocks until the job finishes.
	resp, err = http.Get(base + sub.Results + "?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	tsv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(tsv, []byte("transfer")) {
		t.Fatalf("results: %d %s", resp.StatusCode, tsv)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServedShutdownCancelsRunningJob: a SIGTERM-style cancel while a
// long job is executing must still exit promptly and cleanly.
func TestServedShutdownCancelsRunningJob(t *testing.T) {
	base, shutdown := startServed(t, "-workers", "1", "-quiet")

	spec := `{"name": "served-slow",
	  "axes": [{"name": "seed", "values": ["1","2","3","4","5","6","7","8"]}],
	  "base": {"bench": "lat_rd", "transfer": "64", "n": "1M", "window": "8K"}}`
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	start := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown with running job: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
}

// TestServedFlagErrors: bad flags fail fast without binding a port.
func TestServedFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-quality", "extreme"},
		{"-cache", "floppy"},
		{"stray-arg"},
	} {
		var logs bytes.Buffer
		if err := run(context.Background(), args, &logs, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestServedStartupLine: the startup line reports the limits the server
// enforces, not the raw flags: -workers 0 runs jobs on up to GOMAXPROCS
// workers and -max-jobs 0 runs two jobs at a time.
func TestServedStartupLine(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, fmt.Sprintf("(workers=%d max-jobs=2 ", procs)},
		{[]string{"-workers", "0", "-max-jobs", "0"}, fmt.Sprintf("(workers=%d max-jobs=2 ", procs)},
		{[]string{"-workers", "3", "-max-jobs", "5"}, "(workers=3 max-jobs=5 "},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var logs bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, tc.args...)
		// Cancelling once the listener is up shuts the server straight
		// down, so run returns and the log is complete.
		if err := run(ctx, args, &logs, func(string) { cancel() }); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		cancel()
		first, _, _ := strings.Cut(logs.String(), "\n")
		if !strings.HasPrefix(first, "pcie-served listening on ") || !strings.Contains(first, tc.want) {
			t.Errorf("run(%v): startup line %q, want it to contain %q", args, first, tc.want)
		}
	}
}
