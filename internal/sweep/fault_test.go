package sweep

import (
	"bytes"
	"context"
	"testing"

	"pciebench/internal/sim"
)

// runBerGoodput runs the registered ber-goodput sweep, scaled down for
// test time, on the given engine worker count, returning the TSV.
func runBerGoodput(t *testing.T, workers int, overrides ...string) (*Result, string) {
	t.Helper()
	spec, err := ByName("ber-goodput")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.ApplyOverrides(append([]string{"n=150"}, overrides...)); err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Engine{Workers: workers}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	emit, err := EmitterFor("tsv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// TestBerGoodputWorkerIdentity pins the sweep-level determinism
// acceptance criterion: identical specs with ber>0 produce
// byte-identical TSVs at engine worker counts 1, 2, 4 and 7, which
// also bound each fabric cell's island goroutines.
func TestBerGoodputWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep skipped in -short")
	}
	_, ref := runBerGoodput(t, 1, "ber=1e-6,1e-5")
	for _, w := range []int{2, 4, 7} {
		if _, got := runBerGoodput(t, w, "ber=1e-6,1e-5"); got != ref {
			t.Errorf("workers=%d TSV diverged from serial", w)
		}
	}
}

// TestBerGoodputShape is the acceptance property of the registered
// sweep itself: goodput degrades monotonically (non-strictly — low BER
// decades round to zero corrupted TLPs) as BER grows, replays rise,
// and the per-endpoint counter column stays consistent with the
// aggregate.
func TestBerGoodputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep skipped in -short")
	}
	res, _ := runBerGoodput(t, 2)
	spec := res.Spec
	labels := spec.ProbeLabels()
	col := func(name string) int {
		for i, l := range labels {
			if l == name {
				return i
			}
		}
		t.Fatalf("probe %q missing from %v", name, labels)
		return -1
	}
	gbps, replays, ep0 := col("gbps"), col("replays"), col("ep0_replays")
	lastGbps := -1.0
	lastReplays := -1.0
	for _, c := range res.Cells {
		g, r := c.Values[gbps], c.Values[replays]
		if lastGbps >= 0 && g > lastGbps {
			t.Errorf("ber=%s: goodput %.3f above previous %.3f (not monotone)",
				c.Cell.Coord[0], g, lastGbps)
		}
		if r < lastReplays {
			t.Errorf("ber=%s: replays %v below previous %v", c.Cell.Coord[0], r, lastReplays)
		}
		if c.Values[ep0] > r {
			t.Errorf("ber=%s: endpoint 0 replays %v exceed aggregate %v",
				c.Cell.Coord[0], c.Values[ep0], r)
		}
		lastGbps, lastReplays = g, r
	}
	last := res.Cells[len(res.Cells)-1]
	if last.Values[replays] == 0 {
		t.Error("no replays at BER 1e-5; fault injection inert")
	}
	if first := res.Cells[0]; first.Values[replays] != 0 {
		t.Errorf("ber=0 cell recorded %v replays", first.Values[replays])
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]int64{
		"500ps": 500,
		"3ns":   3000,
		"1.5us": 1500000,
		"2ms":   int64(2 * 1e9),
		"1s":    int64(1e12),
		"250":   250000, // bare numbers are nanoseconds
	}
	for in, want := range cases {
		got, err := parseDuration(in)
		if err != nil || int64(got) != want {
			t.Errorf("parseDuration(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "fast", "-3us", "1h"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) accepted", bad)
		}
	}
}

func TestParseBER(t *testing.T) {
	if b, err := parseBER(" 1e-6 "); err != nil || b != 1e-6 {
		t.Errorf("parseBER(1e-6) = %v, %v", b, err)
	}
	for _, bad := range []string{"", "x", "-1e-9", "1", "1.5"} {
		if _, err := parseBER(bad); err == nil {
			t.Errorf("parseBER(%q) accepted", bad)
		}
	}
}

// TestFaultKeysResolve: the ber=/cto=/retrain= keys build a fault
// config only when a knob is non-zero — ber=0 cells must resolve to
// the exact fault-free instance so they share cache entries — and bad
// values error.
func TestFaultKeysResolve(t *testing.T) {
	base := map[string]string{"bench": BenchLatRd, "transfer": "64"}
	kv := func(extra map[string]string) map[string]string {
		m := map[string]string{}
		for k, v := range base {
			m[k] = v
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
	cfg, err := resolveConfig(kv(map[string]string{"ber": "0", "cto": "0", "retrain": "0"}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opt.Faults != nil {
		t.Errorf("all-zero fault keys allocated a config: %+v", *cfg.Opt.Faults)
	}
	cfg, err = resolveConfig(kv(map[string]string{"ber": "1e-7", "cto": "10us", "retrain": "50ms"}))
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Opt.Faults
	if f == nil || f.BER != 1e-7 || f.CTO != 10*sim.Microsecond || f.RetrainMTBF != 50*sim.Millisecond {
		t.Errorf("fault keys not threaded: %+v", f)
	}
	for _, bad := range []map[string]string{
		{"ber": "2"}, {"ber": "nope"}, {"cto": "-1us"}, {"retrain": "often"},
	} {
		if _, err := resolveConfig(kv(bad)); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}
