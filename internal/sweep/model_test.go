package sweep

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pciebench/internal/cache"
	"pciebench/internal/model"
	"pciebench/internal/pcie"
	"pciebench/internal/workload"
)

// TestModelCellsMatchClosedForm: a model=true cell reports
// internal/model's value for its link and design, bit for bit, both as
// computed and as recalled from a cache (a JSON round trip). The cases
// are generated: any generation, lane count, MPS and MRRS, a transfer
// of 1 to 9,216 B, the three bandwidth kinds, and the three NIC
// designs under random doorbell, descbatch, wbbatch and intrmod keys.
// No cell names a window: a model cell touches no buffer.
func TestModelCellsMatchClosedForm(t *testing.T) {
	designs := map[string]model.NIC{
		"simple": model.SimpleNIC(), "kernel": model.ModernNICKernel(), "dpdk": model.ModernNICDPDK(),
	}
	names := []string{"simple", "kernel", "dpdk"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		link := pcie.DefaultGen3x8()
		link.Gen = pcie.Generation(1 + rng.Intn(5))
		link.Lanes = 1 << rng.Intn(6)
		link.MPS = 128 << rng.Intn(6)
		link.MRRS = 128 << rng.Intn(6)
		sz := 1 + rng.Intn(9216)
		kv := map[string]string{
			"model": "true", "gen": strconv.Itoa(int(link.Gen)), "lanes": strconv.Itoa(link.Lanes),
			"mps": strconv.Itoa(link.MPS), "mrrs": strconv.Itoa(link.MRRS),
		}
		var wantGbps, wantPPS float64
		switch rng.Intn(4) {
		case 0:
			kv["bench"], wantGbps = BenchBwRd, model.EffectiveReadBandwidth(link, sz)/1e9
		case 1:
			kv["bench"], wantGbps = BenchBwWr, model.EffectiveWriteBandwidth(link, sz)/1e9
		case 2:
			kv["bench"], wantGbps = BenchBwRdWr, model.EffectiveBidirBandwidth(link, sz)/1e9
		default:
			name := names[rng.Intn(len(names))]
			kv["bench"], kv["nic"] = BenchWorkload, name
			var mod workload.Moderation
			knob := func(key string, dst *int) {
				if rng.Intn(2) == 0 {
					*dst = 1 + rng.Intn(64)
					kv[key] = strconv.Itoa(*dst)
				}
			}
			knob("doorbell", &mod.DoorbellBatch)
			knob("descbatch", &mod.DescBatch)
			knob("wbbatch", &mod.WriteBackBatch)
			if rng.Intn(3) == 0 {
				mod.IntrEvery, kv["intrmod"] = -1, "poll"
			} else {
				knob("intrmod", &mod.IntrEvery)
			}
			nic := mod.Apply(designs[name])
			wantGbps, wantPPS = nic.Bandwidth(link, sz)/1e9, nic.PacketRate(link, sz)
		}
		want := wantGbps
		if kv["bench"] == BenchWorkload {
			want = wantPPS // a workload's default metric
		}
		s := &Spec{Name: "model-prop", Axes: []Axis{IntAxis("transfer", sz)}, Base: kv}
		e := &Engine{Cache: cache.NewMemory()}
		for _, pass := range []string{"computed", "recalled"} {
			res, stats, err := e.Run(context.Background(), s)
			if err != nil {
				t.Fatalf("case %d %v: %v", i, kv, err)
			}
			if hit := stats.Hits == 1; hit != (pass == "recalled") {
				t.Fatalf("case %d %s: %+v", i, pass, stats)
			}
			c := res.Cells[0]
			m := c.Meas[0]
			if math.Float64bits(m.Gbps) != math.Float64bits(wantGbps) ||
				math.Float64bits(m.PPS) != math.Float64bits(wantPPS) ||
				math.Float64bits(c.Values[0]) != math.Float64bits(want) {
				t.Fatalf("case %d %s %v transfer=%d: gbps %v pps %v value %v, model gbps %v pps %v",
					i, pass, kv, sz, m.Gbps, m.PPS, c.Values[0], wantGbps, wantPPS)
			}
		}
	}
}

// TestPctDeltaZeroBaseline: a pct_delta contrast over a metric that is
// 0 at the baseline (no replays on a fault-free link) fails the cell
// with an error that points at the delta reduction. The percentage is
// undefined there: +Inf, or NaN when both sides are 0, and neither has
// a JSON encoding.
func TestPctDeltaZeroBaseline(t *testing.T) {
	s := &Spec{
		Name: "zero-baseline",
		Axes: []Axis{IntAxis("transfer", 64)},
		Base: map[string]string{"bench": BenchBwRd, "window": "8K", "n": "2000", "nojitter": "true"},
		Probes: []Probe{
			{Metric: MetricReplays},
			{Metric: MetricGbps},
		},
		Contrast: &Contrast{Set: map[string]string{"ber": "1e-5"}},
	}
	_, _, err := (&Engine{}).Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), `"reduce": "delta"`) {
		t.Fatalf("zero pct_delta baseline returned %v, want an error naming \"reduce\": \"delta\"", err)
	}
	s.Contrast.Reduce = "delta"
	res, _, err := (&Engine{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Cells[0].Values[0]; v <= 0 {
		t.Errorf("replay delta = %v, want the perturbed run's replays", v)
	}
}
