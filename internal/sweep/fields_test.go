package sweep

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// wholeLeaves are the Config fields one key sets whole, so the walk
// stops at them: nic sets the design, switch the uplink, sizes the
// frame distribution and arrival the arrival process.
var wholeLeaves = map[string]bool{
	"Workload.Design": true, "Shape.Switch": true,
	"Workload.Sizes": true, "Workload.Arrival": true,
}

// configLeaves records every leaf of v under its dotted field path,
// following pointers to structs. A nil pointer reads as its struct's
// zero value, so every Config walks to the same leaves.
func configLeaves(v reflect.Value, path string, out map[string]any) {
	if v.Kind() == reflect.Pointer && v.Type().Elem().Kind() == reflect.Struct && !wholeLeaves[path] {
		if v.IsNil() {
			v = reflect.Zero(v.Type().Elem())
		} else {
			v = v.Elem()
		}
	}
	if v.Kind() != reflect.Struct || wholeLeaves[path] {
		out[path] = v.Interface()
		return
	}
	for i := range v.NumField() {
		name := v.Type().Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		configLeaves(v.Field(i), name, out)
	}
}

// TestEveryConfigFieldHasAKey: each leaf of the resolved Config is set
// by a cell key — resolving a cell of kind with key=value changes the
// leaf — or is exempt for a stated reason. A field no key reaches is a
// setting no grid can vary, which belongs in a constant.
func TestEveryConfigFieldHasAKey(t *testing.T) {
	keyed := []struct{ leaf, key, value, kind string }{
		{"System", "system", "NFP6000-SNB", BenchLatRd},
		{"Bench", "bench", BenchBwRd, BenchLatRd},
		{"Params.WindowSize", "window", "4K", BenchLatRd},
		{"Params.TransferSize", "transfer", "128", BenchLatRd},
		{"Params.Offset", "offset", "16", BenchLatRd},
		{"Params.Pattern", "pattern", "seq", BenchLatRd},
		{"Params.Cache", "cache", "devwarm", BenchLatRd},
		{"Params.Transactions", "n", "100", BenchLatRd},
		{"Params.Warmup", "warmup", "10", BenchLatRd},
		{"Params.Direct", "direct", "true", BenchLatRd},
		{"Opt.Seed", "seed", "5", BenchLatRd},
		{"Opt.IOMMU", "iommu", "true", BenchLatRd},
		{"Opt.IOMMUWalkers", "walkers", "2", BenchLatRd},
		{"Opt.IOMMUScope", "iommuscope", "per-socket", BenchLatRd},
		{"Opt.SuperPages", "sp", "true", BenchLatRd},
		{"Opt.BufferSize", "buffer", "1M", BenchLatRd},
		{"Opt.BufferNode", "node", "1", BenchLatRd},
		{"Opt.NoJitter", "nojitter", "true", BenchLatRd},
		{"Opt.MaxInFlight", "dmainflight", "8", BenchLatRd},
		{"Opt.Link.Gen", "gen", "4", BenchLatRd},
		{"Opt.Link.Lanes", "lanes", "16", BenchLatRd},
		{"Opt.Link.MPS", "mps", "512", BenchLatRd},
		{"Opt.Link.MRRS", "mrrs", "1024", BenchLatRd},
		{"Opt.Faults.BER", "ber", "1e-6", BenchLatRd},
		{"Opt.Faults.CTO", "cto", "10us", BenchLatRd},
		{"Opt.Faults.RetrainMTBF", "retrain", "1ms", BenchLatRd},
		{"Workload.Queues", "queues", "2", BenchWorkload},
		{"Workload.Flows", "flows", "100", BenchWorkload},
		{"Workload.Window", "inflight", "8", BenchWorkload},
		{"Workload.Design", "nic", "dpdk", BenchWorkload},
		{"Workload.Moderation.DoorbellBatch", "doorbell", "4", BenchWorkload},
		{"Workload.Moderation.DescBatch", "descbatch", "4", BenchWorkload},
		{"Workload.Moderation.WriteBackBatch", "wbbatch", "4", BenchWorkload},
		{"Workload.Moderation.IntrEvery", "intrmod", "poll", BenchWorkload},
		{"Workload.Sizes", "sizes", "imix", BenchWorkload},
		{"Workload.Arrival", "arrival", "rate:1M", BenchWorkload},
		{"Workload.BufferBytes", "buffer", "1M", BenchWorkload},
		{"Shape.Endpoints", "endpoints", "2", BenchWorkload},
		{"Shape.Switch", "switch", "on", BenchWorkload},
		{"Shape.Placement", "socket", "1", BenchWorkload},
		{"Shape.LocalBuffers", "buffers", "local", BenchWorkload},
		{"P2P", "p2p", "bounce", BenchP2P},
		{"Model", "model", "true", BenchLatRd},
	}
	exempt := map[string]string{
		"Opt.SimWorkers":       "the engine sets it from its worker count",
		"Workload.Seed":        "a run copies Opt.Seed into it",
		"Opt.Link.RCB":         "the rcb key is open work",
		"Opt.Link.Addr64":      "the addr key is open work",
		"Opt.Link.ECRC":        "the ecrc key is open work",
		"Opt.Link.DLLOverhead": "link calibration, shared with internal/model",
	}

	leaves := map[string]any{}
	configLeaves(reflect.ValueOf(Config{}), "", leaves)
	listed := map[string]bool{}
	for leaf := range exempt {
		listed[leaf] = true
	}
	for _, r := range keyed {
		if listed[r.leaf] {
			t.Errorf("%s is listed twice", r.leaf)
		}
		listed[r.leaf] = true
	}
	for _, leaf := range slices.Sorted(maps.Keys(leaves)) {
		if !listed[leaf] {
			t.Errorf("Config leaf %s has no key and no exemption", leaf)
		}
	}
	for _, leaf := range slices.Sorted(maps.Keys(listed)) {
		if _, ok := leaves[leaf]; !ok {
			t.Errorf("%s is listed but is no Config leaf", leaf)
		}
	}

	// The base system is a two-socket one, so socket=1 places.
	for _, r := range keyed {
		base := map[string]string{"system": "NFP6000-BDW", "bench": r.kind}
		set := map[string]string{"system": "NFP6000-BDW", "bench": r.kind, r.key: r.value}
		before, err := resolveConfig(base)
		if err != nil {
			t.Fatalf("%v: %v", base, err)
		}
		after, err := resolveConfig(set)
		if err != nil {
			t.Errorf("%s: %v", r.leaf, err)
			continue
		}
		was, now := map[string]any{}, map[string]any{}
		configLeaves(reflect.ValueOf(before), "", was)
		configLeaves(reflect.ValueOf(after), "", now)
		if reflect.DeepEqual(was[r.leaf], now[r.leaf]) {
			t.Errorf("%s=%s on a %s cell left %s at %v", r.key, r.value, r.kind, r.leaf, now[r.leaf])
		}
	}
}
