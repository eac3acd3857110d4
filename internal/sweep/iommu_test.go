package sweep

import (
	"strings"
	"testing"

	"pciebench/internal/topo"
)

// TestIOMMUScaleGolden pins the IOMMU-scope sweep: the JSON spec
// round-trips, runs byte-identically at workers 1/4/7 in every format,
// and matches the checked-in golden TSV. The grid crosses endpoint
// count with translation-unit scope, so both the global unit (one
// serially built island) and the per-socket DRHD path are exercised
// through the full sweep engine.
func TestIOMMUScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("topology golden skipped in -short")
	}
	goldenRoundTrip(t, "iommu-scale.json", "iommu-scale.golden.tsv", []int{1, 4, 7})
}

// TestIOMMUScopeKey pins the iommuscope parameter: values canonicalize
// through topo.ParseIOMMUScope, bad values name the valid ones, and the
// key counts as instance-level (shared_instance probe sets may not vary
// it).
func TestIOMMUScopeKey(t *testing.T) {
	cfg, err := resolveConfig(map[string]string{"iommu": "true", "iommuscope": "per-socket"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opt.IOMMUScope != topo.IOMMUScopePerSocket {
		t.Errorf("iommuscope resolved to %q, want %q", cfg.Opt.IOMMUScope, topo.IOMMUScopePerSocket)
	}
	cfg, err = resolveConfig(map[string]string{"iommu": "true", "iommuscope": "global"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opt.IOMMUScope != topo.IOMMUScopeGlobal {
		t.Errorf("iommuscope resolved to %q, want %q", cfg.Opt.IOMMUScope, topo.IOMMUScopeGlobal)
	}
	if _, err := resolveConfig(map[string]string{"iommuscope": "per-core"}); err == nil ||
		!strings.Contains(err.Error(), "per-socket") {
		t.Errorf("bad iommuscope error %v, want one naming the valid scopes", err)
	}
	if !optLevelKeys["iommuscope"] {
		t.Error("iommuscope missing from optLevelKeys; shared_instance could vary it")
	}
}
