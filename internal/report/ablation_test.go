package report

import (
	"testing"
)

func TestAblationMPS(t *testing.T) {
	fig, err := AblationMPS(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	s128 := fig.SeriesByName("MPS=128")
	s512 := fig.SeriesByName("MPS=512")
	// Larger MPS always wins at large transfers (fewer headers).
	if s512.YAt(1500) <= s128.YAt(1500) {
		t.Errorf("MPS=512 (%.1f) not above MPS=128 (%.1f) at 1500B",
			s512.YAt(1500), s128.YAt(1500))
	}
	// The saw-tooth period follows MPS: 129B drops for MPS=128 but not
	// for MPS=512 (first tooth runs to 512B).
	if s128.YAt(129) >= s128.YAt(128) {
		t.Error("no tooth at 129B for MPS=128")
	}
	if s512.YAt(129) < s512.YAt(128) {
		t.Error("unexpected tooth at 129B for MPS=512")
	}
}

func TestAblationGen4(t *testing.T) {
	fig, err := AblationGen4(Quick)
	if err != nil {
		t.Fatal(err)
	}
	g3 := fig.SeriesByName("BW_RD (Gen3)")
	g4 := fig.SeriesByName("BW_RD (Gen4)")
	mdl4 := fig.SeriesByName("Model BW (Gen4)")
	if g3 == nil || g4 == nil || mdl4 == nil {
		t.Fatal("missing series")
	}
	// Gen4 doubles large-transfer throughput...
	r := g4.YAt(2048) / g3.YAt(2048)
	if r < 1.7 || r > 2.2 {
		t.Errorf("Gen4/Gen3 @2048B = %.2f, want ~2", r)
	}
	// ...but small transfers stay latency-bound: the 64B gain is far
	// below 2x (the projection's takeaway).
	r64 := g4.YAt(64) / g3.YAt(64)
	if r64 > 1.5 {
		t.Errorf("Gen4/Gen3 @64B = %.2f; small reads should be latency-bound", r64)
	}
	// Gen4 measured tracks its model at large sizes.
	if g4.YAt(2048) < 0.8*mdl4.YAt(2048) {
		t.Errorf("Gen4 measured %.1f far below model %.1f", g4.YAt(2048), mdl4.YAt(2048))
	}
}

func TestAblationWalkers(t *testing.T) {
	fig, err := AblationWalkers(Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// Bandwidth scales with the pool while translation-bound: 6
	// walkers deliver several times what 1 does, and the curve is
	// monotone non-decreasing.
	if s.YAt(6) < 3*s.YAt(1) {
		t.Errorf("6 walkers (%.1f) not >> 1 walker (%.1f)", s.YAt(6), s.YAt(1))
	}
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1]*0.98 {
			t.Errorf("walker scaling not monotone at %g", s.X[i])
		}
	}
}

func TestAblationInFlight(t *testing.T) {
	fig, err := AblationInFlight(Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// §2's sizing argument: 1 in-flight DMA is an order of magnitude
	// below the 32-deep window; beyond ~64 the link caps gains.
	if s.YAt(32) < 8*s.YAt(1) {
		t.Errorf("32-deep (%.1f) not >> serial (%.1f)", s.YAt(32), s.YAt(1))
	}
	gain := s.YAt(128) / s.YAt(64)
	if gain > 1.3 {
		t.Errorf("128 vs 64 in flight still gains %.2fx; link should cap", gain)
	}
}
