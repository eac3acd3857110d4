package sweep

// The fault-injection sweeps: degraded-link studies the error-free
// source paper never ran (see internal/fault). Registered here so the
// CLIs, the service and CI all share one definition; the JSON mirror
// in examples/sweeps/ber-goodput.json drives the same grid through
// the wire format (TestBerGoodputSpecMirrorsRegistered).
func init() {
	Register(&Spec{
		Name:  "ber-goodput",
		Title: "Goodput and tail latency vs link bit error rate",
		Description: "4 NICs behind one Gen3 x8 switch with per-port BER-driven " +
			"LCRC corruption: goodput degrades monotonically and p99.9 inflates " +
			"as replays (and, past the REPLAY_NUM rollover, retrains) consume " +
			"link time; per-endpoint AER-style counters quantify the damage",
		XAxis:    "ber",
		XLabel:   "bit error rate",
		YLabel:   "pps / Gb/s / p99.9 (ns)",
		Axes:     []Axis{StrAxis("ber", "0", "1e-9", "1e-8", "1e-7", "1e-6", "1e-5")},
		SeedMode: SeedFixed,
		Seed:     17,
		Base: map[string]string{
			"bench":     BenchWorkload,
			"system":    "NFP6000-BDW",
			"endpoints": "4",
			"switch":    "gen3x8",
			"nojitter":  "true",
			"queues":    "1",
			"sizes":     "1500",
		},
		Probes: []Probe{
			{Label: "pps", Metric: MetricPPS},
			{Label: "gbps", Metric: MetricGbps},
			{Label: "p99.9_ns", Metric: MetricP999},
			{Label: "replays", Metric: MetricReplays},
			{Label: "retrains", Metric: MetricRetrains},
			{Label: "timeouts", Metric: MetricTimeouts},
			{Label: "ep0_replays", Metric: "replays0"},
		},
	})
}
