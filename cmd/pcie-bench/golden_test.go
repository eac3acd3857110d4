package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// singleRunCases cover every -bench kind and the renderer branches of a
// single run: CDF and fault lines, the direct path, the IOMMU, each
// workload design and moderation, switched, faulty, split and
// island-parallel fabrics, and the three p2p paths.
var singleRunCases = []struct {
	name string
	args []string
}{
	{"lat-rd", []string{"-bench", "lat_rd", "-n", "200"}},
	{"lat-rd-cdf", []string{"-bench", "lat_rd", "-n", "200", "-cdf"}},
	{"lat-rd-cto", []string{"-bench", "lat_rd", "-n", "200", "-cto", "1ms"}},
	{"lat-wrrd-direct-cold", []string{"-bench", "lat_wrrd", "-direct", "-cache", "cold", "-transfer", "128", "-n", "200"}},
	{"bw-rd-iommu", []string{"-system", "NFP6000-BDW", "-bench", "bw_rd", "-iommu", "-window", "16M", "-n", "500"}},
	{"bw-wr-seq-devwarm", []string{"-bench", "bw_wr", "-pattern", "seq", "-cache", "devwarm", "-transfer", "256", "-n", "500"}},
	{"bw-rdwr", []string{"-bench", "bw_rdwr", "-transfer", "512", "-n", "500"}},
	{"wl-imix-rate", []string{"-bench", "workload", "-queues", "2", "-sizes", "imix", "-arrival", "rate:2M", "-n", "400"}},
	{"wl-dpdk", []string{"-bench", "workload", "-nic", "dpdk", "-sizes", "64", "-n", "300"}},
	{"wl-simple-poll-doorbell", []string{"-bench", "workload", "-nic", "simple", "-intrmod", "poll", "-doorbell", "4", "-sizes", "256", "-n", "300"}},
	{"wl-ber", []string{"-bench", "workload", "-ber", "1e-5", "-n", "300"}},
	{"wl-switch-gen3x8", []string{"-bench", "workload", "-endpoints", "2", "-switch", "gen3x8", "-n", "200"}},
	{"wl-switch-on", []string{"-bench", "workload", "-endpoints", "3", "-switch", "on", "-sizes", "512", "-n", "200"}},
	{"wl-switch-faults", []string{"-system", "NFP6000-BDW", "-bench", "workload", "-endpoints", "2", "-switch", "gen3x8", "-nojitter", "-ber", "1e-5", "-retrain", "100us", "-n", "300"}},
	{"wl-split-iommu", []string{"-system", "NFP6000-BDW", "-bench", "workload", "-endpoints", "4", "-socket", "split", "-local-buffers", "-iommu", "-iommu-scope", "per-socket", "-nojitter", "-n", "200"}},
	{"wl-openloop-faults-par", []string{"-system", "NFP6000-BDW", "-bench", "workload", "-endpoints", "4", "-socket", "split", "-local-buffers", "-sizes", "imix", "-arrival", "poisson:2M:burst=4", "-ber", "1e-6", "-retrain", "50us", "-n", "200"}},
	{"p2p-direct", []string{"-bench", "p2p", "-transfer", "256", "-n", "100"}},
	{"p2p-bounce", []string{"-bench", "p2p", "-p2p", "bounce", "-transfer", "1024", "-n", "100"}},
	{"p2p-split", []string{"-system", "NFP6000-BDW", "-bench", "p2p", "-socket", "split", "-transfer", "512", "-n", "100"}},
}

// TestSingleRunGolden pins the text and -json output of single runs
// byte for byte. Regenerate with
// `go test ./cmd/pcie-bench -run SingleRunGolden -update` after an
// intended output change, and review the diff.
func TestSingleRunGolden(t *testing.T) {
	for _, tc := range singleRunCases {
		for _, form := range []struct {
			ext  string
			args []string
		}{
			{"txt", tc.args},
			{"json", append(append([]string(nil), tc.args...), "-json")},
		} {
			t.Run(tc.name+"."+form.ext, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				if err := run(form.args, &stdout, &stderr); err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", "single", tc.name+"."+form.ext)
				if *update {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if got := stdout.String(); got != string(want) {
					t.Errorf("output diverged from %s:\n%s\n--- want ---\n%s", golden, got, want)
				}
			})
		}
	}
}
