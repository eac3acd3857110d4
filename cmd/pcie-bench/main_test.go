package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"runtime"
	"strings"
	"testing"
)

// runCLI invokes the command as the shell would and captures stdout.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

func TestListSystems(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NFP6000-HSW", "NetFPGA-HSW", "NFP6000-BDW"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestSingleBenchJSON(t *testing.T) {
	out, err := runCLI(t, "-bench", "bw_rd", "-n", "500", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output not JSON: %v\n%s", err, out)
	}
	if res.Bench != "bw_rd" || res.System != "NFP6000-HSW" || res.Gbps <= 0 {
		t.Errorf("result = %+v", res)
	}

	out, err = runCLI(t, "-bench", "lat_rd", "-n", "200", "-json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("latency -json output not JSON: %v\n%s", err, out)
	}
	if res.Latency == nil || res.Latency.Median <= 0 {
		t.Errorf("latency result = %+v", res)
	}
}

func TestSingleBenchText(t *testing.T) {
	out, err := runCLI(t, "-bench", "lat_wrrd", "-n", "200")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "LAT_WRRD") || !strings.Contains(out, "med=") {
		t.Errorf("text output:\n%s", out)
	}
}

func TestWorkloadBench(t *testing.T) {
	out, err := runCLI(t, "-bench", "workload", "-queues", "2", "-sizes", "imix",
		"-arrival", "rate:2M", "-n", "400")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WORKLOAD", "p99.9", "q0", "q1"} {
		if !strings.Contains(out, want) {
			t.Errorf("workload output missing %q:\n%s", want, out)
		}
	}

	out, err = runCLI(t, "-bench", "workload", "-nic", "dpdk", "-sizes", "64", "-n", "300", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("workload -json output not JSON: %v\n%s", err, out)
	}
	if res.Workload == nil || res.Workload.PPS <= 0 || len(res.Workload.Queues) != 1 {
		t.Errorf("workload result = %+v", res.Workload)
	}
	if res.Workload.Latency.P999 < res.Workload.Latency.Median {
		t.Errorf("percentiles inverted: %+v", res.Workload.Latency)
	}
}

func TestWorkloadBenchErrors(t *testing.T) {
	cases := [][]string{
		{"-bench", "workload", "-sizes", "bogus"},
		{"-bench", "workload", "-arrival", "drizzle:1M"},
		{"-bench", "workload", "-nic", "exotic"},
		{"-bench", "workload", "-intrmod", "sometimes"},
		{"-bench", "workload", "-n", "0"},
		// Counts that would silently run another configuration.
		{"-bench", "workload", "-intrmod", "0"},
		{"-bench", "workload", "-intrmod", "-3"},
		{"-bench", "workload", "-queues", "-3"},
		{"-bench", "workload", "-doorbell", "-4"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	// -h must exit 0: main treats flag.ErrHelp as success.
	if _, err := runCLI(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

func TestBadArguments(t *testing.T) {
	cases := [][]string{
		{"-bogus-flag"},
		{"-bench", "bw_up", "-n", "10"},
		{"-pattern", "zigzag"},
		{"-cache", "lukewarm"},
		{"-window", "huge"},
		{"-system", "PDP-11"},
		// Positional arguments and grid flags are refused: grids run
		// through pcie-repro.
		{"-bench", "lat_rd", "transfer=64"},
		{"-run", "fig9"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func TestP2PBench(t *testing.T) {
	out, err := runCLI(t, "-bench", "p2p", "-transfer", "256", "-n", "60")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "P2P direct") || !strings.Contains(out, "Gb/s") {
		t.Errorf("p2p output malformed:\n%s", out)
	}
	out, err = runCLI(t, "-bench", "p2p", "-p2p", "bounce", "-transfer", "256", "-n", "60", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("p2p -json not JSON: %v\n%s", err, out)
	}
	if res.P2P == nil || res.P2P.Mode != "bounce" || res.P2P.Gbps <= 0 {
		t.Errorf("p2p -json payload malformed: %+v", res.P2P)
	}
}

func TestMultiEndpointWorkload(t *testing.T) {
	out, err := runCLI(t, "-bench", "workload", "-endpoints", "2", "-switch", "gen3x8", "-n", "200")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WORKLOAD", "ep0", "ep1", "uplink arb wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-endpoint workload output missing %q:\n%s", want, out)
		}
	}
	out, err = runCLI(t, "-bench", "workload", "-endpoints", "2", "-switch", "on", "-n", "200", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json not JSON: %v\n%s", err, out)
	}
	if res.WorkloadMulti == nil || len(res.WorkloadMulti.Endpoints) != 2 {
		t.Errorf("workload_multi payload malformed: %+v", res.WorkloadMulti)
	}
}

func TestTopologyFlagErrors(t *testing.T) {
	if _, err := runCLI(t, "-bench", "bw_rd", "-endpoints", "2", "-switch", "on"); err == nil {
		t.Error("topology flags on bw_rd accepted")
	}
	if _, err := runCLI(t, "-bench", "workload", "-switch", "gen9x9", "-n", "50"); err == nil {
		t.Error("bad switch selector accepted")
	}
	if _, err := runCLI(t, "-bench", "p2p", "-p2p", "sideways", "-n", "50"); err == nil {
		t.Error("bad p2p mode accepted")
	}
}

// TestForeignKindFlag: a flag set for another benchmark kind fails
// the run, naming the keys its kind accepts.
func TestForeignKindFlag(t *testing.T) {
	_, err := runCLI(t, "-bench", "lat_rd", "-queues", "4")
	if err == nil || !strings.Contains(err.Error(), `queues="4": unknown parameter for bench "lat_rd" (valid: `) {
		t.Errorf("-queues on lat_rd: %v, want the lat_rd keys", err)
	}
}

// TestFaultFlags drives the -ber/-cto/-retrain CLI surface: a faulty
// workload run prints per-endpoint AER-style counter lines, a
// zero-fault run prints none, and bad values error before any
// simulation runs.
func TestFaultFlags(t *testing.T) {
	out, err := runCLI(t, "-system", "NFP6000-BDW", "-bench", "workload",
		"-endpoints", "2", "-switch", "gen3x8", "-nojitter",
		"-ber", "1e-5", "-retrain", "100us", "-n", "400")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "faults:") || !strings.Contains(out, "replays") {
		t.Errorf("faulty run missing counter lines:\n%s", out)
	}

	clean, err := runCLI(t, "-system", "NFP6000-BDW", "-bench", "workload",
		"-endpoints", "2", "-switch", "gen3x8", "-nojitter", "-n", "400")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean, "faults:") {
		t.Errorf("fault-free run printed counters:\n%s", clean)
	}

	// A generous CTO on a micro bench prints engine counters.
	out, err = runCLI(t, "-bench", "lat_rd", "-cto", "1ms", "-n", "200")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "faults:") {
		t.Errorf("CTO run missing counter line:\n%s", out)
	}

	for _, bad := range [][]string{
		{"-ber", "2"},
		{"-cto", "soon"},
		{"-retrain", "-5us"},
	} {
		if _, err := runCLI(t, append([]string{"-bench", "lat_rd", "-n", "100"}, bad...)...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestSimParallelIdentity runs multi-island fabrics at GOMAXPROCS 1,
// which builds them serially, and at GOMAXPROCS 4, which runs their
// islands on four goroutines; the output must not differ by a byte.
// Every shape splits into several islands (a shared switch or socket,
// or a global-scope IOMMU, builds one island serially, so diffing it
// would compare serial with serial): the split topology, the split
// topology with per-socket IOMMU units, an open-loop IMIX run with BER
// replays and link retrains, and a BER run whose fault counters must
// print.
func TestSimParallelIdentity(t *testing.T) {
	split := []string{"-system", "NFP6000-BDW", "-bench", "workload", "-socket", "split", "-local-buffers"}
	cases := []struct {
		name   string
		args   []string
		faults bool
	}{
		{"split", []string{"-endpoints", "4", "-nojitter", "-n", "400"}, false},
		{"split-iommu", []string{"-endpoints", "4", "-nojitter", "-iommu", "-iommu-scope", "per-socket", "-n", "300"}, false},
		{"openloop-faults", []string{"-endpoints", "8", "-sizes", "imix", "-arrival", "poisson:2M:burst=4", "-ber", "1e-6", "-retrain", "50us", "-n", "300"}, false},
		{"ber", []string{"-endpoints", "4", "-nojitter", "-ber", "1e-6", "-n", "300"}, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), split...), tc.args...)
			runtime.GOMAXPROCS(1)
			serial, err := runCLI(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(4)
			parallel, err := runCLI(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			if serial != parallel {
				t.Errorf("GOMAXPROCS 4 diverged from serial:\n%s\n--- serial ---\n%s", parallel, serial)
			}
			if tc.faults && !strings.Contains(serial, "faults:") {
				t.Errorf("BER run printed no fault counters:\n%s", serial)
			}
		})
	}
}
