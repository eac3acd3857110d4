// Command pcie-trace captures the wire-exact TLP stream of a short
// benchmark run — every request, write and completion with its
// simulated timestamp — and prints it as a decoded per-packet log plus
// a summary, optionally saving the binary journal. This is the
// debugging view the paper's authors used to validate DMA engine
// implementations (§7: "the methodology was also extensively used for
// validation during chip bring-up").
//
// Examples:
//
//	pcie-trace -transfer 1024 -n 3
//	pcie-trace -bench lat_wrrd -transfer 300 -offset 16 -out run.tlpj
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"pciebench/internal/bench"
	"pciebench/internal/sysconf"
	"pciebench/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcie-trace:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, runs the traced
// benchmark and writes the decoded TLP log to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcie-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system   = fs.String("system", "NFP6000-HSW", "system under test")
		benchSel = fs.String("bench", "lat_rd", "lat_rd|lat_wrrd")
		transfer = fs.Int("transfer", 512, "transfer size in bytes")
		offset   = fs.Int("offset", 0, "offset from cache line start")
		n        = fs.Int("n", 2, "transactions to capture")
		out      = fs.String("out", "", "write the binary journal to this file")
		limit    = fs.Int("limit", 10000, "max records retained")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var runBench func(*bench.Target, bench.Params) (*bench.LatencyResult, error)
	switch *benchSel {
	case "lat_rd":
		runBench = bench.LatRd
	case "lat_wrrd":
		runBench = bench.LatWrRd
	default:
		return fmt.Errorf("unknown benchmark %q (want lat_rd or lat_wrrd)", *benchSel)
	}

	sys, err := sysconf.ByName(*system)
	if err != nil {
		return err
	}
	inst, err := sys.Build(sysconf.Options{BufferSize: 1 << 20, NoJitter: true})
	if err != nil {
		return err
	}
	buf := &trace.Buffer{Limit: *limit}
	inst.RC.SetTracer(buf)

	p := bench.Params{
		WindowSize:   64 << 10,
		TransferSize: *transfer,
		Offset:       *offset,
		Cache:        bench.HostWarm,
		Transactions: *n,
		Warmup:       1,
	}
	res, err := runBench(inst.Target(), p)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# %s on %s: %s\n", res.Name, sys.Name, p)
	fmt.Fprintf(stdout, "# measured: %s\n#\n", res.Summary)
	fmt.Fprint(stdout, trace.Dump(buf.Records))

	s := trace.Summarize(buf.Records)
	fmt.Fprintf(stdout, "#\n# %d TLPs (%d up / %d down), %d up bytes, %d down bytes, span %v\n",
		s.Records, s.UpTLPs, s.DownTLPs, s.UpBytes, s.DownBytes, s.Last-s.First)
	for _, kind := range slices.Sorted(maps.Keys(s.ByKind)) {
		fmt.Fprintf(stdout, "#   %-4s x%d\n", kind, s.ByKind[kind])
	}
	if buf.Dropped > 0 {
		fmt.Fprintf(stdout, "# %d records dropped (limit %d)\n", buf.Dropped, *limit)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := buf.WriteTo(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# journal written to %s\n", *out)
	}
	return nil
}
