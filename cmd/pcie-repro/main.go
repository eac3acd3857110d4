// Command pcie-repro regenerates every table and figure of the paper's
// evaluation: Figures 1, 2, 4a-c, 5, 6, 7a-b, 8 and 9 plus Tables 1
// and 2. TSV series suitable for gnuplot are written to the output
// directory; tables and a paper-versus-measured summary go to stdout.
//
// Every measured experiment is a declarative sweep (internal/sweep),
// so the same grids — and entirely new ones — also run standalone:
//
//	pcie-repro                      # quick run into ./repro-out
//	pcie-repro -full -out dir       # paper-scale sample counts
//	pcie-repro -only fig9           # a single experiment
//	pcie-repro -list                # registered sweeps
//	pcie-repro -run fig4 gen=4,5    # a registered sweep with axis overrides
//	pcie-repro -spec my.json -format csv  # a fully custom grid from JSON
//
// Experiment points run on a GOMAXPROCS-wide worker pool, and a
// multi-endpoint fabric cell runs its islands on up to as many
// goroutines; results are collected in submission order, so the
// generated files are byte-identical at every core count
// (GOMAXPROCS=N limits the CPUs used). Each figure is measured once
// per run: Table 2 and the paper-versus-measured summary reuse it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pciebench/internal/report"
	"pciebench/internal/sweep"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcie-repro:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, dispatches to the
// sweep CLI surface (-list/-run/-spec) or regenerates the paper
// artifacts, and writes human output to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcie-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "repro-out", "output directory for TSV series")
		full     = fs.Bool("full", false, "paper-scale sample counts (slower)")
		only     = fs.String("only", "", "run a single experiment (fig1..fig9, table1, table2)")
		list     = fs.Bool("list", false, "list registered sweeps and exit")
		runName  = fs.String("run", "", "run one registered sweep; remaining args override axes (e.g. gen=4,5 lanes=16)")
		specPath = fs.String("spec", "", "run a custom sweep from a JSON spec file; remaining args override axes")
		format   = fs.String("format", "table", "sweep output format: "+strings.Join(sweep.Formats(), "|"))
		cacheDir = fs.String("cache-dir", "", "dedup sweep cells against an on-disk result cache in this directory")
		ber      = fs.String("ber", "", "with -run/-spec: override the link bit error rate axis (e.g. 1e-6)")
		cto      = fs.String("cto", "", "with -run/-spec: override the completion-timeout axis (e.g. 10us)")
		retrain  = fs.String("retrain", "", "with -run/-spec: override the link-retrain MTBF axis (e.g. 50us)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	faultOverrides := faultArgs(*ber, *cto, *retrain)

	q := report.Quick
	if *full {
		q = report.Full
	}
	cli := &sweep.CLI{
		List: *list, RunName: *runName, SpecPath: *specPath,
		Overrides: append(fs.Args(), faultOverrides...), Format: *format,
		Quality: q, CacheDir: *cacheDir,
	}
	if cli.Active() {
		return cli.Execute(context.Background(), stdout, stderr)
	}
	if len(cli.Overrides) > 0 {
		return fmt.Errorf("unexpected arguments %v (axis overrides need -run or -spec)", cli.Overrides)
	}
	return reproduce(*out, *only, q, stdout)
}

// faultArgs turns the -ber/-cto/-retrain convenience flags into sweep
// axis overrides; spec validation parses them before any cell runs.
func faultArgs(ber, cto, retrain string) []string {
	var overrides []string
	for _, f := range []struct{ key, val string }{{"ber", ber}, {"cto", cto}, {"retrain", retrain}} {
		if f.val != "" {
			overrides = append(overrides, f.key+"="+f.val)
		}
	}
	return overrides
}

// reproduce regenerates the paper's figures and tables into dir.
func reproduce(dir, only string, q report.Quality, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	type experiment struct {
		id  string
		run func() error
	}
	writeFig := func(fig *report.Figure) error {
		path := filepath.Join(dir, fig.ID+".tsv")
		if err := os.WriteFile(path, []byte(fig.TSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", path)
		return nil
	}
	writeFigs := func(parts []*report.Figure, err error) error {
		if err != nil {
			return err
		}
		for _, f := range parts {
			if err := writeFig(f); err != nil {
				return err
			}
		}
		return nil
	}
	writeFigErr := func(fig *report.Figure, err error) error {
		if err != nil {
			return err
		}
		return writeFig(fig)
	}
	writeTable := func(name string, t *report.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		return os.WriteFile(filepath.Join(dir, name+".tsv"), []byte(t.TSV()), 0o644)
	}

	figs := report.NewFigures(q)
	experiments := []experiment{
		{"table1", func() error { return writeTable("table1", report.Table1(), nil) }},
		{"fig1", func() error { return writeFig(report.Fig1()) }},
		{"fig2", func() error { return writeFigErr(figs.Fig2()) }},
		{"fig4", func() error { return writeFigs(figs.Fig4()) }},
		{"fig5", func() error { return writeFigErr(figs.Fig5()) }},
		{"fig6", func() error { return writeFigErr(figs.Fig6()) }},
		{"fig7", func() error { return writeFigs(figs.Fig7()) }},
		{"fig8", func() error { return writeFigErr(figs.Fig8()) }},
		{"fig9", func() error { return writeFigErr(figs.Fig9()) }},
		{"table2", func() error { t, err := report.Table2(figs); return writeTable("table2", t, err) }},
		{"ablations", func() error {
			if err := writeFig(report.AblationMPS()); err != nil {
				return err
			}
			for _, run := range []func(report.Quality) (*report.Figure, error){
				report.AblationGen4, report.AblationWalkers, report.AblationInFlight,
			} {
				fig, err := run(q)
				if err != nil {
					return err
				}
				if err := writeFig(fig); err != nil {
					return err
				}
			}
			return nil
		}},
		{"expect", func() error {
			t, err := report.Expectations(figs)
			return writeTable("expectations", t, err)
		}},
	}

	for _, e := range experiments {
		if only != "" && !strings.HasPrefix(e.id, only) && e.id != "expect" {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "== %s ==\n", e.id)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintf(stdout, "  (%.1fs)\n", time.Since(start).Seconds())
	}
	return nil
}
