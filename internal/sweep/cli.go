package sweep

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"pciebench/internal/buildinfo"
	"pciebench/internal/cache"
)

// The helpers below are the shared CLI surface of cmd/pcie-repro and
// cmd/pcie-bench: list registered sweeps, load a JSON spec, and run a
// grid through the Engine with overrides applied and the result
// emitted. Keeping the dispatch here means the commands cannot drift
// apart — they parse flags, fill a CLI and call Execute.

// CLI is the shared sweep dispatch of the commands: exactly one of
// List, RunName or SpecPath selects the action.
type CLI struct {
	// List prints the registered sweeps and exits.
	List bool
	// RunName runs a registered sweep by name.
	RunName string
	// SpecPath runs a custom sweep from a JSON spec file.
	SpecPath string
	// Overrides are trailing "name=v1,v2,..." axis/base overrides.
	Overrides []string
	// Format selects the emitter (see Formats).
	Format string
	// Quality scales transaction counts (Quick or Full).
	Quality Quality
	// CacheDir, when non-empty, dedups cells against an on-disk
	// content-addressed result cache rooted there; identical cells are
	// served without executing and a short hit/miss line goes to
	// stderr.
	CacheDir string
}

// Active reports whether any sweep-dispatch action was requested.
func (c *CLI) Active() bool {
	return c.List || c.RunName != "" || c.SpecPath != ""
}

// Execute performs the selected action, writing results to stdout and
// progress/accounting to stderr (either may be nil to discard).
func (c *CLI) Execute(ctx context.Context, stdout, stderr io.Writer) error {
	if stdout == nil {
		stdout = io.Discard
	}
	if stderr == nil {
		stderr = io.Discard
	}
	if c.List {
		ListSpecs(stdout)
		return nil
	}
	var spec *Spec
	var err error
	if c.RunName != "" {
		spec, err = ByName(c.RunName)
	} else {
		spec, err = LoadSpecFile(c.SpecPath)
	}
	if err != nil {
		return err
	}

	emit, err := EmitterFor(c.Format)
	if err != nil {
		return err
	}
	if err := spec.ApplyOverrides(c.Overrides); err != nil {
		return err
	}

	engine := &Engine{Quality: c.Quality}
	if c.CacheDir != "" {
		store, err := cache.NewDisk(c.CacheDir)
		if err != nil {
			return fmt.Errorf("sweep: open cache: %w", err)
		}
		engine.Cache = store
		engine.Build = buildinfo.Version()
	}
	// Grids above 64 cells get a progress meter on stderr.
	if spec.Count() > 64 {
		total := spec.Count()
		engine.Progress = func(done, _ int) {
			if done%32 == 0 || done == total {
				fmt.Fprintf(stderr, "\r%d/%d", done, total)
			}
		}
		defer fmt.Fprintln(stderr)
	}
	res, stats, err := engine.Run(ctx, spec)
	if err != nil {
		return err
	}
	if engine.Cache != nil {
		fmt.Fprintf(stderr, "cache: %d/%d cells hit, %d executed\n",
			stats.Hits, stats.Cells, stats.Executed)
	}
	return emit(stdout, res)
}

// ListSpecs prints the registered sweeps: name, cell count, axis
// shapes and description.
func ListSpecs(w io.Writer) {
	for _, s := range Specs() {
		axes := make([]string, 0, len(s.Axes))
		for _, a := range s.Axes {
			axes = append(axes, fmt.Sprintf("%s(%d)", a.Name, len(a.Values)))
		}
		fmt.Fprintf(w, "%-12s %4d cells  %-32s %s\n",
			s.Name, s.Count(), strings.Join(axes, " x "), s.Description)
	}
}

// LoadSpecFile reads and validates a JSON sweep spec.
func LoadSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
