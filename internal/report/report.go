// Package report regenerates every table and figure of the paper's
// evaluation from the pciebench simulator and model, as aligned-text
// tables and gnuplot-ready TSV series.
//
// Each experiment function corresponds to one artifact (Fig1..Fig9,
// Table1, Table2) and, Table1 aside, runs sweep specs on the sweep
// engine (README "Declarative sweeps"). Expectations tabulates
// paper-reported versus measured values; pcie-repro writes it as
// expectations.tsv, whose quick-quality golden is
// cmd/pcie-repro/testdata/quick/expectations.tsv. The tests in this
// package assert the shape invariants that table claims.
package report

import (
	"fmt"
	"strings"

	"pciebench/internal/stats"
	"pciebench/internal/sweep"
)

// Quality scales experiment sizes; the Quick/Full knob and its
// per-benchmark transaction counts are defined once in internal/sweep
// and aliased here for the experiment entry points.
type Quality = sweep.Quality

// Quality levels.
const (
	Quick = sweep.Quick
	Full  = sweep.Full
)

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// TSV renders the table as tab-separated values.
func (t *Table) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteString("\n")
	}
	return b.String()
}

// Figure is a multi-series result figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []*stats.Series
}

// TSV renders all series in gnuplot "index" format (blank-line
// separated blocks).
func (f *Figure) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n# x=%s y=%s\n", f.ID, f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		b.WriteString(s.TSV())
		b.WriteString("\n")
	}
	return b.String()
}

// SeriesByName returns the named series, or nil.
func (f *Figure) SeriesByName(name string) *stats.Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// series returns the named series, appending it to the figure first
// if it is new, so series appear in the order cells first name them.
func (f *Figure) series(name string) *stats.Series {
	s := f.SeriesByName(name)
	if s == nil {
		s = &stats.Series{Name: name}
		f.Series = append(f.Series, s)
	}
	return s
}

// transferSizes returns the paper's Fig 4 sweep: powers of two from 64
// to 2048 with ±1 B probes around TLP-relevant boundaries.
func transferSizes() []int {
	return []int{
		64, 128, 192, 255, 256, 257, 384, 511, 512, 513,
		768, 1023, 1024, 1025, 1536, 2047, 2048,
	}
}

// latencySizes returns the Fig 5 sweep (8..2048, powers of two).
func latencySizes() []int {
	return []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
}

// windowSizes returns the Fig 7-9 sweep (4 KB .. 64 MB).
func windowSizes() []int {
	return []int{
		4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20,
	}
}
