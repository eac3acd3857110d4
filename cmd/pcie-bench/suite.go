package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pciebench/internal/sweep"
)

// suiteSpec is the cross-product of micro-benchmark runs the paper's
// control programs execute ("around 2500 individual tests", §5.4): the
// five benchmarks across transfer size, window, cache state and access
// pattern, 2,160 cells at simulation-sized transaction counts. The axes
// enumerate benchmark-major and every cell builds its own instance from
// a seed derived from seed and the cell index, so the report is
// byte-identical at any worker count.
//
// direct=true holds on every cell, but only the latency benchmarks
// read it, and the device takes its direct command interface only for
// transfers within its limit (128 B on the NFP; NetFPGA has none).
func suiteSpec(system string, iommu bool, iommuScope string, superPages bool, seed int64) *sweep.Spec {
	return &sweep.Spec{
		Name: "suite",
		Axes: []sweep.Axis{
			sweep.StrAxis("bench", "lat_rd", "lat_wrrd", "bw_rd", "bw_wr", "bw_rdwr"),
			sweep.IntAxis("transfer", 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
			sweep.IntAxis("window", 4<<10, 16<<10, 64<<10, 256<<10, 1<<20, 4<<20, 16<<20, 64<<20),
			sweep.StrAxis("cache", "cold", "warm", "devwarm"),
			sweep.StrAxis("pattern", "rand", "seq"),
		},
		Base: map[string]string{
			"system": system, "n": "300", "direct": "true", "iommu": strconv.FormatBool(iommu),
			"iommuscope": iommuScope, "sp": strconv.FormatBool(superPages),
		},
		Seed: seed,
	}
}

// runSuite executes a suite spec on a GOMAXPROCS-wide sweep engine
// with a done/total meter on stderr, then writes the TSV report to
// stdout: one row per cell in enumeration order, latency benchmarks
// filling median_ns and bandwidth benchmarks gbps.
func runSuite(ctx context.Context, s *sweep.Spec, stdout, stderr io.Writer) error {
	e := &sweep.Engine{Progress: func(done, total int) {
		if done%100 == 0 || done == total {
			fmt.Fprintf(stderr, "\r%d/%d", done, total)
		}
	}}
	res, _, err := e.Run(ctx, s)
	fmt.Fprintln(stderr)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	w.WriteString("bench\twindow\txfer\tpattern\tcache\tmedian_ns\tgbps\tstatus\n")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.1f\t%.2f\tok\n",
			strings.ToUpper(c.Cell.Get("bench")), c.Cell.Get("window"), c.Cell.Get("transfer"),
			c.Cell.Get("pattern"), c.Cell.Get("cache"), c.Meas[0].Median, c.Meas[0].Gbps)
	}
	return w.Flush()
}
