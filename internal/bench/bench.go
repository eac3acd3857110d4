// Package bench implements the pcie-bench methodology of paper §4: a
// family of micro-benchmarks that issue individual PCIe operations from
// a (simulated) device to a host buffer while carefully controlling the
// parameters that affect performance — window size, transfer size,
// offset within a cache line, access pattern, cache state and NUMA
// locality.
//
// Benchmark names follow the paper: LAT_RD and LAT_WRRD measure
// latency; BW_RD, BW_WR and BW_RDWR measure bandwidth.
package bench

import (
	"errors"
	"fmt"
	"sync"

	"pciebench/internal/device"
	"pciebench/internal/hostif"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/stats"
)

// Pattern selects how units inside the window are visited (§4).
type Pattern int

// Access patterns.
const (
	Random Pattern = iota
	Sequential
)

// String names the pattern.
func (p Pattern) String() string {
	if p == Sequential {
		return "seq"
	}
	return "rand"
}

// CacheState selects the LLC state established before a run (§4).
type CacheState int

// Cache states.
const (
	Cold       CacheState = iota // caches thrashed
	HostWarm                     // window written by the CPU
	DeviceWarm                   // window written via DMA (DDIO path)
)

// String names the cache state.
func (c CacheState) String() string {
	switch c {
	case HostWarm:
		return "warm"
	case DeviceWarm:
		return "devwarm"
	}
	return "cold"
}

// Params configures one micro-benchmark run.
type Params struct {
	// WindowSize is the portion of the host buffer accessed repeatedly.
	WindowSize int
	// TransferSize is the bytes moved per DMA.
	TransferSize int
	// Offset shifts each access from its unit's cache-line start,
	// exposing unaligned-access penalties.
	Offset int
	// Pattern is the unit visit order.
	Pattern Pattern
	// Cache is the LLC state established before the run.
	Cache CacheState
	// Transactions is the number of measured DMAs.
	Transactions int
	// Warmup DMAs run before measurement (0 = Transactions/20, capped
	// at 2000). Warmup fills the DMA pipeline and the IO-TLB the same
	// way the paper's long runs reach steady state.
	Warmup int
	// Direct selects the device's low-latency command interface where
	// available (NFP, transfers <= 128B).
	Direct bool
}

// latencyGap is the device-thread overhead between latency-test
// transactions (address computation, journaling).
const latencyGap = 50 * sim.Nanosecond

// UnitSize returns the footprint of one access unit: offset plus
// transfer size, rounded up to a whole number of cache lines (§4).
func (p Params) UnitSize() int {
	u := p.Offset + p.TransferSize
	return (u + pcie.CacheLineSize - 1) / pcie.CacheLineSize * pcie.CacheLineSize
}

// Units returns how many units fit in the window.
func (p Params) Units() int {
	u := p.UnitSize()
	if u == 0 {
		return 0
	}
	return p.WindowSize / u
}

// Parameter errors.
var (
	ErrWindowTooSmall = errors.New("bench: window smaller than one unit")
	ErrBufferTooSmall = errors.New("bench: window larger than the host buffer")
	ErrNoTransactions = errors.New("bench: transaction count must be positive")
	ErrBadTransfer    = errors.New("bench: transfer size must be positive")
)

// Validate checks p against a buffer of bufSize bytes.
func (p Params) Validate(bufSize int) error {
	if p.TransferSize <= 0 {
		return ErrBadTransfer
	}
	if p.Offset < 0 || p.Offset >= pcie.CacheLineSize {
		return fmt.Errorf("bench: offset %d out of [0,64)", p.Offset)
	}
	if p.Transactions <= 0 {
		return ErrNoTransactions
	}
	if p.Units() < 1 {
		return ErrWindowTooSmall
	}
	if p.WindowSize > bufSize {
		return ErrBufferTooSmall
	}
	return nil
}

func (p Params) warmup() int {
	if p.Warmup > 0 {
		return p.Warmup
	}
	w := p.Transactions / 20
	if w > 2000 {
		w = 2000
	}
	if w < 16 {
		w = 16
	}
	return w
}

// warmupWrites returns the warmup for benchmarks whose DMAs write the
// window. The paper runs millions of transactions per point, so the
// device writes themselves drive the DDIO region to steady state;
// shorter runs must replay that by touching most units before
// measuring (3x the unit count reaches ~95% coverage under random
// access), or a cold small window would measure first-touch misses the
// hardware would not see in steady state.
func (p Params) warmupWrites() int {
	if p.Warmup > 0 {
		return p.Warmup
	}
	w := 3 * p.Units()
	const maxWarm = 60000
	if w > maxWarm {
		w = maxWarm
	}
	if base := p.warmup(); w < base {
		w = base
	}
	return w
}

// String summarizes the parameters in pcie-bench's reporting style.
func (p Params) String() string {
	return fmt.Sprintf("win=%d xfer=%d off=%d %s %s n=%d",
		p.WindowSize, p.TransferSize, p.Offset, p.Pattern, p.Cache, p.Transactions)
}

// Target bundles the assembled system a benchmark runs against.
type Target struct {
	Host   *hostif.Host
	Engine *device.Engine
	Buffer *hostif.Buffer
}

// prepare validates parameters and establishes the cache state.
func (t *Target) prepare(p Params) error {
	if err := p.Validate(t.Buffer.Size); err != nil {
		return err
	}
	t.Host.Thrash()
	switch p.Cache {
	case HostWarm:
		t.Buffer.WarmHost(0, p.WindowSize)
	case DeviceWarm:
		t.Buffer.WarmDevice(0, p.WindowSize)
	}
	return nil
}

// addrGen yields the DMA address of transaction i.
type addrGen struct {
	t     *Target
	p     Params
	units int
	unit  int
}

func newAddrGen(t *Target, p Params) *addrGen {
	return &addrGen{t: t, p: p, units: p.Units()}
}

// next returns the DMA address for the next transaction.
func (g *addrGen) next() uint64 {
	var u int
	if g.p.Pattern == Sequential {
		u = g.unit
		g.unit = (g.unit + 1) % g.units
	} else {
		u = g.t.Engine.Kernel().Rand().Intn(g.units)
	}
	return g.t.Buffer.DMAAddr(u*g.p.UnitSize() + g.p.Offset)
}

// LatencyResult is the outcome of a latency benchmark.
type LatencyResult struct {
	Name    string
	Params  Params
	Samples []float64 // nanoseconds, quantized to the device counter
	Summary stats.Summary
}

// CDF returns the empirical CDF of the samples.
func (r *LatencyResult) CDF() (*stats.CDF, error) { return stats.NewCDF(r.Samples) }

// LatRd measures the latency of individual DMA reads (§4.1).
func LatRd(t *Target, p Params) (*LatencyResult, error) {
	return runLatency(t, p, "LAT_RD", false, func(addr uint64) (sim.Time, sim.Time, error) {
		c, ok := t.Engine.SubmitNow(device.Op{DMA: addr, Size: p.TransferSize, Direct: p.Direct})
		if !ok {
			return 0, 0, errors.New("bench: engine busy in latency test")
		}
		return c.Submitted, c.Done, c.Err
	})
}

// LatWrRd measures a DMA write followed by a DMA read of the same
// address; PCIe ordering makes the read wait for the write's memory
// visibility (§4.1). Write latency cannot be measured alone because
// writes are posted.
func LatWrRd(t *Target, p Params) (*LatencyResult, error) {
	return runLatency(t, p, "LAT_WRRD", true, func(addr uint64) (sim.Time, sim.Time, error) {
		w, ok := t.Engine.SubmitNow(device.Op{Write: true, DMA: addr, Size: p.TransferSize, Direct: p.Direct})
		if !ok {
			return 0, 0, errors.New("bench: engine busy in latency test")
		}
		if w.Err != nil {
			return 0, 0, w.Err
		}
		r, ok := t.Engine.SubmitNow(device.Op{
			DMA: addr, Size: p.TransferSize, Direct: p.Direct, OrderAfter: w.MemVisible,
		})
		if !ok {
			return 0, 0, errors.New("bench: engine busy in latency test")
		}
		return w.Submitted, r.Done, r.Err
	})
}

// latRun is the typed-event stepper behind runLatency: each event runs
// one transaction and schedules the next directly at completion plus
// the journaling gap, with no per-transaction closures. (The previous
// closure form scheduled an intermediate event at the completion time
// whose only job was to schedule the next step; collapsing the two
// changes no timestamps, because nothing else fires in the open
// interval between a completion and completion+gap.)
type latRun struct {
	engine *device.Engine
	gen    *addrGen
	op     func(addr uint64) (sim.Time, sim.Time, error)
	res    *LatencyResult
	warm   int
	total  int
	err    error
}

// Handle runs transaction a and schedules transaction a+1.
func (r *latRun) Handle(k *sim.Kernel, i, _ int64) {
	if int(i) >= r.total || r.err != nil {
		return
	}
	start, done, err := r.op(r.gen.next())
	if err != nil {
		r.err = err
		return
	}
	if int(i) >= r.warm {
		lat := r.engine.Quantize(done - start)
		r.res.Samples = append(r.res.Samples, lat.Nanoseconds())
	}
	k.AtEvent(done+latencyGap, r, i+1, 0)
}

// runLatency drives dependent transactions: each starts after the
// previous completes plus the journaling gap, exactly like the paper's
// single-threaded latency firmware.
func runLatency(t *Target, p Params, name string, writes bool, op func(addr uint64) (sim.Time, sim.Time, error)) (*LatencyResult, error) {
	if err := t.prepare(p); err != nil {
		return nil, err
	}
	k := t.Engine.Kernel()
	res := &LatencyResult{Name: name, Params: p}
	warm := p.warmup()
	if writes && p.Cache == Cold {
		warm = p.warmupWrites()
	}
	res.Samples = make([]float64, 0, p.Transactions)
	r := &latRun{
		engine: t.Engine,
		gen:    newAddrGen(t, p),
		op:     op,
		res:    res,
		warm:   warm,
		total:  warm + p.Transactions,
	}
	k.AfterEvent(0, r, 0, 0)
	k.Run()
	if r.err != nil {
		return nil, r.err
	}
	sc := scratchPool.Get().(*stats.Scratch)
	s, err := sc.Summarize(res.Samples)
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	res.Summary = s
	return res, nil
}

// scratchPool recycles the buffers latency summaries sort their
// samples in, so repeated runs (sweep grids, long benchmark loops) stop
// allocating one per call.
var scratchPool = sync.Pool{New: func() any { return new(stats.Scratch) }}

// BandwidthResult is the outcome of a bandwidth benchmark.
type BandwidthResult struct {
	Name   string
	Params Params
	// Gbps is the per-direction payload throughput in Gb/s: for BW_RD
	// and BW_WR all transactions move data one way; for BW_RDWR each
	// direction carries half the transactions.
	Gbps float64
	// TxnPerSec is the DMA completion rate.
	TxnPerSec float64
	// Elapsed is the measured span.
	Elapsed sim.Time
}

type bwKind int

const (
	bwRd bwKind = iota
	bwWr
	bwRdWr
)

// BwRd measures DMA read bandwidth (§4.2).
func BwRd(t *Target, p Params) (*BandwidthResult, error) { return runBandwidth(t, p, bwRd) }

// BwWr measures DMA write bandwidth (§4.2).
func BwWr(t *Target, p Params) (*BandwidthResult, error) { return runBandwidth(t, p, bwWr) }

// BwRdWr measures alternating read/write bandwidth, making MRd TLPs
// compete with MWr TLPs for the device→host direction (§4.2).
func BwRdWr(t *Target, p Params) (*BandwidthResult, error) { return runBandwidth(t, p, bwRdWr) }

// runBandwidth keeps the DMA engine saturated: an initial burst fills
// the in-flight window (the paper uses 96 worker threads on the NFP and
// back-to-back issue on NetFPGA); every completion submits the next
// transaction.
func runBandwidth(t *Target, p Params, kind bwKind) (*BandwidthResult, error) {
	if err := t.prepare(p); err != nil {
		return nil, err
	}
	k := t.Engine.Kernel()
	gen := newAddrGen(t, p)
	warm := p.warmup()
	if kind != bwRd && p.Cache == Cold {
		warm = p.warmupWrites()
	}
	total := warm + p.Transactions

	name := map[bwKind]string{bwRd: "BW_RD", bwWr: "BW_WR", bwRdWr: "BW_RDWR"}[kind]
	var (
		issued      int
		completed   int
		measureFrom sim.Time
		measureTo   sim.Time
		rerr        error
	)

	// submit and onDone are each created once per run and reused for
	// every transaction, so the saturation loop itself allocates
	// nothing per DMA.
	var submit func()
	onDone := func(c device.Completion) {
		if c.Err != nil && rerr == nil {
			rerr = c.Err
		}
		completed++
		if completed == warm {
			measureFrom = k.Now()
		}
		if completed == total {
			measureTo = k.Now()
		}
		submit()
	}
	submit = func() {
		if issued >= total || rerr != nil {
			return
		}
		i := issued
		issued++
		write := kind == bwWr || (kind == bwRdWr && i%2 == 1)
		t.Engine.Submit(device.Op{
			Write:  write,
			DMA:    gen.next(),
			Size:   p.TransferSize,
			OnDone: onDone,
		})
	}
	// Prime the pipeline: the engine queues what it cannot start.
	k.After(0, func() {
		burst := 2 * t.Engine.Config().MaxInFlight
		if burst > total {
			burst = total
		}
		for i := 0; i < burst; i++ {
			submit()
		}
	})
	k.Run()
	if rerr != nil {
		return nil, rerr
	}
	if measureTo <= measureFrom {
		return nil, errors.New("bench: degenerate measurement span")
	}
	elapsed := measureTo - measureFrom
	bytesMoved := float64(p.Transactions) * float64(p.TransferSize)
	if kind == bwRdWr {
		bytesMoved /= 2 // per-direction accounting (§6.1 reporting)
	}
	return &BandwidthResult{
		Name:      name,
		Params:    p,
		Gbps:      bytesMoved * 8 / elapsed.Seconds() / 1e9,
		TxnPerSec: float64(p.Transactions) / elapsed.Seconds(),
		Elapsed:   elapsed,
	}, nil
}
