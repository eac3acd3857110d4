// Package device provides the device-side half of pcie-bench: a DMA
// engine model with descriptor issue, bounded in-flight transactions,
// device-internal staging costs and quantized timestamping. The NFP and
// NetFPGA models (subpackages nfp and netfpga) are parameterizations of
// this engine matching the architectures described in paper §5.1/§5.2.
//
// An engine binds to a Path — any attachment point into the PCIe
// fabric. The degenerate single-device systems pass the *rc.RootComplex
// itself; multi-endpoint topologies bind each engine to its own
// *rc.Port, possibly below a shared switch.
package device

import (
	"fmt"

	"pciebench/internal/fault"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// Path is the engine's view of its attachment into the PCIe fabric.
// Both *rc.RootComplex (port 0 of the degenerate topology) and *rc.Port
// implement it.
type Path interface {
	DMAReadOrdered(at sim.Time, dma uint64, sz int, orderAfter sim.Time) (rc.ReadResult, error)
	DMAWrite(at sim.Time, dma uint64, sz int) (rc.WriteResult, error)
}

// Config parameterizes a DMA engine.
type Config struct {
	// Name identifies the device model in reports.
	Name string
	// IssueLatency is the per-operation cost before the DMA engine
	// sees the descriptor: address computation, descriptor build,
	// enqueue (NFP: ~a CTM round trip; NetFPGA: one clock cycle).
	IssueLatency sim.Time
	// IssueInterval is the engine's descriptor service time; its
	// inverse is the peak DMA issue rate.
	IssueInterval sim.Time
	// MaxInFlight bounds concurrently outstanding DMAs (tag space /
	// descriptor queue depth). Ops beyond it queue inside the device.
	MaxInFlight int
	// StagingPSPerByte models the NFP's additional internal transfer
	// between the PCIe-adjacent SRAM (CTM) and processing memory, in
	// picoseconds per byte (0 = direct placement, as on NetFPGA).
	StagingPSPerByte int64
	// StagingFixed is the fixed part of the staging cost.
	StagingFixed sim.Time
	// RxPSPerByte is the store-and-forward accumulation latency of
	// read-completion data into device memory before the engine
	// signals completion, in picoseconds per byte. It adds latency but
	// is pipelined across DMAs, so it does not cap throughput.
	RxPSPerByte int64
	// CompletionOverhead is the device-side signalling cost after the
	// last data arrives (interrupt/event delivery to the issuing
	// thread).
	CompletionOverhead sim.Time
	// TimestampResolution quantizes measured durations the way the
	// device's cycle counter does (19.2 ns on the NFP, 4 ns on
	// NetFPGA).
	TimestampResolution sim.Time

	// SupportsDirect enables a low-latency "PCIe command interface"
	// path for small transfers (NFP §5.1): no descriptor queue, no
	// staging.
	SupportsDirect bool
	// DirectIssueLatency is the issue cost on the direct path.
	DirectIssueLatency sim.Time
	// DirectMaxSize is the largest transfer the direct path accepts.
	DirectMaxSize int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IssueInterval < 0 || c.IssueLatency < 0 {
		return fmt.Errorf("device: negative issue cost")
	}
	if c.MaxInFlight < 1 {
		return fmt.Errorf("device: MaxInFlight must be >= 1")
	}
	return nil
}

// Completion reports the timeline of one finished operation.
type Completion struct {
	// Submitted is when the op entered the device.
	Submitted sim.Time
	// Issued is when the first TLP hit the link.
	Issued sim.Time
	// Done is the device-visible completion: for reads, data staged
	// and the issuing thread signalled; for (posted) writes, the
	// engine's injection of the last TLP.
	Done sim.Time
	// MemVisible is, for writes, when the data is globally visible in
	// host memory (used for ordering in LAT_WRRD); zero for reads.
	MemVisible sim.Time
	// Err reports a failed DMA (an IOMMU fault).
	Err error
}

// Latency returns Done-Submitted quantized to the device's timestamp
// resolution.
func (c Completion) Latency(resolution sim.Time) sim.Time {
	d := c.Done - c.Submitted
	if resolution > 1 {
		d = d / resolution * resolution
	}
	return d
}

// Op is one DMA operation submitted to the engine.
type Op struct {
	Write      bool
	DMA        uint64   // device-visible (bus) address
	Size       int      // bytes
	OrderAfter sim.Time // reads: memory access ordered after this time
	Direct     bool     // use the direct command interface if available
	OnDone     func(Completion)
}

// Engine is a device DMA engine bound to a root complex.
type Engine struct {
	k   *sim.Kernel
	rc  Path
	cfg Config

	issue    *sim.Server // descriptor issue stage
	inFlight int
	queue    []Op // waiting ops, FIFO from qhead; storage reused
	qhead    int

	// Completion records in flight between finish() and the kernel
	// event that delivers them. Slots are recycled through a freelist so
	// the steady state allocates nothing per operation.
	pending  []pendingDone
	freeList []int32

	// Completion-timeout model (zero cto = disabled, the exact
	// pre-fault path). A read whose completion would land more than
	// cto after issue times out and re-issues with exponential
	// backoff, aborting after fault.CTORetries re-issues.
	cto sim.Time
	ctr *fault.Counters

	// Statistics.
	Ops       uint64
	Bytes     uint64
	MaxQueued int
}

// pendingDone parks a completion and its callback until the kernel
// reaches the completion time.
type pendingDone struct {
	c      Completion
	onDone func(Completion)
}

// finishEvent delivers one pending completion; it is pointer-shaped, so
// scheduling it through the typed-event kernel does not allocate.
type finishEvent struct{ e *Engine }

// Handle frees the in-flight slot, starts a queued op, and runs the
// caller's OnDone — the same order the closure-based path used.
func (f finishEvent) Handle(_ *sim.Kernel, idx, _ int64) {
	e := f.e
	rec := e.pending[idx]
	e.pending[idx] = pendingDone{}
	e.freeList = append(e.freeList, int32(idx))
	e.inFlight--
	if e.qhead < len(e.queue) {
		next := e.queue[e.qhead]
		e.queue[e.qhead] = Op{}
		e.qhead++
		if e.qhead == len(e.queue) {
			e.queue = e.queue[:0]
			e.qhead = 0
		}
		e.start(next)
	}
	if rec.onDone != nil {
		rec.onDone(rec.c)
	}
}

// New builds an engine on the given fabric attachment.
func New(k *sim.Kernel, path Path, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{k: k, rc: path, cfg: cfg, issue: sim.NewServer(k)}, nil
}

// SetFaults installs the completion-timeout model (cfg.CTO) and the
// endpoint's shared AER-style counter block.
func (e *Engine) SetFaults(cfg fault.Config, ctr *fault.Counters) {
	e.cto = cfg.CTO
	e.ctr = ctr
}

// FaultCounters returns the engine's counter block, or nil when no
// fault model is installed.
func (e *Engine) FaultCounters() *fault.Counters { return e.ctr }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Path returns the engine's fabric attachment.
func (e *Engine) Path() Path { return e.rc }

// Kernel returns the simulation kernel.
func (e *Engine) Kernel() *sim.Kernel { return e.k }

// InFlight returns the number of outstanding DMAs.
func (e *Engine) InFlight() int { return e.inFlight }

// Quantize rounds a duration down to the device's timestamp resolution.
func (e *Engine) Quantize(d sim.Time) sim.Time {
	if e.cfg.TimestampResolution > 1 {
		return d / e.cfg.TimestampResolution * e.cfg.TimestampResolution
	}
	return d
}

// Submit enqueues an operation. If the engine has a free in-flight slot
// the operation starts immediately (in virtual time); otherwise it waits
// for a completion. OnDone fires as a simulation event at the op's
// completion time.
func (e *Engine) Submit(op Op) {
	if e.inFlight >= e.cfg.MaxInFlight {
		// Compact the dead prefix of popped ops before it dominates the
		// slice, so the queue reuses its storage instead of growing (and
		// reallocating) for the lifetime of the run.
		if e.qhead > 0 && e.qhead*2 >= len(e.queue) {
			n := copy(e.queue, e.queue[e.qhead:])
			clear(e.queue[n:])
			e.queue = e.queue[:n]
			e.qhead = 0
		}
		e.queue = append(e.queue, op)
		if n := len(e.queue) - e.qhead; n > e.MaxQueued {
			e.MaxQueued = n
		}
		return
	}
	e.start(op)
}

// SubmitNow starts an operation immediately and returns its computed
// completion synchronously (the timeline is fully determined at
// submission in the virtual-clock design; OnDone still fires as an
// event). It reports ok=false without starting anything when no
// in-flight slot is free. Benchmarks use it where a subsequent operation
// must reference this one's timeline — e.g. LAT_WRRD's read ordering
// behind the write's memory visibility.
func (e *Engine) SubmitNow(op Op) (Completion, bool) {
	if e.inFlight >= e.cfg.MaxInFlight {
		return Completion{}, false
	}
	return e.start(op), true
}

func (e *Engine) start(op Op) Completion {
	e.inFlight++
	e.Ops++
	e.Bytes += uint64(op.Size)

	now := e.k.Now()
	c := Completion{Submitted: now}

	direct := op.Direct && e.cfg.SupportsDirect && op.Size <= e.cfg.DirectMaxSize
	var issued sim.Time
	if direct {
		issued = now + e.cfg.DirectIssueLatency
	} else {
		// Descriptor build, then the engine's issue stage.
		issued = e.issue.ScheduleAt(now+e.cfg.IssueLatency, e.cfg.IssueInterval)
	}

	staging := e.cfg.StagingFixed + sim.Time(e.cfg.StagingPSPerByte*int64(op.Size))
	if direct {
		staging = 0
	}

	if op.Write {
		// The engine must pull the payload from device memory into
		// the PCIe-adjacent buffer before injecting it.
		res, err := e.rc.DMAWrite(issued+staging, op.DMA, op.Size)
		if err != nil {
			c.Err = err
			c.Done = issued
			e.finish(c, op)
			return c
		}
		c.Issued = issued + staging
		c.Done = res.LinkDone
		c.MemVisible = res.MemDone
		e.finish(c, op)
		return c
	}

	res, err := e.rc.DMAReadOrdered(issued, op.DMA, op.Size, op.OrderAfter)
	if err != nil {
		c.Err = err
		c.Done = issued
		e.finish(c, op)
		return c
	}
	if e.cto > 0 {
		// Completion timeout: a read whose last completion lands more
		// than cto after issue is abandoned (its late completions are
		// dropped — the link time is already spent) and re-issued
		// after a capped exponential backoff.
		backoff := e.cto
		for retries := 0; res.Complete-issued > e.cto; retries++ {
			e.ctr.Timeouts++
			if retries >= fault.CTORetries {
				e.ctr.Fatal++
				c.Err = fmt.Errorf("device: %s: DMA read of %d bytes aborted after %d completion timeouts", e.cfg.Name, op.Size, retries+1)
				c.Done = issued + e.cto
				e.finish(c, op)
				return c
			}
			e.ctr.NonFatal++
			issued += e.cto + backoff
			if backoff < e.cto<<fault.CTOBackoffCapShift {
				backoff *= 2
			}
			res, err = e.rc.DMAReadOrdered(issued, op.DMA, op.Size, op.OrderAfter)
			if err != nil {
				c.Err = err
				c.Done = issued
				e.finish(c, op)
				return c
			}
		}
	}
	c.Issued = issued
	rx := sim.Time(e.cfg.RxPSPerByte * int64(op.Size))
	c.Done = res.Complete + rx + staging + e.cfg.CompletionOverhead
	e.finish(c, op)
	return c
}

// finish schedules the completion event: the in-flight slot frees, a
// queued op starts, and the caller's OnDone runs. The completion parks
// in a recycled pending slot and the event itself is typed, so nothing
// here allocates in steady state.
func (e *Engine) finish(c Completion, op Op) {
	at := c.Done
	if at < e.k.Now() {
		at = e.k.Now()
	}
	var idx int32
	if n := len(e.freeList); n > 0 {
		idx = e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
	} else {
		idx = int32(len(e.pending))
		e.pending = append(e.pending, pendingDone{})
	}
	e.pending[idx] = pendingDone{c: c, onDone: op.OnDone}
	e.k.AtEvent(at, finishEvent{e}, int64(idx), 0)
}
