// Package workload is the multi-queue NIC traffic engine: it drives
// the discrete-event PCIe simulator with realistic scenarios instead
// of the single-queue, fixed-size, perfectly batched steady state of
// the original throughput harness.
//
// A workload couples four axes the paper's §2/§5 results hinge on:
//
//   - Queues: multiple RX/TX queue pairs sharing one PCIe link, with
//     RSS-style flow-to-queue spreading over a large simulated flow
//     population.
//   - Sizes: per-packet frame sizes drawn from a distribution (fixed,
//     IMIX, uniform, custom histogram).
//   - Arrival: closed-loop saturation, constant rate, or Poisson
//     bursts; open-loop packets queue in software when their queue's
//     DMA window is full, which is where latency tails come from.
//   - Moderation: per-queue doorbell batching, descriptor batch sizes
//     and interrupt moderation rewriting the design's transaction mix.
//
// Each packet pair expands into the per-packet PCIe transaction list
// of a model.NIC design (payload DMAs plus amortized descriptor
// fetches, write-backs, doorbells and interrupts). Its single-queue,
// fixed-size, saturating case is the simulated counterpart of the
// closed-form Figure 1 model. Results report per-queue and aggregate
// packet rate plus p50/p99/p99.9 completion-latency percentiles.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"pciebench/internal/fault"
	"pciebench/internal/model"
	"pciebench/internal/rc"
	"pciebench/internal/runner"
	"pciebench/internal/sim"
	"pciebench/internal/stats"
)

// Path is the PCIe attachment a workload drives. Both *rc.RootComplex
// (the degenerate single-device form) and *rc.Port (one endpoint of a
// multi-device topology) implement it, so the same traffic engine runs
// against a lone adapter or against N endpoints contending for a
// shared switch uplink.
type Path interface {
	DMARead(at sim.Time, dma uint64, sz int) (rc.ReadResult, error)
	DMAWrite(at sim.Time, dma uint64, sz int) (rc.WriteResult, error)
	MMIOWrite(at sim.Time, sz int) sim.Time
	MMIORead(at sim.Time, sz int, devLatency sim.Time) sim.Time
}

// Moderation tunes a design's ring mechanisms per queue. Zero values
// keep the design's own amortization; the knobs rewrite interactions
// by their model.Role, so they apply to any design that labels its
// transactions.
type Moderation struct {
	// DoorbellBatch amortizes RoleDoorbell MMIO writes over this many
	// packets (0 keeps the design's value).
	DoorbellBatch int
	// DescBatch rebatches RoleDescFetch descriptor reads: the fetch
	// happens once per DescBatch packets and its size scales with the
	// batch (0 keeps the design's value).
	DescBatch int
	// WriteBackBatch rebatches RoleWriteBack descriptor writes the same
	// way (0 keeps the design's value).
	WriteBackBatch int
	// IntrEvery moderates RoleInterrupt and RoleHeadRead interactions
	// to once per this many packets; 0 keeps the design's value and a
	// negative value strips them entirely (poll-mode driver).
	IntrEvery int
}

// IsZero reports whether no knob is set.
func (m Moderation) IsZero() bool { return m == Moderation{} }

// Apply returns a copy of design with the moderation knobs applied.
func (m Moderation) Apply(design model.NIC) model.NIC {
	if m.IsZero() {
		return design
	}
	out := design
	rewrite := func(list []model.Interaction) []model.Interaction {
		res := make([]model.Interaction, 0, len(list))
		for _, ia := range list {
			perPacket := float64(ia.Bytes) / ia.PerPackets
			rebatch := func(n int) {
				ia.PerPackets = float64(n)
				ia.Bytes = int(perPacket*float64(n) + 0.5)
				if ia.Bytes < 1 {
					ia.Bytes = 1
				}
			}
			switch ia.Role {
			case model.RoleDoorbell:
				if m.DoorbellBatch > 0 {
					ia.PerPackets = float64(m.DoorbellBatch)
				}
			case model.RoleDescFetch:
				if m.DescBatch > 0 {
					rebatch(m.DescBatch)
				}
			case model.RoleWriteBack:
				if m.WriteBackBatch > 0 {
					rebatch(m.WriteBackBatch)
				}
			case model.RoleInterrupt, model.RoleHeadRead:
				if m.IntrEvery < 0 {
					continue // poll mode: the driver never touches the device
				}
				if m.IntrEvery > 0 {
					ia.PerPackets = float64(m.IntrEvery)
				}
			}
			res = append(res, ia)
		}
		return res
	}
	out.TX = rewrite(design.TX)
	out.RX = rewrite(design.RX)
	return out
}

// The built-in designs, built once. Every config naming one shares its
// interaction lists: nothing writes them after construction
// (Moderation.Apply rewrites a copy).
var (
	simpleNIC = model.SimpleNIC()
	kernelNIC = model.ModernNICKernel()
	dpdkNIC   = model.ModernNICDPDK()
)

// DesignByName returns the named built-in NIC/driver design:
// "simple", "kernel" or "dpdk".
func DesignByName(name string) (model.NIC, error) {
	switch name {
	case "", "kernel":
		return kernelNIC, nil
	case "simple":
		return simpleNIC, nil
	case "dpdk":
		return dpdkNIC, nil
	}
	return model.NIC{}, fmt.Errorf("workload: unknown NIC design %q (want simple, kernel or dpdk)", name)
}

// Defaults applied by Run for zero Config fields.
const (
	DefaultFlows  = 1 << 20
	DefaultWindow = 32
	defaultFrame  = 1500
	// queueStride is the byte distance between queue buffer regions;
	// checkFrame's frame cap keeps every frame inside one.
	queueStride = 64 << 10
	// mmioReadLatency is the device-side register read response time,
	// matching the original throughput harness.
	mmioReadLatency = 40 * sim.Nanosecond
)

// Config shapes one traffic run.
type Config struct {
	// Queues is the RX/TX queue-pair count (default 1).
	Queues int
	// Flows is the simulated flow population. Open-loop packets belong
	// to a uniformly drawn flow whose hash spreads it RSS-style across
	// the queues (default 1M flows).
	Flows int
	// Window is the per-queue in-flight packet-pair limit (default 32).
	Window int
	// Design is the per-packet transaction mix (default
	// model.ModernNICKernel).
	Design model.NIC
	// Moderation rewrites Design's ring mechanisms on every queue.
	Moderation Moderation
	// Sizes draws per-packet frame sizes (default fixed 1500B).
	Sizes SizeDist
	// Arrival generates packet arrivals (default Saturate).
	Arrival Arrival
	// Seed drives the workload's own randomness — flow choice, size
	// draws, arrival gaps — decoupled from the kernel rng so the
	// host-side jitter stream is untouched (0 uses 1).
	Seed int64
	// BufferBytes, when > 0, bounds the DMA footprint: Run fails
	// loudly if the queues' regions do not fit.
	BufferBytes int
}

// WithDefaults returns the config with zero fields resolved to the
// documented defaults — what Run executes. Callers that size or warm
// the DMA region (see Footprint) resolve the config first so they and
// the engine agree on the queue count and stride.
func (c Config) WithDefaults() Config {
	if c.Queues <= 0 {
		c.Queues = 1
	}
	if c.Flows <= 0 {
		c.Flows = DefaultFlows
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Design.Name == "" && c.Design.TX == nil && c.Design.RX == nil {
		c.Design = kernelNIC
	}
	if c.Sizes == nil {
		c.Sizes = FixedSize(defaultFrame)
	}
	if c.Arrival == nil {
		c.Arrival = Saturate()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Footprint returns the DMA byte span the resolved config touches —
// queue count times stride — which callers warm as the rings' hot
// region and validate against the host buffer.
func (c Config) Footprint() int {
	return c.WithDefaults().Queues * queueStride
}

// Validate checks the resolved config.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if err := c.Design.Validate(); err != nil {
		return err
	}
	if err := checkFrame(c.Sizes.Max()); err != nil {
		return err
	}
	if c.BufferBytes > 0 {
		need := c.Queues * queueStride
		if need > c.BufferBytes {
			return fmt.Errorf("workload: %d queues x %dB stride = %dB exceeds the %dB host buffer",
				c.Queues, queueStride, need, c.BufferBytes)
		}
	}
	return nil
}

// QueueStats is one queue's share of a run.
type QueueStats struct {
	// Queue is the queue-pair index.
	Queue int `json:"queue"`
	// Pairs is the number of packet pairs the queue completed.
	Pairs int `json:"pairs"`
	// PPS is the queue's full-duplex packet-pair rate.
	PPS float64 `json:"pps"`
	// Gbps is the queue's per-direction payload throughput.
	Gbps float64 `json:"gbps"`
	// Latency summarizes the queue's completion latency in ns
	// (arrival to last transaction of the pair).
	Latency stats.Summary `json:"latency_ns"`
}

// Result is the outcome of a traffic run.
type Result struct {
	// Pairs is the total completed packet-pair count.
	Pairs int `json:"pairs"`
	// Elapsed is the simulated time from start to the last completion.
	Elapsed sim.Time `json:"elapsed_ps"`
	// PPS is the aggregate full-duplex packet-pair rate.
	PPS float64 `json:"pps"`
	// GbpsPerDirection is the aggregate per-direction payload
	// throughput (the Figure 1 metric generalized to mixed sizes).
	GbpsPerDirection float64 `json:"gbps"`
	// OfferedPPS echoes the open-loop offered load (0 when saturating).
	OfferedPPS float64 `json:"offered_pps,omitempty"`
	// Latency summarizes completion latency across all queues in ns;
	// Median/P99/P999 are the p50/p99/p99.9 the reports quote.
	Latency stats.Summary `json:"latency_ns"`
	// Queues holds the per-queue breakdown.
	Queues []QueueStats `json:"queues"`
}

// txn is one PCIe transaction of a packet pair.
type txn struct {
	kind  int
	bytes int
	every int // amortization: issue when pktIndex%every == 0
}

// queueState is the engine's per-queue bookkeeping.
type queueState struct {
	addr     uint64 // base DMA address of the queue's buffer region
	mix      []txn  // interaction mix beyond the payload transfers
	count    int    // packets issued (drives amortization)
	inFlight int
	backlog  []pending // open-loop software queue, FIFO from bhead
	bhead    int       // index of the oldest backlog entry
	pairs    int       // completed
	bytes    int64     // completed payload bytes
	lat      []float64 // completion latencies in ns (pooled), sorted by collect

	latPtr     *[]float64 // pool boxes, round-tripped back on Put
	backlogPtr *[]pending
}

// pushBacklog appends an open-loop packet, compacting the consumed
// prefix first so the (pooled) backing array is reused instead of
// growing without bound.
func (qs *queueState) pushBacklog(p pending) {
	if qs.bhead > 0 && qs.bhead*2 >= len(qs.backlog) {
		n := copy(qs.backlog, qs.backlog[qs.bhead:])
		qs.backlog = qs.backlog[:n]
		qs.bhead = 0
	}
	qs.backlog = append(qs.backlog, p)
}

// popBacklog removes and returns the oldest queued packet.
func (qs *queueState) popBacklog() pending {
	p := qs.backlog[qs.bhead]
	qs.bhead++
	if qs.bhead == len(qs.backlog) {
		qs.backlog = qs.backlog[:0]
		qs.bhead = 0
	}
	return p
}

// backlogLen returns the number of queued packets.
func (qs *queueState) backlogLen() int { return len(qs.backlog) - qs.bhead }

// pending is an arrived-but-not-issued open-loop packet.
type pending struct {
	size    int
	arrival sim.Time
}

// Pools shared across runs: completion-latency sample buffers,
// open-loop backlogs and random generators are returned after each
// Run, so repeated runs (sweep grids, benchmarks) stop reallocating
// them.
var (
	latBufPool  = sync.Pool{New: func() any { s := make([]float64, 0, 1024); return &s }}
	backlogPool = sync.Pool{New: func() any { s := make([]pending, 0, 64); return &s }}
	rngPool     = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}
)

// getRNG borrows a generator seeded with seed: its stream is that of
// rand.New(rand.NewSource(seed)), without allocating the ~4.9 KB of
// source state again.
func getRNG(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// getLatBuf borrows an empty latency buffer; putLatBuf returns it with
// its (possibly grown) storage. The *[]float64 box from Get round-trips
// back to Put so the pool itself allocates nothing per cycle.
func getLatBuf() *[]float64 {
	p := latBufPool.Get().(*[]float64)
	*p = (*p)[:0]
	return p
}

func putLatBuf(p *[]float64, s []float64) {
	*p = s[:0]
	latBufPool.Put(p)
}

// compileMix flattens a design's TX+RX interactions into the engine's
// transaction list with integer amortization, preserving the order the
// original throughput harness used.
func compileMix(design model.NIC) []txn {
	var mix []txn
	for _, set := range [][]model.Interaction{design.TX, design.RX} {
		for _, ia := range set {
			every := int(ia.PerPackets)
			if every < 1 {
				every = 1
			}
			mix = append(mix, txn{kind: ia.Kind, bytes: ia.Bytes, every: every})
		}
	}
	return mix
}

// runState is the engine state of one Run. Its per-packet control flow
// runs entirely through the kernel's typed events: completion and
// arrival bookkeeping are methods invoked via pointer-shaped handlers
// with the per-event data packed into the two event arguments, so the
// steady-state loop schedules nothing that allocates.
type runState struct {
	k       *sim.Kernel
	complex Path
	cfg     Config
	rng     *rand.Rand
	queues  []queueState
	pairs   int
	issued  int
	done    int
	arrived int
	endAt   sim.Time
	err     error
	closed  bool
}

// pairDoneEvent fires when the last transaction of a packet pair
// completes; a packs the queue index and frame size, b the arrival
// time.
type pairDoneEvent struct{ s *runState }

// Handle records the completed pair and refills its queue.
func (e pairDoneEvent) Handle(k *sim.Kernel, a, b int64) {
	s := e.s
	q, size := int(a>>32), int(a&0xFFFFFFFF)
	qs := &s.queues[q]
	qs.inFlight--
	qs.pairs++
	qs.bytes += int64(size)
	qs.lat = append(qs.lat, (k.Now() - sim.Time(b)).Nanoseconds())
	s.done++
	if s.done == s.pairs {
		s.endAt = k.Now()
	}
	s.pump(q)
}

// startEvent kicks the run off at the kernel's current time.
type startEvent struct{ s *runState }

// Handle primes every queue (closed loop) or draws the first arrival
// gap (open loop).
func (e startEvent) Handle(*sim.Kernel, int64, int64) {
	s := e.s
	if s.closed {
		for q := range s.queues {
			s.pump(q)
		}
		return
	}
	s.scheduleArrival()
}

// arrivalEvent fires one open-loop arrival batch; a is the batch size.
type arrivalEvent struct{ s *runState }

// Handle spreads the batch over the queues by flow hash and draws the
// next arrival.
func (e arrivalEvent) Handle(k *sim.Kernel, a, _ int64) {
	s := e.s
	for n := int64(0); n < a && s.arrived < s.pairs; n++ {
		s.arrived++
		flow := s.rng.Intn(s.cfg.Flows)
		q := queueOf(uint64(flow), s.cfg.Queues)
		size := s.cfg.Sizes.Sample(s.rng)
		qs := &s.queues[q]
		if qs.inFlight < s.cfg.Window {
			s.issueOne(q, size, k.Now())
		} else {
			qs.pushBacklog(pending{size: size, arrival: k.Now()})
		}
	}
	s.scheduleArrival()
}

// scheduleArrival draws the next open-loop gap and batch and schedules
// the batch event.
func (s *runState) scheduleArrival() {
	if s.arrived >= s.pairs || s.err != nil {
		return
	}
	gap, batch := s.cfg.Arrival.NextGap(s.rng)
	s.k.AfterEvent(gap, arrivalEvent{s}, int64(batch), 0)
}

// pump refills queue q: closed-loop runs draw fresh frames up to the
// window; open-loop runs drain the software backlog.
func (s *runState) pump(q int) {
	qs := &s.queues[q]
	if s.closed {
		for qs.inFlight < s.cfg.Window && s.issued < s.pairs && s.err == nil {
			s.issueOne(q, s.cfg.Sizes.Sample(s.rng), s.k.Now())
		}
		return
	}
	for qs.inFlight < s.cfg.Window && qs.backlogLen() > 0 && s.err == nil {
		p := qs.popBacklog()
		s.issueOne(q, p.size, p.arrival)
	}
}

// issueTxn runs one PCIe transaction of a pair at the current
// simulated time and returns the updated pair-completion horizon.
func (s *runState) issueTxn(qs *queueState, kind, bytes int, pairEnd sim.Time) sim.Time {
	if s.err != nil {
		return pairEnd
	}
	at := s.k.Now()
	switch kind {
	case model.DMARead:
		res, err := s.complex.DMARead(at, qs.addr, bytes)
		if err != nil {
			s.err = err
			return pairEnd
		}
		if res.Complete > pairEnd {
			pairEnd = res.Complete
		}
	case model.DMAWrite:
		res, err := s.complex.DMAWrite(at, qs.addr, bytes)
		if err != nil {
			s.err = err
			return pairEnd
		}
		if res.LinkDone > pairEnd {
			pairEnd = res.LinkDone
		}
	case model.MMIOWrite:
		if t := s.complex.MMIOWrite(at, bytes); t > pairEnd {
			pairEnd = t
		}
	case model.MMIORead:
		if t := s.complex.MMIORead(at, bytes, mmioReadLatency); t > pairEnd {
			pairEnd = t
		}
	}
	return pairEnd
}

// issueOne expands one packet pair into its transaction list at the
// current simulated time and schedules the completion bookkeeping.
func (s *runState) issueOne(q, size int, arrival sim.Time) {
	qs := &s.queues[q]
	i := qs.count
	qs.count++
	qs.inFlight++
	s.issued++
	// Payload first — TX is a DMA read, RX a DMA write — then the
	// design's amortized interactions.
	var pairEnd sim.Time
	pairEnd = s.issueTxn(qs, model.DMARead, size, pairEnd)
	pairEnd = s.issueTxn(qs, model.DMAWrite, size, pairEnd)
	for _, tx := range qs.mix {
		if i%tx.every == 0 {
			pairEnd = s.issueTxn(qs, tx.kind, tx.bytes, pairEnd)
		}
	}
	if s.err != nil {
		return
	}
	s.k.AtEvent(pairEnd, pairDoneEvent{s}, int64(q)<<32|int64(size), int64(arrival))
}

// newRunState builds one engine state over path with the given
// workload randomness seed. cfg must already be resolved and valid.
func newRunState(k *sim.Kernel, path Path, bufDMA uint64, cfg Config, pairs int, seed int64) *runState {
	s := &runState{
		k:       k,
		complex: path,
		cfg:     cfg,
		rng:     getRNG(seed),
		queues:  make([]queueState, cfg.Queues),
		pairs:   pairs,
		closed:  cfg.Arrival.Saturating(),
	}
	// Every queue reads the one moderated mix; none writes it.
	mix := compileMix(cfg.Moderation.Apply(cfg.Design))
	for q := range s.queues {
		lp := getLatBuf()
		s.queues[q] = queueState{
			addr:   bufDMA + uint64(q)*queueStride,
			mix:    mix,
			lat:    *lp,
			latPtr: lp,
		}
		if !s.closed {
			bp := backlogPool.Get().(*[]pending)
			s.queues[q].backlog = (*bp)[:0]
			s.queues[q].backlogPtr = bp
		}
	}
	return s
}

// release returns the state's pooled buffers and generator.
func (s *runState) release() {
	rngPool.Put(s.rng)
	for q := range s.queues {
		qs := &s.queues[q]
		if qs.latPtr != nil {
			putLatBuf(qs.latPtr, qs.lat)
		}
		if qs.backlogPtr != nil {
			*qs.backlogPtr = qs.backlog[:0]
			backlogPool.Put(qs.backlogPtr)
		}
	}
}

// finished validates that the run completed all its pairs.
func (s *runState) finished() error {
	if s.err != nil {
		return s.err
	}
	if s.endAt == 0 || s.done != s.pairs {
		return fmt.Errorf("workload: run did not complete (%d/%d pairs)", s.done, s.pairs)
	}
	return nil
}

// collect assembles the state's Result for a run that started at
// start. Rates use the state's own completion horizon. It sorts each
// queue's latencies once, in place: the queue summaries, the endpoint
// summary (a lone queue's, or a walk over every queue's run) and a
// caller's aggregate over latencyRuns all read those sorted runs.
func (s *runState) collect(start sim.Time) Result {
	elapsed := s.endAt - start
	secs := elapsed.Seconds()
	res := Result{
		Pairs:      s.pairs,
		Elapsed:    elapsed,
		PPS:        float64(s.pairs) / secs,
		OfferedPPS: s.cfg.Arrival.OfferedPPS(),
		Queues:     make([]QueueStats, len(s.queues)),
	}
	var totalBytes int64
	for q := range s.queues {
		qs := &s.queues[q]
		totalBytes += qs.bytes
		st := QueueStats{
			Queue: q,
			Pairs: qs.pairs,
			PPS:   float64(qs.pairs) / secs,
			Gbps:  float64(qs.bytes) * 8 / secs / 1e9,
		}
		sort.Float64s(qs.lat)
		st.Latency, _ = stats.SummarizeRuns(qs.lat) // zero for a queue that completed nothing
		res.Queues[q] = st
	}
	res.GbpsPerDirection = float64(totalBytes) * 8 / secs / 1e9
	if len(s.queues) == 1 {
		res.Latency = res.Queues[0].Latency
	} else {
		res.Latency, _ = stats.SummarizeRuns(s.latencyRuns(nil)...)
	}
	return res
}

// latencyRuns appends every queue's latencies, sorted by collect, to
// runs.
func (s *runState) latencyRuns(runs [][]stats.Sample) [][]stats.Sample {
	for q := range s.queues {
		runs = append(runs, s.queues[q].lat)
	}
	return runs
}

// Run drives complex with cfg's traffic until pairs packet pairs have
// completed, with each queue's buffer region starting at bufDMA +
// queue*64KB, and returns the per-queue and aggregate rates and
// latency percentiles. The simulation starts at the kernel's current
// time, so a fresh instance and a shared one measure the same way.
func Run(k *sim.Kernel, complex *rc.RootComplex, bufDMA uint64, cfg Config, pairs int) (*Result, error) {
	if pairs <= 0 {
		return nil, fmt.Errorf("workload: pairs %d, want > 0", pairs)
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	s := newRunState(k, complex, bufDMA, cfg, pairs, cfg.Seed)
	defer s.release()

	start := k.Now()
	k.AfterEvent(0, startEvent{s}, 0, 0)
	k.Run()
	if err := s.finished(); err != nil {
		return nil, err
	}
	res := s.collect(start)
	return &res, nil
}

// EndpointResult is one endpoint's share of a multi-endpoint run.
type EndpointResult struct {
	// Endpoint indexes the path the traffic ran on.
	Endpoint int `json:"endpoint"`
	// Faults is the endpoint's AER-style fault accounting; omitted
	// when fault injection is disabled (see internal/fault).
	Faults *fault.Counters `json:"faults,omitempty"`
	Result
}

// MultiResult is the outcome of a multi-endpoint traffic run: the
// aggregate over the whole fabric plus the per-endpoint breakdown.
type MultiResult struct {
	// Pairs is the total completed packet-pair count across endpoints.
	Pairs int `json:"pairs"`
	// Elapsed spans start to the last endpoint's final completion.
	Elapsed sim.Time `json:"elapsed_ps"`
	// PPS and GbpsPerDirection aggregate all endpoints over Elapsed.
	PPS              float64 `json:"pps"`
	GbpsPerDirection float64 `json:"gbps"`
	// Latency summarizes completion latency across every endpoint.
	Latency stats.Summary `json:"latency_ns"`
	// Faults aggregates every endpoint's fault accounting; omitted
	// when fault injection is disabled.
	Faults *fault.Counters `json:"faults,omitempty"`
	// Endpoints holds the per-endpoint breakdown.
	Endpoints []EndpointResult `json:"endpoints"`
}

// RunMulti drives the same workload on every path concurrently — one
// independent engine state per endpoint, all sharing the kernel, so
// their traffic contends for whatever the topology shares (a switch
// uplink, the root-complex pipeline, the LLC). bases[i] is endpoint
// i's buffer base address; each endpoint's workload randomness is
// decorrelated from cfg.Seed by its index. Every endpoint completes
// pairsEach packet pairs.
func RunMulti(k *sim.Kernel, paths []Path, bases []uint64, cfg Config, pairsEach int) (*MultiResult, error) {
	kernels := make([]*sim.Kernel, len(paths))
	for i := range kernels {
		kernels[i] = k
	}
	if len(paths) == 0 {
		kernels = []*sim.Kernel{k} // let RunMultiKernels report "no paths"
	}
	return RunMultiKernels(kernels, paths, bases, cfg, pairsEach, 1)
}

// RunMultiKernels is RunMulti for a partitioned fabric: kernels[i] is
// the event kernel endpoint i's simulation island runs on. The kernels
// are deduplicated (in first-appearance order); a single kernel runs
// exactly like RunMulti, several run to completion independently on up
// to workers goroutines (sim.RunAll). Islands share no state and
// exchange no events, and state construction, start-event scheduling
// and result collection all happen in global endpoint order, so results
// are byte-identical to the serial single-kernel run at every worker
// count.
//
// Every kernel first advances to the latest clock among them: a serial
// run resumes every endpoint at the one global clock, and absolute-time
// state (link-retrain schedules, resource horizons) must see the same
// start on a reused partitioned fabric.
func RunMultiKernels(kernels []*sim.Kernel, paths []Path, bases []uint64, cfg Config, pairsEach, workers int) (*MultiResult, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("workload: no kernels")
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("workload: no paths")
	}
	if len(kernels) != len(paths) {
		return nil, fmt.Errorf("workload: %d kernels but %d paths", len(kernels), len(paths))
	}
	if len(paths) != len(bases) {
		return nil, fmt.Errorf("workload: %d paths but %d buffer bases", len(paths), len(bases))
	}
	if pairsEach <= 0 {
		return nil, fmt.Errorf("workload: pairs %d, want > 0", pairsEach)
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	var domains []*sim.Kernel
	var now sim.Time
	for _, k := range kernels {
		if !slices.Contains(domains, k) {
			domains = append(domains, k)
			now = max(now, k.Now())
		}
	}
	for _, k := range domains {
		k.RunUntil(now)
	}

	states := make([]*runState, len(paths))
	for i := range paths {
		states[i] = newRunState(kernels[i], paths[i], bases[i], cfg, pairsEach, runner.Seed(cfg.Seed, i))
		defer states[i].release()
		kernels[i].AfterEvent(0, startEvent{states[i]}, 0, 0)
	}
	sim.RunAll(domains, workers)

	res := &MultiResult{Endpoints: make([]EndpointResult, len(states))}
	runs := make([][]stats.Sample, 0, len(states)*cfg.Queues)
	var totalBytes int64
	for i, s := range states {
		if err := s.finished(); err != nil {
			return nil, fmt.Errorf("workload: endpoint %d: %w", i, err)
		}
		if d := s.endAt - now; d > res.Elapsed {
			res.Elapsed = d
		}
		res.Pairs += s.pairs
		for q := range s.queues {
			totalBytes += s.queues[q].bytes
		}
		res.Endpoints[i] = EndpointResult{Endpoint: i, Result: s.collect(now)}
		runs = s.latencyRuns(runs)
	}
	secs := res.Elapsed.Seconds()
	res.PPS = float64(res.Pairs) / secs
	res.GbpsPerDirection = float64(totalBytes) * 8 / secs / 1e9
	res.Latency, _ = stats.SummarizeRuns(runs...)
	return res, nil
}

// queueOf spreads a flow over the queues RSS-style with a splitmix64
// hash, so flow-to-queue assignment is stable across runs and roughly
// uniform over any flow population.
func queueOf(flow uint64, queues int) int {
	z := flow + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(queues))
}
