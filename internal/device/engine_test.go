package device

import (
	"testing"

	"pciebench/internal/fault"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

func testRC(t *testing.T, k *sim.Kernel) *rc.RootComplex {
	t.Helper()
	ms, err := mem.NewSystem(mem.Config{
		Nodes:       1,
		Cache:       mem.CacheConfig{SizeBytes: 1 << 20, Ways: 8, LineSize: 64, DDIOWays: 2},
		LLCLatency:  50 * sim.Nanosecond,
		DRAMLatency: 120 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rc.New(k, rc.Config{
		Link:        pcie.DefaultGen3x8(),
		PipeLatency: 100 * sim.Nanosecond,
		PipeSlots:   24,
		WireDelay:   120 * sim.Nanosecond,
	}, ms, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testConfig() Config {
	return Config{
		Name:                "test",
		IssueLatency:        10 * sim.Nanosecond,
		IssueInterval:       5 * sim.Nanosecond,
		MaxInFlight:         2,
		RxPSPerByte:         0,
		CompletionOverhead:  5 * sim.Nanosecond,
		TimestampResolution: 4 * sim.Nanosecond,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.MaxInFlight = 0
	if err := bad.Validate(); err == nil {
		t.Error("MaxInFlight 0 accepted")
	}
	bad = good
	bad.IssueLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative issue latency accepted")
	}
}

func TestReadCompletes(t *testing.T) {
	k := sim.New(1)
	e, err := New(k, testRC(t, k), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got Completion
	e.Submit(Op{DMA: 0, Size: 64, OnDone: func(c Completion) { got = c }})
	k.Run()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Done <= got.Issued || got.Issued <= got.Submitted {
		t.Errorf("timeline: %+v", got)
	}
	if e.Ops != 1 || e.Bytes != 64 {
		t.Errorf("stats: ops=%d bytes=%d", e.Ops, e.Bytes)
	}
}

func TestWriteCompletesAtInjection(t *testing.T) {
	k := sim.New(1)
	e, _ := New(k, testRC(t, k), testConfig())
	var got Completion
	e.Submit(Op{Write: true, DMA: 0, Size: 256, OnDone: func(c Completion) { got = c }})
	k.Run()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	// Posted write: device-visible completion strictly before memory
	// visibility.
	if got.Done >= got.MemVisible {
		t.Errorf("posted write: Done %v >= MemVisible %v", got.Done, got.MemVisible)
	}
}

func TestInFlightLimitAndQueue(t *testing.T) {
	k := sim.New(1)
	e, _ := New(k, testRC(t, k), testConfig()) // MaxInFlight=2
	completions := 0
	for i := 0; i < 5; i++ {
		e.Submit(Op{DMA: uint64(i * 64), Size: 64, OnDone: func(Completion) { completions++ }})
	}
	if e.InFlight() != 2 {
		t.Errorf("in flight = %d, want 2", e.InFlight())
	}
	if e.MaxQueued != 3 {
		t.Errorf("queued = %d, want 3", e.MaxQueued)
	}
	k.Run()
	if completions != 5 {
		t.Errorf("completions = %d", completions)
	}
	if e.InFlight() != 0 {
		t.Errorf("in flight after run = %d", e.InFlight())
	}
}

func TestPipelinedFasterThanSerial(t *testing.T) {
	// 8 reads with 4 in flight finish much sooner than with 1.
	run := func(inflight int) sim.Time {
		k := sim.New(1)
		cfg := testConfig()
		cfg.MaxInFlight = inflight
		e, _ := New(k, testRC(t, k), cfg)
		var last sim.Time
		for i := 0; i < 8; i++ {
			e.Submit(Op{DMA: uint64(i * 4096), Size: 64, OnDone: func(c Completion) { last = c.Done }})
		}
		k.Run()
		return last
	}
	serial, pipelined := run(1), run(4)
	if pipelined >= serial {
		t.Errorf("pipelined %v not faster than serial %v", pipelined, serial)
	}
	if float64(serial)/float64(pipelined) < 2 {
		t.Errorf("speedup only %.2fx", float64(serial)/float64(pipelined))
	}
}

func TestDirectPathFaster(t *testing.T) {
	cfg := testConfig()
	cfg.SupportsDirect = true
	cfg.DirectIssueLatency = 2 * sim.Nanosecond
	cfg.DirectMaxSize = 128
	cfg.IssueLatency = 100 * sim.Nanosecond
	cfg.StagingPSPerByte = 100

	run := func(direct bool, size int) sim.Time {
		k := sim.New(1)
		e, _ := New(k, testRC(t, k), cfg)
		var lat sim.Time
		e.Submit(Op{DMA: 0, Size: size, Direct: direct, OnDone: func(c Completion) {
			lat = c.Done - c.Submitted
		}})
		k.Run()
		return lat
	}
	if d, q := run(true, 64), run(false, 64); d >= q {
		t.Errorf("direct %v not faster than queued %v", d, q)
	}
	// Over the size limit the direct flag silently uses the DMA path.
	if d, q := run(true, 512), run(false, 512); d != q {
		t.Errorf("oversize direct %v != queued %v", d, q)
	}
}

func TestLatencyQuantization(t *testing.T) {
	c := Completion{Submitted: 0, Done: 1234567} // 1234.567ns
	if got := c.Latency(19200); got != 1228800 { // 64 ticks of 19.2ns
		t.Errorf("NFP quantization: %d, want 1228800", got)
	}
	if got := c.Latency(1); got != 1234567 {
		t.Errorf("no quantization: %d", got)
	}
	if got := c.Latency(0); got != 1234567 {
		t.Errorf("zero resolution: %d", got)
	}
}

func TestQuantizeHelper(t *testing.T) {
	k := sim.New(1)
	e, _ := New(k, testRC(t, k), testConfig()) // 4ns resolution
	if got := e.Quantize(10500); got != 8000 {
		t.Errorf("Quantize(10.5ns) = %v, want 8ns", got)
	}
}

func TestOrderAfterRespected(t *testing.T) {
	k := sim.New(1)
	e, _ := New(k, testRC(t, k), testConfig())
	barrier := 50 * sim.Microsecond
	var done sim.Time
	e.Submit(Op{DMA: 0, Size: 64, OrderAfter: barrier, OnDone: func(c Completion) { done = c.Done }})
	k.Run()
	if done < barrier {
		t.Errorf("done %v before barrier %v", done, barrier)
	}
}

func TestStagingAddsSizeDependentLatency(t *testing.T) {
	base := testConfig()
	withStaging := base
	withStaging.StagingPSPerByte = 100
	run := func(cfg Config, size int) sim.Time {
		k := sim.New(1)
		e, _ := New(k, testRC(t, k), cfg)
		var lat sim.Time
		e.Submit(Op{DMA: 0, Size: size, OnDone: func(c Completion) { lat = c.Done - c.Submitted }})
		k.Run()
		return lat
	}
	d64 := run(withStaging, 64) - run(base, 64)
	d2048 := run(withStaging, 2048) - run(base, 2048)
	if d64 != 6400 {
		t.Errorf("64B staging delta = %v, want 6.4ns", d64)
	}
	if d2048 != 204800 {
		t.Errorf("2048B staging delta = %v, want 204.8ns", d2048)
	}
}

// TestCompletionTimeoutRetry covers the fault-injected completion
// timeout paths: a generous CTO never fires; a CTO below the read's
// round trip retries with exponential backoff and aborts after
// fault.CTORetries re-issues with a fatal AER-style count.
func TestCompletionTimeoutRetry(t *testing.T) {
	run := func(cto sim.Time) (Completion, *fault.Counters) {
		k := sim.New(1)
		e, err := New(k, testRC(t, k), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		ctr := &fault.Counters{}
		e.SetFaults(fault.Config{CTO: cto}, ctr)
		var got Completion
		e.Submit(Op{DMA: 0, Size: 64, OnDone: func(c Completion) { got = c }})
		k.Run()
		return got, ctr
	}

	// A 1ms CTO never fires on a sub-microsecond read.
	ok, ctr := run(sim.Millisecond)
	if ok.Err != nil {
		t.Fatal(ok.Err)
	}
	if !ctr.Zero() {
		t.Errorf("generous CTO recorded events: %+v", *ctr)
	}

	// A 10ns CTO times out every attempt: CTORetries+1 timeouts, then a
	// fatal abort with a surfaced error.
	bad, ctr := run(10 * sim.Nanosecond)
	if bad.Err == nil {
		t.Fatal("no error after exhausting completion-timeout retries")
	}
	if ctr.Timeouts != fault.CTORetries+1 || ctr.Fatal != 1 || ctr.NonFatal != fault.CTORetries {
		t.Errorf("counters: %+v", *ctr)
	}
}
