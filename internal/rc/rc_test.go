package rc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/tlp"
	"pciebench/internal/trace"
)

func testMemSystem(t *testing.T) *mem.System {
	t.Helper()
	ms, err := mem.NewSystem(mem.Config{
		Nodes:         2,
		Cache:         mem.CacheConfig{SizeBytes: 1 << 20, Ways: 8, LineSize: 64, DDIOWays: 2},
		LLCLatency:    50 * sim.Nanosecond,
		DRAMLatency:   120 * sim.Nanosecond,
		RemoteLatency: 100 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func testConfig() Config {
	return Config{
		Link:        pcie.DefaultGen3x8(),
		PipeLatency: 100 * sim.Nanosecond,
		PipeSlots:   24,
		WireDelay:   120 * sim.Nanosecond,
	}
}

func newRC(t *testing.T) (*sim.Kernel, *RootComplex, *mem.System) {
	t.Helper()
	k := sim.New(7)
	ms := testMemSystem(t)
	r, err := New(k, testConfig(), ms, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k, r, ms
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PipeLatency = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero pipe latency accepted")
	}
	bad = good
	bad.PipeSlots = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero slots accepted")
	}
	bad = good
	bad.WireDelay = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative wire delay accepted")
	}
	bad = good
	bad.Link.Lanes = 3
	if err := bad.Validate(); err == nil {
		t.Error("bad link accepted")
	}
}

func TestSingleReadTimeline(t *testing.T) {
	_, r, _ := newRC(t)
	cfg := testConfig()
	link := cfg.Link
	res, err := r.DMARead(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Cold cache: MRd serialization + wire + pipe + DRAM + CplD
	// serialization + wire.
	want := sim.Time(link.BytesTime(24)) + cfg.WireDelay + cfg.PipeLatency +
		120*sim.Nanosecond + sim.Time(link.BytesTime(20+64)) + cfg.WireDelay
	if res.Complete != want {
		t.Errorf("complete = %v, want %v", res.Complete, want)
	}
	if res.FirstData != res.Complete {
		t.Errorf("single completion: first %v != complete %v", res.FirstData, res.Complete)
	}
}

func TestWarmReadFaster(t *testing.T) {
	_, r, ms := newRC(t)
	cold, _ := r.DMARead(0, 0, 64)
	ms.WarmHost(0, []mem.Extent{{Addr: 0, Size: 64}})
	warm, _ := r.DMARead(cold.Complete, 0, 64)
	coldLat := cold.Complete - 0
	warmLat := warm.Complete - cold.Complete
	if coldLat-warmLat != 70*sim.Nanosecond {
		t.Errorf("warm benefit = %v, want 70ns", coldLat-warmLat)
	}
}

func TestMultiChunkReadAccounting(t *testing.T) {
	_, r, _ := newRC(t)
	// 1024B read: 2 MRd (MRRS 512), 4 CplD (MPS 256).
	if _, err := r.DMARead(0, 0, 1024); err != nil {
		t.Fatal(err)
	}
	if r.UpTLPs != 2 || r.UpBytes != 48 {
		t.Errorf("up: %d TLPs %dB, want 2/48", r.UpTLPs, r.UpBytes)
	}
	if r.DownTLPs != 4 || r.DownBytes != 4*20+1024 {
		t.Errorf("down: %d TLPs %dB, want 4/%d", r.DownTLPs, r.DownBytes, 4*20+1024)
	}
	if r.ReadOps != 1 {
		t.Errorf("ReadOps = %d", r.ReadOps)
	}
}

func TestWriteAccountingAndTimeline(t *testing.T) {
	_, r, _ := newRC(t)
	res, err := r.DMAWrite(0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	// 512B write: 2 MWr TLPs of 24+256 each.
	if r.UpTLPs != 2 || r.UpBytes != 2*(24+256) {
		t.Errorf("up: %d TLPs %dB", r.UpTLPs, r.UpBytes)
	}
	if res.LinkDone <= 0 || res.MemDone <= res.LinkDone {
		t.Errorf("timeline: link %v mem %v", res.LinkDone, res.MemDone)
	}
	if r.WriteOps != 1 {
		t.Errorf("WriteOps = %d", r.WriteOps)
	}
}

func TestOrderedReadWaits(t *testing.T) {
	_, r, _ := newRC(t)
	barrier := 10 * sim.Microsecond
	res, err := r.DMAReadOrdered(0, 0, 64, barrier)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete < barrier {
		t.Errorf("ordered read completed at %v, before barrier %v", res.Complete, barrier)
	}
	// Without the barrier it is much faster.
	res2, _ := r.DMARead(res.Complete, 0, 64)
	if lat := res2.Complete - res.Complete; lat > 2*sim.Microsecond {
		t.Errorf("unordered read latency %v", lat)
	}
}

func TestReadErrors(t *testing.T) {
	_, r, _ := newRC(t)
	if _, err := r.DMARead(0, 0, 0); err == nil {
		t.Error("size 0 read accepted")
	}
	if _, err := r.DMAWrite(0, 0, -1); err == nil {
		t.Error("negative write accepted")
	}
}

func TestIOMMUFaultPropagates(t *testing.T) {
	k := sim.New(7)
	ms := testMemSystem(t)
	mmu := iommu.New(k, iommu.DefaultConfig())
	r, err := New(k, testConfig(), ms, mmu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DMARead(0, 0xdead000, 64); err == nil {
		t.Error("unmapped read did not fault")
	}
	if _, err := r.DMAWrite(0, 0xdead000, 64); err == nil {
		t.Error("unmapped write did not fault")
	}
}

func TestIOMMUMissAddsWalkLatency(t *testing.T) {
	k := sim.New(7)
	ms := testMemSystem(t)
	mmu := iommu.New(k, iommu.DefaultConfig())
	if err := mmu.Map(0x100000, 0x100000, 1<<20, iommu.Page4K); err != nil {
		t.Fatal(err)
	}
	r, _ := New(k, testConfig(), ms, mmu, nil)
	miss, err := r.DMARead(0, 0x100000, 64)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := r.DMARead(miss.Complete, 0x100000, 64)
	if err != nil {
		t.Fatal(err)
	}
	missLat := miss.Complete
	hitLat := hit.Complete - miss.Complete
	if delta := missLat - hitLat; delta != 330*sim.Nanosecond {
		t.Errorf("IO-TLB miss penalty = %v, want 330ns", delta)
	}
}

func TestJitterApplied(t *testing.T) {
	k := sim.New(7)
	ms := testMemSystem(t)
	cfg := testConfig()
	cfg.Jitter = ConstantJitter(500 * sim.Nanosecond)
	r, _ := New(k, cfg, ms, nil, nil)
	res, _ := r.DMARead(0, 0, 64)

	k2 := sim.New(7)
	ms2 := testMemSystem(t)
	r2, _ := New(k2, testConfig(), ms2, nil, nil)
	res2, _ := r2.DMARead(0, 0, 64)

	if res.Complete-res2.Complete != 500*sim.Nanosecond {
		t.Errorf("jitter delta = %v, want 500ns", res.Complete-res2.Complete)
	}
}

func TestMMIOTimings(t *testing.T) {
	_, r, _ := newRC(t)
	cfg := testConfig()
	// A 4B doorbell write arrives after serialization + wire delay.
	at := r.MMIOWrite(0, 4)
	want := sim.Time(cfg.Link.BytesTime(24+4)) + cfg.WireDelay
	if at != want {
		t.Errorf("MMIOWrite arrival = %v, want %v", at, want)
	}
	// A register read takes a full round trip plus device latency.
	devLat := 40 * sim.Nanosecond
	done := r.MMIORead(at, 4, devLat)
	if done < at+2*cfg.WireDelay+devLat {
		t.Errorf("MMIORead done = %v, too fast", done)
	}
}

func TestPipeCapsTransactionRate(t *testing.T) {
	_, r, _ := newRC(t)
	cfg := testConfig()
	// Saturate with small writes; the pipe allows PipeSlots per
	// PipeLatency, i.e. one TLP per PipeLatency/PipeSlots on average,
	// but the 64B write's link serialization (~12ns) is the binding
	// constraint here. Use 8B writes instead (wire 32B ~ 4.4ns < 100/24
	// = 4.17ns pipe interval — close; use 1000 writes and check span).
	n := 1000
	var last WriteResult
	for i := 0; i < n; i++ {
		res, err := r.DMAWrite(0, uint64(i*64), 8)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	// Rate cap = min(link, pipe). Pipe interval = 100ns/24 = 4.17ns;
	// link serialization of a 32B TLP = ~4.42ns -> link binds.
	minSpan := sim.Time(int64(n) * cfg.Link.BytesTime(32))
	if last.MemDone < minSpan {
		t.Errorf("1000 writes done at %v, faster than link cap %v", last.MemDone, minSpan)
	}
}

// Property: rc's chunk arithmetic matches the protocol-tier splitters.
// walkChunks drives a chunk-size function over [addr, addr+sz) the way
// the port loops do and returns the chunk sizes.
func walkChunks(addr uint64, sz int, next func(pos uint64, rem int) int) []int {
	var out []int
	for pos, rem := addr, sz; rem > 0; {
		n := next(pos, rem)
		out = append(out, n)
		pos += uint64(n)
		rem -= n
	}
	return out
}

// TestChunkingMatchesTLPPackage pins the chunk arithmetic the port
// loops run to the reference splitters in tlp, at byte granularity:
// MRRS-bounded read requests (reqChunk) against SplitRead, each
// request's completions (cplChunk) against SplitCompletion, and
// MPS-bounded writes (reqChunk) against SplitWrite.
func TestChunkingMatchesTLPPackage(t *testing.T) {
	f := func(a uint32, s uint16, sel uint8) bool {
		addr := uint64(a % (1 << 20))
		sz := int(s%4096) + 1
		mrrs := 256 << (sel % 3)    // 256..1024
		mps := 128 << (sel / 3 % 3) // 128..512
		rcb := 64 << (sel / 9 % 2)  // 64, 128

		// Read requests, and the completions answering each one.
		reqs, err := tlp.SplitRead(0, addr, sz, mrrs, true)
		if err != nil {
			return false
		}
		got := walkChunks(addr, sz, func(pos uint64, rem int) int {
			return reqChunk(pos, rem, uint64(mrrs))
		})
		if len(got) != len(reqs) {
			return false
		}
		pos := addr
		for i := range reqs {
			cpls, err := tlp.SplitCompletion(&reqs[i], 0, nil, mps, rcb)
			if err != nil {
				return false
			}
			cgot := walkChunks(pos, got[i], func(pos uint64, rem int) int {
				return cplChunk(pos, rem, mps, uint64(rcb))
			})
			if len(cgot) != len(cpls) {
				return false
			}
			for j, c := range cpls {
				if len(c.Data) != cgot[j] {
					return false
				}
			}
			// The request's byte count is what its completions carry.
			if cpls[0].ByteCount != got[i] {
				return false
			}
			pos += uint64(got[i])
		}

		// Posted writes.
		wrs, err := tlp.SplitWrite(0, addr, nil, sz, mps, true)
		if err != nil {
			return false
		}
		wgot := walkChunks(addr, sz, func(pos uint64, rem int) int {
			return reqChunk(pos, rem, uint64(mps))
		})
		if len(wgot) != len(wrs) {
			return false
		}
		for i, w := range wrs {
			if len(w.Data) != wgot[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantileJitter(t *testing.T) {
	if _, err := NewQuantileJitter(nil); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := NewQuantileJitter([]QuantilePoint{{0.5, 0}, {0.2, 10}}); err == nil {
		t.Error("non-increasing P accepted")
	}
	if _, err := NewQuantileJitter([]QuantilePoint{{-0.1, 0}, {1, 10}}); err == nil {
		t.Error("P<0 accepted")
	}
	if _, err := NewQuantileJitter([]QuantilePoint{{0, 0}, {1, -5}}); err == nil {
		t.Error("negative delay accepted")
	}

	j, err := NewQuantileJitter([]QuantilePoint{
		{0.0, 0},
		{0.5, 0},
		{0.9, 1000 * sim.Nanosecond},
		{1.0, 10000 * sim.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := 100000
	zero, mid, high := 0, 0, 0
	for i := 0; i < n; i++ {
		d := j.Sample(rng)
		switch {
		case d == 0:
			zero++
		case d <= 1000*sim.Nanosecond:
			mid++
		default:
			high++
		}
	}
	if f := float64(zero) / float64(n); f < 0.45 || f > 0.55 {
		t.Errorf("P(0) = %.3f, want ~0.5", f)
	}
	if f := float64(high) / float64(n); f < 0.07 || f > 0.13 {
		t.Errorf("P(>1us) = %.3f, want ~0.1", f)
	}
}

// TestTracedTLPsByteIdentical runs a traced transaction mix and checks
// every captured TLP record byte-for-byte against a reference encoding
// built with freshly allocated buffers — the construction the tracer
// used before the scratch and payload buffers were pooled. It guards
// the buffer reuse in traceMemReq/traceCpl: any cross-TLP contamination
// of the shared scratch or payload storage shows up as a diff here.
func TestTracedTLPsByteIdentical(t *testing.T) {
	run := func(tr trace.Tracer) *RootComplex {
		k := sim.New(7)
		ms := testMemSystem(t)
		r, err := New(k, testConfig(), ms, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.SetTracer(tr)
		// A mix that exercises every traced path and TLP shape: reads
		// and writes, MRRS/MPS-split transfers, RCB-misaligned sizes and
		// unaligned addresses (partial byte enables).
		at := sim.Time(0)
		for i, op := range []struct {
			write bool
			dma   uint64
			sz    int
		}{
			{false, 0x1000, 64},
			{true, 0x1040, 64},
			{false, 0x2000, 1500}, // MRRS split, multiple completions
			{true, 0x3000, 1500},  // MPS split
			{false, 0x4007, 9},    // unaligned, partial BEs
			{true, 0x5003, 121},   // unaligned write
			{false, 0x60c0, 300},  // RCB-misaligned completion chain
		} {
			if op.write {
				if _, err := r.DMAWrite(at, op.dma, op.sz); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			} else {
				if _, err := r.DMARead(at, op.dma, op.sz); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			at += 2 * sim.Microsecond
		}
		return r
	}

	var buf trace.Buffer
	run(&buf)
	if len(buf.Records) == 0 {
		t.Fatal("no TLPs traced")
	}

	// Reference pass: re-encode every record's TLP from its decoded
	// form with a fresh buffer per TLP and require identical bytes.
	for i, rec := range buf.Records {
		p, err := rec.Decode()
		if err != nil {
			t.Fatalf("record %d undecodable: %v", i, err)
		}
		var fresh []byte
		var payload []byte
		switch v := p.(type) {
		case *tlp.MemRead:
			fresh, err = v.AppendTo(nil)
		case *tlp.MemWrite:
			fresh, err = v.AppendTo(nil)
			payload = v.Data
		case *tlp.Completion:
			fresh, err = v.AppendTo(nil)
			payload = v.Data
		default:
			t.Fatalf("record %d: unexpected TLP %T", i, p)
		}
		if err != nil {
			t.Fatalf("record %d re-encode: %v", i, err)
		}
		if !bytes.Equal(rec.TLP, fresh) {
			t.Fatalf("record %d: traced bytes differ from fresh encoding\n traced: %x\n  fresh: %x", i, rec.TLP, fresh)
		}
		// Traced payloads are always zero-filled; a stray write into
		// the pooled payload buffer would surface here.
		for j, bb := range payload {
			if bb != 0 {
				t.Fatalf("record %d: payload byte %d is %#x, want 0 (pooled buffer contaminated)", i, j, bb)
			}
		}
	}

	// Determinism across runs: a second traced run must produce the
	// exact same journal (timestamps, directions and bytes).
	var buf2 trace.Buffer
	run(&buf2)
	if len(buf.Records) != len(buf2.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(buf.Records), len(buf2.Records))
	}
	for i := range buf.Records {
		a, b := buf.Records[i], buf2.Records[i]
		if a.At != b.At || a.Dir != b.Dir || !bytes.Equal(a.TLP, b.TLP) {
			t.Fatalf("record %d differs between runs: %v/%v %x vs %v/%v %x",
				i, a.At, a.Dir, a.TLP, b.At, b.Dir, b.TLP)
		}
	}
}
