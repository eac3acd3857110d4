package tlp

import (
	"testing"
	"testing/quick"
)

func TestBERange(t *testing.T) {
	cases := []struct {
		addr            uint64
		sz              int
		lenDW           int
		firstBE, lastBE uint8
	}{
		{0, 4, 1, 0xF, 0},     // one aligned DW
		{0, 8, 2, 0xF, 0xF},   // two aligned DWs
		{0, 1, 1, 0x1, 0},     // single byte
		{1, 1, 1, 0x2, 0},     // single byte at offset 1
		{3, 1, 1, 0x8, 0},     // single byte at offset 3
		{1, 2, 1, 0x6, 0},     // two bytes within one DW
		{2, 4, 2, 0xC, 0x3},   // straddles a DW boundary
		{0, 64, 16, 0xF, 0xF}, // a cache line
		{3, 6, 3, 0x8, 0x1},   // 3 DWs, sparse ends
	}
	for _, tc := range cases {
		lenDW, f, l, err := BERange(tc.addr, tc.sz)
		if err != nil {
			t.Fatalf("BERange(%d,%d): %v", tc.addr, tc.sz, err)
		}
		if lenDW != tc.lenDW || f != tc.firstBE || l != tc.lastBE {
			t.Errorf("BERange(%d,%d) = (%d,%#x,%#x), want (%d,%#x,%#x)",
				tc.addr, tc.sz, lenDW, f, l, tc.lenDW, tc.firstBE, tc.lastBE)
		}
	}
	if _, _, _, err := BERange(0, 0); err != ErrPayloadRange {
		t.Errorf("sz=0: %v, want ErrPayloadRange", err)
	}
	if _, _, _, err := BERange(0, MaxPayload+1); err != ErrPayloadRange {
		t.Errorf("oversize: %v, want ErrPayloadRange", err)
	}
}

// Property: the byte enables of BERange always select exactly sz bytes.
func TestBERangeSelectsExactBytes(t *testing.T) {
	f := func(a uint16, s uint16) bool {
		addr := uint64(a % 256)
		sz := int(s%2048) + 1
		lenDW, fbe, lbe, err := BERange(addr, sz)
		if err != nil {
			return false
		}
		return enabledBytes(lenDW, fbe, lbe) == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSplitReadAligned(t *testing.T) {
	reqs, err := SplitRead(0, 0x1000, 1024, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	for i, r := range reqs {
		if r.LengthDW != 128 {
			t.Errorf("req %d: LengthDW = %d, want 128", i, r.LengthDW)
		}
	}
	if reqs[1].Addr != 0x1200 {
		t.Errorf("second request addr %#x, want 0x1200", reqs[1].Addr)
	}
}

func TestSplitReadUnalignedStart(t *testing.T) {
	// Starting 64 bytes before an MRRS boundary: first request must be
	// short so later ones do not cross boundaries.
	reqs, err := SplitRead(0, 512-64, 1024, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	if got := reqs[0].LengthDW * 4; got != 64 {
		t.Errorf("first request %dB, want 64", got)
	}
	if got := reqs[1].LengthDW * 4; got != 512 {
		t.Errorf("second request %dB, want 512", got)
	}
	if got := reqs[2].LengthDW * 4; got != 448 {
		t.Errorf("third request %dB, want 448", got)
	}
}

func TestSplitReadErrors(t *testing.T) {
	if _, err := SplitRead(0, 0, 0, 512, true); err == nil {
		t.Error("sz=0 accepted")
	}
	if _, err := SplitRead(0, 0, 64, 100, true); err == nil {
		t.Error("bad MRRS accepted")
	}
}

// Property: SplitRead covers exactly [addr, addr+sz) with no overlap and
// never crosses an MRRS boundary.
func TestSplitReadCoversRange(t *testing.T) {
	f := func(a uint32, s uint16, m uint8) bool {
		addr := uint64(a % 65536)
		sz := int(s%4096) + 1
		mrrs := 128 << (m % 4) // 128..1024
		reqs, err := SplitRead(0, addr, sz, mrrs, true)
		if err != nil {
			return false
		}
		pos := addr
		total := 0
		for _, r := range reqs {
			n := enabledBytes(r.LengthDW, r.FirstBE, r.LastBE)
			start := r.Addr + uint64(firstOffset(r.FirstBE))
			if start != pos {
				return false
			}
			// No request may cross an MRRS-aligned boundary.
			if start/uint64(mrrs) != (start+uint64(n)-1)/uint64(mrrs) {
				return false
			}
			pos += uint64(n)
			total += n
		}
		return total == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSplitWrite(t *testing.T) {
	data := make([]byte, 700)
	for i := range data {
		data[i] = byte(i)
	}
	ws, err := SplitWrite(0, 0x2000, data, 700, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("got %d writes, want 3", len(ws))
	}
	sizes := []int{256, 256, 188}
	total := 0
	for i, w := range ws {
		if len(w.Data) != sizes[i] {
			t.Errorf("write %d: %dB, want %d", i, len(w.Data), sizes[i])
		}
		for j, b := range w.Data {
			if b != byte(total+j) {
				t.Fatalf("write %d byte %d: got %d", i, j, b)
			}
		}
		total += len(w.Data)
	}
}

func TestSplitWriteErrors(t *testing.T) {
	if _, err := SplitWrite(0, 0, nil, 0, 256, true); err == nil {
		t.Error("sz=0 accepted")
	}
	if _, err := SplitWrite(0, 0, []byte{1, 2}, 3, 256, true); err == nil {
		t.Error("mismatched data length accepted")
	}
	if _, err := SplitWrite(0, 0, nil, 64, 100, true); err == nil {
		t.Error("bad MPS accepted")
	}
}

func TestSplitCompletionAligned(t *testing.T) {
	req := &MemRead{Addr: 0x1000, LengthDW: 128, FirstBE: 0xF, LastBE: 0xF} // 512B
	cpls, err := SplitCompletion(req, 0, nil, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpls) != 2 {
		t.Fatalf("got %d completions, want 2", len(cpls))
	}
	if cpls[0].ByteCount != 512 || cpls[1].ByteCount != 256 {
		t.Errorf("byte counts %d,%d want 512,256", cpls[0].ByteCount, cpls[1].ByteCount)
	}
	if cpls[0].LowerAddr != 0 || cpls[1].LowerAddr != 0 {
		t.Errorf("lower addrs %#x,%#x want 0,0", cpls[0].LowerAddr, cpls[1].LowerAddr)
	}
}

func TestSplitCompletionUnalignedFirstShort(t *testing.T) {
	// Paper §3: "the specification requires the first CplD to align the
	// remaining CplDs to an advertised Read Completion Boundary".
	req := &MemRead{Addr: 0x1010, LengthDW: 64, FirstBE: 0xF, LastBE: 0xF} // 256B at offset 16
	cpls, err := SplitCompletion(req, 0, nil, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpls) != 2 {
		t.Fatalf("got %d completions, want 2 (short first + remainder)", len(cpls))
	}
	if len(cpls[0].Data) != 48 {
		t.Errorf("first completion %dB, want 48 (to RCB boundary)", len(cpls[0].Data))
	}
	if len(cpls[1].Data) != 208 {
		t.Errorf("second completion %dB, want 208", len(cpls[1].Data))
	}
	if cpls[0].LowerAddr != 0x10 {
		t.Errorf("first LowerAddr %#x, want 0x10", cpls[0].LowerAddr)
	}
}

func TestSplitCompletionUnalignedGeneratesMoreTLPs(t *testing.T) {
	aligned := &MemRead{Addr: 0x1000, LengthDW: 256, FirstBE: 0xF, LastBE: 0xF}
	unaligned := &MemRead{Addr: 0x1010, LengthDW: 256, FirstBE: 0xF, LastBE: 0xF}
	ca, err := SplitCompletion(aligned, 0, nil, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := SplitCompletion(unaligned, 0, nil, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(cu) <= len(ca) {
		t.Errorf("unaligned read produced %d TLPs, aligned %d; want more for unaligned", len(cu), len(ca))
	}
}

func TestSplitCompletionErrors(t *testing.T) {
	req := &MemRead{Addr: 0, LengthDW: 1, FirstBE: 0xF}
	if _, err := SplitCompletion(req, 0, nil, 100, 64); err == nil {
		t.Error("bad MPS accepted")
	}
	if _, err := SplitCompletion(req, 0, nil, 256, 32); err == nil {
		t.Error("bad RCB accepted")
	}
	if _, err := SplitCompletion(req, 0, []byte{1, 2}, 256, 64); err == nil {
		t.Error("mismatched data accepted")
	}
}

// Property: completion splitting conserves bytes, respects MPS, aligns
// every non-final completion to RCB, and decrements ByteCount correctly.
func TestSplitCompletionInvariants(t *testing.T) {
	f := func(a uint16, s uint16, mpsSel, rcbSel uint8) bool {
		addr := uint64(a%4096) &^ 0x3 // DW aligned start as on the wire
		sz := (int(s%1024) + 1) &^ 0x3
		if sz == 0 {
			sz = 4
		}
		mps := 128 << (mpsSel % 3) // 128,256,512
		rcb := 64
		if rcbSel%2 == 1 {
			rcb = 128
		}
		lenDW, fbe, lbe, err := BERange(addr, sz)
		if err != nil {
			return false
		}
		req := &MemRead{Addr: addr, LengthDW: lenDW, FirstBE: fbe, LastBE: lbe}
		cpls, err := SplitCompletion(req, 0, nil, mps, rcb)
		if err != nil {
			return false
		}
		total := 0
		remaining := sz
		pos := addr
		for i, c := range cpls {
			if len(c.Data) > mps {
				return false
			}
			if c.ByteCount != remaining {
				return false
			}
			if c.LowerAddr != uint8(pos&0x7F) {
				return false
			}
			last := i == len(cpls)-1
			end := pos + uint64(len(c.Data))
			if !last && end%uint64(rcb) != 0 {
				return false
			}
			pos = end
			total += len(c.Data)
			remaining -= len(c.Data)
		}
		return total == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
