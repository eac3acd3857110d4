package tlp

import "fmt"

// BERange computes the DW length and first/last byte-enable fields for a
// request touching sz bytes starting at byte address addr. This is the
// spec's mechanism for expressing transfers that do not start or end on a
// doubleword boundary.
func BERange(addr uint64, sz int) (lengthDW int, firstBE, lastBE uint8, err error) {
	if sz <= 0 || sz > MaxPayload {
		return 0, 0, 0, ErrPayloadRange
	}
	startOff := int(addr & 0x3)
	end := addr + uint64(sz) // one past the last byte
	lengthDW = int((end+3)/4 - addr/4)
	firstBE = (0xF << uint(startOff)) & 0xF
	endOff := int(end & 0x3) // bytes valid in the last DW (0 => all 4)
	lastBE = 0xF
	if endOff != 0 {
		lastBE = 0xF >> uint(4-endOff)
	}
	if lengthDW == 1 {
		firstBE &= lastBE
		lastBE = 0 // spec: single-DW requests carry 0 in Last DW BE
	}
	return lengthDW, firstBE, lastBE, nil
}

// enabledBytes counts the data bytes selected by the BE fields of a
// request with the given DW length.
func enabledBytes(lengthDW int, firstBE, lastBE uint8) int {
	ones := func(v uint8) int {
		n := 0
		for ; v != 0; v >>= 1 {
			n += int(v & 1)
		}
		return n
	}
	if lengthDW == 1 {
		return ones(firstBE)
	}
	return ones(firstBE) + ones(lastBE) + 4*(lengthDW-2)
}

// SplitRead breaks a DMA read of sz bytes at addr into the Memory Read
// request TLPs a device must issue, each bounded by the Maximum Read
// Request Size. Per spec, requests larger than one MRRS chunk must not
// cross MRRS-aligned address boundaries, so an unaligned start produces a
// short first request.
func SplitRead(requester DeviceID, addr uint64, sz, mrrs int, addr64 bool) ([]MemRead, error) {
	if sz <= 0 {
		return nil, ErrPayloadRange
	}
	if mrrs < 128 || mrrs&(mrrs-1) != 0 {
		return nil, fmt.Errorf("tlp: bad MRRS %d", mrrs)
	}
	var out []MemRead
	pos := addr
	remaining := sz
	for remaining > 0 {
		chunk := remaining
		// Do not cross an MRRS-aligned boundary.
		if boundary := (pos/uint64(mrrs) + 1) * uint64(mrrs); pos+uint64(chunk) > boundary {
			chunk = int(boundary - pos)
		}
		lenDW, fbe, lbe, err := BERange(pos, chunk)
		if err != nil {
			return nil, err
		}
		out = append(out, MemRead{
			Requester: requester,
			Addr:      pos &^ 0x3,
			FirstBE:   fbe,
			LastBE:    lbe,
			LengthDW:  lenDW,
			Addr64:    addr64,
		})
		pos += uint64(chunk)
		remaining -= chunk
	}
	return out, nil
}

// SplitWrite breaks a DMA write of sz bytes at addr into posted Memory
// Write TLPs bounded by the Maximum Payload Size, not crossing
// MPS-aligned boundaries. The data argument may be nil, in which case the
// returned TLPs carry zero-filled payloads of the right length.
func SplitWrite(requester DeviceID, addr uint64, data []byte, sz, mps int, addr64 bool) ([]MemWrite, error) {
	if sz <= 0 {
		return nil, ErrPayloadRange
	}
	if data != nil && len(data) != sz {
		return nil, fmt.Errorf("tlp: data length %d != sz %d", len(data), sz)
	}
	if mps < 128 || mps&(mps-1) != 0 {
		return nil, fmt.Errorf("tlp: bad MPS %d", mps)
	}
	var out []MemWrite
	pos := addr
	remaining := sz
	off := 0
	for remaining > 0 {
		chunk := remaining
		if boundary := (pos/uint64(mps) + 1) * uint64(mps); pos+uint64(chunk) > boundary {
			chunk = int(boundary - pos)
		}
		_, fbe, lbe, err := BERange(pos, chunk)
		if err != nil {
			return nil, err
		}
		payload := make([]byte, chunk)
		if data != nil {
			copy(payload, data[off:off+chunk])
		}
		out = append(out, MemWrite{
			Requester: requester,
			Addr:      pos &^ 0x3,
			FirstBE:   fbe,
			LastBE:    lbe,
			Addr64:    addr64,
			Data:      payload,
		})
		pos += uint64(chunk)
		remaining -= chunk
		off += chunk
	}
	return out, nil
}

// SplitCompletion produces the Completion-with-Data TLPs a completer
// (the root complex, for DMA reads) generates in answer to a single
// Memory Read request. Splitting follows PCIe spec §2.3.1.1:
//
//   - each completion payload is at most MPS bytes;
//   - every completion except the last must end on an RCB-aligned
//     address, so an unaligned start yields a short first completion;
//   - the ByteCount field of each completion holds the bytes remaining
//     to satisfy the request including the current packet, and
//     LowerAddr holds bits [6:0] of the first byte's address.
//
// data may be nil for timing-only use; payloads are then zero-filled.
func SplitCompletion(req *MemRead, completer DeviceID, data []byte, mps, rcb int) ([]Completion, error) {
	if mps < 128 || mps&(mps-1) != 0 {
		return nil, fmt.Errorf("tlp: bad MPS %d", mps)
	}
	if rcb != 64 && rcb != 128 {
		return nil, fmt.Errorf("tlp: bad RCB %d", rcb)
	}
	sz := enabledBytes(req.LengthDW, req.FirstBE, req.LastBE)
	if sz <= 0 || sz > MaxPayload {
		return nil, ErrPayloadRange
	}
	if data != nil && len(data) != sz {
		return nil, fmt.Errorf("tlp: data length %d != request bytes %d", len(data), sz)
	}
	// First enabled byte address: header address is DW-aligned; FirstBE
	// gives the offset within the first DW.
	start := req.Addr + uint64(firstOffset(req.FirstBE))
	var out []Completion
	pos := start
	remaining := sz
	off := 0
	for remaining > 0 {
		// Typical root-complex behaviour (and what the paper's §3
		// limitation note describes): an unaligned start produces a
		// short first completion up to the next RCB boundary, after
		// which all completions start RCB-aligned and carry MPS-sized
		// payloads until the final remainder.
		var chunk int
		if misalign := int(pos % uint64(rcb)); misalign != 0 {
			chunk = rcb - misalign
		} else {
			chunk = mps
		}
		if chunk > remaining {
			chunk = remaining
		}
		payload := make([]byte, chunk)
		if data != nil {
			copy(payload, data[off:off+chunk])
		}
		out = append(out, Completion{
			Completer: completer,
			Status:    CplSuccess,
			ByteCount: remaining,
			Requester: req.Requester,
			Tag:       req.Tag,
			LowerAddr: uint8(pos & 0x7F),
			Data:      payload,
		})
		pos += uint64(chunk)
		remaining -= chunk
		off += chunk
	}
	return out, nil
}

// firstOffset returns the byte offset within the first DW selected by a
// contiguous FirstBE pattern.
func firstOffset(firstBE uint8) int {
	switch {
	case firstBE&0x1 != 0:
		return 0
	case firstBE&0x2 != 0:
		return 1
	case firstBE&0x4 != 0:
		return 2
	case firstBE&0x8 != 0:
		return 3
	}
	return 0
}
