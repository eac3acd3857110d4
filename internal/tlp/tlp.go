// Package tlp implements PCI Express Transaction Layer Packets: the
// wire codec behind traced runs (pcie-bench -trace) and the reference
// splitters for DMA transfer sizing.
//
// The package provides spec-faithful binary encoding and decoding for the
// TLP types that matter for DMA traffic — Memory Read requests (MRd),
// Memory Writes (MWr) and Completions with and without data (CplD/Cpl).
// SplitRead, SplitWrite and SplitCompletion split a transfer the way the
// spec does: requests bounded by MRRS (reads) or MPS (writes), and
// completions bounded by MPS and aligned to the Read Completion Boundary
// (RCB). The root complex runs the same arithmetic inline, and its tests
// check it against these splitters.
//
// The API follows the layered-decoding style of packet libraries such as
// gopacket: each packet type has an AppendTo serializer and a
// DecodeFromBytes parser, and the package-level Decode function dispatches
// on the Fmt/Type header fields.
package tlp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind identifies the transaction type of a decoded TLP.
type Kind uint8

// TLP kinds understood by this package.
const (
	KindInvalid  Kind = iota
	KindMemRead       // MRd: memory read request (no payload)
	KindMemWrite      // MWr: posted memory write (with payload)
	KindCpl           // Cpl: completion without data
	KindCplD          // CplD: completion with data
)

// String returns the spec mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindMemRead:
		return "MRd"
	case KindMemWrite:
		return "MWr"
	case KindCpl:
		return "Cpl"
	case KindCplD:
		return "CplD"
	}
	return "INVALID"
}

// Fmt field values (TLP header byte 0, bits 7:5).
const (
	fmt3DWNoData uint8 = 0x0
	fmt4DWNoData uint8 = 0x1
	fmt3DWData   uint8 = 0x2
	fmt4DWData   uint8 = 0x3
)

// Type field values (TLP header byte 0, bits 4:0).
const (
	typeMem uint8 = 0x00
	typeCpl uint8 = 0x0A
)

// CplStatus is the completion status field.
type CplStatus uint8

// Completion status codes (PCIe spec §2.2.9).
const (
	CplSuccess        CplStatus = 0 // SC: successful completion
	CplUnsupported    CplStatus = 1 // UR: unsupported request
	CplConfigRetry    CplStatus = 2 // CRS: configuration request retry
	CplCompleterAbort CplStatus = 4 // CA: completer abort
)

// String returns the spec mnemonic for the status.
func (s CplStatus) String() string {
	switch s {
	case CplSuccess:
		return "SC"
	case CplUnsupported:
		return "UR"
	case CplConfigRetry:
		return "CRS"
	case CplCompleterAbort:
		return "CA"
	}
	return fmt.Sprintf("CplStatus(%d)", uint8(s))
}

// DeviceID is a 16-bit PCIe requester/completer ID
// (bus[15:8], device[7:3], function[2:0]).
type DeviceID uint16

// MakeDeviceID assembles a DeviceID from bus/device/function numbers.
func MakeDeviceID(bus, dev, fn uint8) DeviceID {
	return DeviceID(uint16(bus)<<8 | uint16(dev&0x1F)<<3 | uint16(fn&0x7))
}

// Bus returns the bus number component.
func (id DeviceID) Bus() uint8 { return uint8(id >> 8) }

// Device returns the device number component.
func (id DeviceID) Device() uint8 { return uint8(id>>3) & 0x1F }

// Function returns the function number component.
func (id DeviceID) Function() uint8 { return uint8(id) & 0x7 }

// String renders the ID in lspci-style BB:DD.F notation.
func (id DeviceID) String() string {
	return fmt.Sprintf("%02x:%02x.%d", id.Bus(), id.Device(), id.Function())
}

// Decoding errors.
var (
	ErrShort        = errors.New("tlp: buffer too short")
	ErrBadType      = errors.New("tlp: unknown fmt/type combination")
	ErrBadLength    = errors.New("tlp: length field inconsistent with payload")
	ErrPayloadRange = errors.New("tlp: payload must be 1..4096 bytes")
	ErrNotAligned   = errors.New("tlp: address bits [1:0] must be zero in the wire format")
)

// MaxPayload is the largest payload a single TLP can carry (1024 DW).
const MaxPayload = 4096

// lengthToField encodes a DW count into the 10-bit length field
// (1024 encodes as 0).
func lengthToField(dw int) uint16 {
	if dw == 1024 {
		return 0
	}
	return uint16(dw)
}

// fieldToLength decodes the 10-bit length field into a DW count.
func fieldToLength(f uint16) int {
	if f == 0 {
		return 1024
	}
	return int(f)
}

// MemRead is a memory read request TLP. It carries no payload; the
// completer returns the data in one or more completions.
type MemRead struct {
	Requester DeviceID
	Tag       uint8
	Addr      uint64 // byte address of the first requested byte
	FirstBE   uint8  // byte enables for the first DW
	LastBE    uint8  // byte enables for the last DW (0 if LengthDW==1)
	LengthDW  int    // request length in DW (1..1024)
	TC        uint8  // traffic class (0..7)
	Addr64    bool   // use the 4DW (64-bit address) header format
}

// Kind returns KindMemRead.
func (p *MemRead) Kind() Kind { return KindMemRead }

// HeaderBytes returns the TLP header size (12 or 16).
func (p *MemRead) HeaderBytes() int {
	if p.Addr64 {
		return 16
	}
	return 12
}

// WireBytes returns the raw TLP size: header only (reads carry no data).
func (p *MemRead) WireBytes() int { return p.HeaderBytes() }

// String summarises the request.
func (p *MemRead) String() string {
	return fmt.Sprintf("MRd addr=%#x len=%dDW tag=%d req=%s", p.Addr, p.LengthDW, p.Tag, p.Requester)
}

// AppendTo serializes the request, appending the wire bytes to dst.
func (p *MemRead) AppendTo(dst []byte) ([]byte, error) {
	if p.LengthDW < 1 || p.LengthDW > 1024 {
		return dst, ErrPayloadRange
	}
	if p.Addr&0x3 != 0 {
		return dst, ErrNotAligned
	}
	f := fmt3DWNoData
	if p.Addr64 {
		f = fmt4DWNoData
	}
	dst = appendCommon(dst, f, typeMem, p.TC, false, p.LengthDW)
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Requester))
	dst = append(dst, p.Tag, p.LastBE<<4|p.FirstBE&0xF)
	if p.Addr64 {
		dst = binary.BigEndian.AppendUint64(dst, p.Addr&^uint64(0x3))
	} else {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.Addr)&^uint32(0x3))
	}
	return dst, nil
}

// DecodeFromBytes parses a MemRead from b, returning the bytes consumed.
func (p *MemRead) DecodeFromBytes(b []byte) (int, error) {
	f, typ, tc, _, lenDW, err := parseCommon(b)
	if err != nil {
		return 0, err
	}
	if typ != typeMem || (f != fmt3DWNoData && f != fmt4DWNoData) {
		return 0, ErrBadType
	}
	p.Addr64 = f == fmt4DWNoData
	need := p.HeaderBytes()
	if len(b) < need {
		return 0, ErrShort
	}
	p.TC = tc
	p.LengthDW = lenDW
	p.Requester = DeviceID(binary.BigEndian.Uint16(b[4:6]))
	p.Tag = b[6]
	p.LastBE = b[7] >> 4
	p.FirstBE = b[7] & 0xF
	if p.Addr64 {
		p.Addr = binary.BigEndian.Uint64(b[8:16]) &^ uint64(0x3)
	} else {
		p.Addr = uint64(binary.BigEndian.Uint32(b[8:12]) &^ uint32(0x3))
	}
	return need, nil
}

// MemWrite is a posted memory write TLP carrying Data.
type MemWrite struct {
	Requester DeviceID
	Tag       uint8 // writes are posted; the tag is informational
	Addr      uint64
	FirstBE   uint8
	LastBE    uint8
	TC        uint8
	Addr64    bool
	Data      []byte // payload, padded to a DW multiple on the wire
}

// Kind returns KindMemWrite.
func (p *MemWrite) Kind() Kind { return KindMemWrite }

// HeaderBytes returns the TLP header size (12 or 16).
func (p *MemWrite) HeaderBytes() int {
	if p.Addr64 {
		return 16
	}
	return 12
}

// LengthDW returns the payload length in doublewords.
func (p *MemWrite) LengthDW() int { return (len(p.Data) + 3) / 4 }

// WireBytes returns the raw TLP size: header plus DW-padded payload.
func (p *MemWrite) WireBytes() int { return p.HeaderBytes() + p.LengthDW()*4 }

// String summarises the write.
func (p *MemWrite) String() string {
	return fmt.Sprintf("MWr addr=%#x len=%dB req=%s", p.Addr, len(p.Data), p.Requester)
}

// AppendTo serializes the write, appending the wire bytes to dst.
func (p *MemWrite) AppendTo(dst []byte) ([]byte, error) {
	if len(p.Data) == 0 || len(p.Data) > MaxPayload {
		return dst, ErrPayloadRange
	}
	if p.Addr&0x3 != 0 {
		return dst, ErrNotAligned
	}
	f := fmt3DWData
	if p.Addr64 {
		f = fmt4DWData
	}
	dst = appendCommon(dst, f, typeMem, p.TC, false, p.LengthDW())
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Requester))
	dst = append(dst, p.Tag, p.LastBE<<4|p.FirstBE&0xF)
	if p.Addr64 {
		dst = binary.BigEndian.AppendUint64(dst, p.Addr&^uint64(0x3))
	} else {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.Addr)&^uint32(0x3))
	}
	dst = append(dst, p.Data...)
	for i := len(p.Data); i%4 != 0; i++ {
		dst = append(dst, 0)
	}
	return dst, nil
}

// DecodeFromBytes parses a MemWrite from b, returning the bytes consumed.
// The decoded Data slice aliases b and spans the DW-padded payload.
func (p *MemWrite) DecodeFromBytes(b []byte) (int, error) {
	f, typ, tc, _, lenDW, err := parseCommon(b)
	if err != nil {
		return 0, err
	}
	if typ != typeMem || (f != fmt3DWData && f != fmt4DWData) {
		return 0, ErrBadType
	}
	p.Addr64 = f == fmt4DWData
	need := p.HeaderBytes() + lenDW*4
	if len(b) < need {
		return 0, ErrShort
	}
	p.TC = tc
	p.Requester = DeviceID(binary.BigEndian.Uint16(b[4:6]))
	p.Tag = b[6]
	p.LastBE = b[7] >> 4
	p.FirstBE = b[7] & 0xF
	hdr := p.HeaderBytes()
	if p.Addr64 {
		p.Addr = binary.BigEndian.Uint64(b[8:16]) &^ uint64(0x3)
	} else {
		p.Addr = uint64(binary.BigEndian.Uint32(b[8:12]) &^ uint32(0x3))
	}
	p.Data = b[hdr:need]
	return need, nil
}

// Completion is a Cpl or CplD TLP answering a non-posted request.
type Completion struct {
	Completer DeviceID
	Status    CplStatus
	BCM       bool // byte count modified (PCI-X bridges only)
	ByteCount int  // remaining bytes including this completion (1..4096)
	Requester DeviceID
	Tag       uint8
	LowerAddr uint8 // address bits [6:0] of the first byte in Data
	TC        uint8
	Data      []byte // nil for Cpl (no data)
}

// Kind returns KindCplD when the completion carries data, KindCpl
// otherwise.
func (p *Completion) Kind() Kind {
	if len(p.Data) > 0 {
		return KindCplD
	}
	return KindCpl
}

// HeaderBytes returns the completion header size (always 3DW).
func (p *Completion) HeaderBytes() int { return 12 }

// LengthDW returns the payload length in doublewords.
func (p *Completion) LengthDW() int { return (len(p.Data) + 3) / 4 }

// WireBytes returns the raw TLP size.
func (p *Completion) WireBytes() int { return p.HeaderBytes() + p.LengthDW()*4 }

// String summarises the completion.
func (p *Completion) String() string {
	return fmt.Sprintf("%s tag=%d bc=%d la=%#x len=%dB st=%s",
		p.Kind(), p.Tag, p.ByteCount, p.LowerAddr, len(p.Data), p.Status)
}

// AppendTo serializes the completion, appending the wire bytes to dst.
func (p *Completion) AppendTo(dst []byte) ([]byte, error) {
	if len(p.Data) > MaxPayload {
		return dst, ErrPayloadRange
	}
	if p.ByteCount < 0 || p.ByteCount > 4096 {
		return dst, ErrPayloadRange
	}
	f := fmt3DWNoData
	lenDW := 1 // Cpl without data still encodes length from the request; use 1
	if len(p.Data) > 0 {
		f = fmt3DWData
		lenDW = p.LengthDW()
	}
	dst = appendCommon(dst, f, typeCpl, p.TC, false, lenDW)
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Completer))
	bc := uint16(p.ByteCount)
	if p.ByteCount == 4096 {
		bc = 0 // 4096 encodes as 0 in the 12-bit field
	}
	b6 := uint8(p.Status)<<5 | uint8(bc>>8)&0xF
	if p.BCM {
		b6 |= 1 << 4
	}
	dst = append(dst, b6, byte(bc))
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Requester))
	dst = append(dst, p.Tag, p.LowerAddr&0x7F)
	dst = append(dst, p.Data...)
	for i := len(p.Data); i%4 != 0; i++ {
		dst = append(dst, 0)
	}
	return dst, nil
}

// DecodeFromBytes parses a completion from b, returning bytes consumed.
func (p *Completion) DecodeFromBytes(b []byte) (int, error) {
	f, typ, tc, _, lenDW, err := parseCommon(b)
	if err != nil {
		return 0, err
	}
	if typ != typeCpl || (f != fmt3DWNoData && f != fmt3DWData) {
		return 0, ErrBadType
	}
	need := 12
	withData := f == fmt3DWData
	if withData {
		need += lenDW * 4
	}
	if len(b) < need {
		return 0, ErrShort
	}
	p.TC = tc
	p.Completer = DeviceID(binary.BigEndian.Uint16(b[4:6]))
	p.Status = CplStatus(b[6] >> 5)
	p.BCM = b[6]&0x10 != 0
	bc := int(b[6]&0xF)<<8 | int(b[7])
	if bc == 0 {
		bc = 4096
	}
	p.ByteCount = bc
	p.Requester = DeviceID(binary.BigEndian.Uint16(b[8:10]))
	p.Tag = b[10]
	p.LowerAddr = b[11] & 0x7F
	if withData {
		p.Data = b[12:need]
	} else {
		p.Data = nil
	}
	return need, nil
}

// Packet is the interface satisfied by every TLP type in this package.
type Packet interface {
	Kind() Kind
	WireBytes() int
	AppendTo(dst []byte) ([]byte, error)
	String() string
}

// Compile-time interface checks.
var (
	_ Packet = (*MemRead)(nil)
	_ Packet = (*MemWrite)(nil)
	_ Packet = (*Completion)(nil)
)

// Decode parses the TLP at the start of b, dispatching on the Fmt/Type
// fields, and returns the packet and the number of bytes consumed.
func Decode(b []byte) (Packet, int, error) {
	f, typ, _, _, _, err := parseCommon(b)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case typ == typeMem && (f == fmt3DWNoData || f == fmt4DWNoData):
		p := new(MemRead)
		n, err := p.DecodeFromBytes(b)
		return p, n, err
	case typ == typeMem && (f == fmt3DWData || f == fmt4DWData):
		p := new(MemWrite)
		n, err := p.DecodeFromBytes(b)
		return p, n, err
	case typ == typeCpl:
		p := new(Completion)
		n, err := p.DecodeFromBytes(b)
		return p, n, err
	}
	return nil, 0, ErrBadType
}

// appendCommon emits the first DW of a TLP header.
func appendCommon(dst []byte, f, typ, tc uint8, td bool, lenDW int) []byte {
	b0 := f<<5 | typ&0x1F
	b1 := tc << 4 & 0x70
	lf := lengthToField(lenDW)
	b2 := byte(lf >> 8 & 0x3)
	if td {
		b2 |= 0x80
	}
	return append(dst, b0, b1, b2, byte(lf))
}

// parseCommon reads the first DW of a TLP header.
func parseCommon(b []byte) (f, typ, tc uint8, td bool, lenDW int, err error) {
	if len(b) < 4 {
		return 0, 0, 0, false, 0, ErrShort
	}
	f = b[0] >> 5
	typ = b[0] & 0x1F
	tc = b[1] >> 4 & 0x7
	td = b[2]&0x80 != 0
	lenDW = fieldToLength(uint16(b[2]&0x3)<<8 | uint16(b[3]))
	return f, typ, tc, td, lenDW, nil
}
