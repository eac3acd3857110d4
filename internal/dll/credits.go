// Package dll holds the PCI Express Data Link Layer's flow-control
// credit ledgers.
//
// Flow control is credit accounting per type (Posted, Non-Posted,
// Completion) in header and data credit units, advertised and restored
// through UpdateFC DLLPs. TxCredits is the transmitter's view of the
// receiver's buffer and RxCredits the receiver's own ledger; each
// credit-limited flow-control window of the switch model in internal/rc
// is a pair of them.
//
// The rest of the layer is modeled in time, not in packets:
// internal/pcie folds the sequence number and LCRC into each TLP's wire
// overhead, and internal/rc models the Nak round trip and replay of a
// corrupted TLP, charging WireBytes for the Nak DLLP.
package dll

import (
	"errors"
	"fmt"
)

// CreditType distinguishes the three flow-control pools of a virtual
// channel.
type CreditType int

// Flow-control pools.
const (
	Posted     CreditType = iota // memory writes, messages
	NonPosted                    // memory reads, config/IO requests
	Completion                   // completions
	numCreditTypes
)

// String names the pool.
func (c CreditType) String() string {
	switch c {
	case Posted:
		return "P"
	case NonPosted:
		return "NP"
	case Completion:
		return "Cpl"
	}
	return fmt.Sprintf("CreditType(%d)", int(c))
}

// WireBytes is the size of every DLLP on the wire: 2 B framing + 4 B
// payload + 2 B CRC-16.
const WireBytes = 8

// DataCreditBytes is the size of one data credit: 4 DW.
const DataCreditBytes = 16

// Infinite marks a pool as having infinite credits (the spec permits
// this for completions on endpoints).
const Infinite = -1

// Credits is a (header, data) credit pair.
type Credits struct {
	Hdr  int // one header credit per TLP
	Data int // one data credit per 16 payload bytes
}

// DataCreditsFor returns the data credits a payload of n bytes consumes.
func DataCreditsFor(n int) int {
	return (n + DataCreditBytes - 1) / DataCreditBytes
}

// Flow-control errors.
var (
	ErrNoCredit   = errors.New("dll: insufficient flow-control credits")
	ErrFCOverflow = errors.New("dll: credit release exceeds consumption")
)

// TxCredits is the transmitter-side view of the receiver's buffer space:
// CREDITS_LIMIT advertised via InitFC/UpdateFC minus CREDITS_CONSUMED.
type TxCredits struct {
	limit    [numCreditTypes]Credits // cumulative advertised credits
	consumed [numCreditTypes]Credits // cumulative consumed credits
}

// NewTxCredits initializes the transmitter view from the receiver's
// InitFC advertisement.
func NewTxCredits(p, np, cpl Credits) *TxCredits {
	t := &TxCredits{}
	t.limit[Posted] = p
	t.limit[NonPosted] = np
	t.limit[Completion] = cpl
	return t
}

// available returns remaining credits for one pool (header, data).
func (t *TxCredits) available(ct CreditType) Credits {
	lim, con := t.limit[ct], t.consumed[ct]
	a := Credits{Hdr: Infinite, Data: Infinite}
	if lim.Hdr != Infinite {
		a.Hdr = lim.Hdr - con.Hdr
	}
	if lim.Data != Infinite {
		a.Data = lim.Data - con.Data
	}
	return a
}

// CanSend reports whether a TLP of the given type with payloadBytes of
// data can be transmitted under the current credit state.
func (t *TxCredits) CanSend(ct CreditType, payloadBytes int) bool {
	a := t.available(ct)
	if a.Hdr != Infinite && a.Hdr < 1 {
		return false
	}
	need := DataCreditsFor(payloadBytes)
	if a.Data != Infinite && a.Data < need {
		return false
	}
	return true
}

// Consume debits the credits for one TLP. It returns ErrNoCredit without
// side effects if insufficient credits remain.
func (t *TxCredits) Consume(ct CreditType, payloadBytes int) error {
	if !t.CanSend(ct, payloadBytes) {
		return ErrNoCredit
	}
	t.consumed[ct].Hdr++
	t.consumed[ct].Data += DataCreditsFor(payloadBytes)
	return nil
}

// Update processes an UpdateFC advertisement raising the cumulative
// limit for one pool. Updates are cumulative counters; a stale (lower)
// update is ignored, mirroring the spec's modulo comparison.
func (t *TxCredits) Update(ct CreditType, limit Credits) {
	if t.limit[ct].Hdr != Infinite && limit.Hdr > t.limit[ct].Hdr {
		t.limit[ct].Hdr = limit.Hdr
	}
	if t.limit[ct].Data != Infinite && limit.Data > t.limit[ct].Data {
		t.limit[ct].Data = limit.Data
	}
}

// Available returns the remaining (header, data) credits for a pool,
// with Infinite fields when the pool is uncapped.
func (t *TxCredits) Available(ct CreditType) Credits { return t.available(ct) }

// RxCredits is the receiver-side ledger: buffer capacity allocated per
// pool, credits granted to the peer, and credits freed as the
// transaction layer drains received TLPs.
type RxCredits struct {
	capacity  [numCreditTypes]Credits // total buffer, in credits
	granted   [numCreditTypes]Credits // cumulative advertised
	processed [numCreditTypes]Credits // cumulative freed
	pending   [numCreditTypes]Credits // received but not yet drained
}

// NewRxCredits sets up a receiver with the given buffer capacities and
// returns it; the initial grant equals the full capacity (InitFC).
func NewRxCredits(p, np, cpl Credits) *RxCredits {
	r := &RxCredits{}
	r.capacity[Posted] = p
	r.capacity[NonPosted] = np
	r.capacity[Completion] = cpl
	r.granted[Posted] = p
	r.granted[NonPosted] = np
	r.granted[Completion] = cpl
	return r
}

// InitFC returns the initial advertisement for one pool.
func (r *RxCredits) InitFC(ct CreditType) Credits { return r.granted[ct] }

// Received records buffer occupancy for an arriving TLP.
func (r *RxCredits) Received(ct CreditType, payloadBytes int) {
	r.pending[ct].Hdr++
	r.pending[ct].Data += DataCreditsFor(payloadBytes)
}

// Drained records that the transaction layer consumed a previously
// received TLP, freeing its buffer space. The freed credits become
// available for a future UpdateFC.
func (r *RxCredits) Drained(ct CreditType, payloadBytes int) error {
	if r.pending[ct].Hdr < 1 || r.pending[ct].Data < DataCreditsFor(payloadBytes) {
		return ErrFCOverflow
	}
	r.pending[ct].Hdr--
	r.pending[ct].Data -= DataCreditsFor(payloadBytes)
	r.processed[ct].Hdr++
	r.processed[ct].Data += DataCreditsFor(payloadBytes)
	return nil
}

// UpdateFC produces the cumulative credit limit to advertise for a pool:
// capacity plus everything processed so far. The DLLP should be sent
// whenever this value exceeds the last advertisement.
func (r *RxCredits) UpdateFC(ct CreditType) Credits {
	cap, proc := r.capacity[ct], r.processed[ct]
	u := Credits{Hdr: Infinite, Data: Infinite}
	if cap.Hdr != Infinite {
		u.Hdr = cap.Hdr + proc.Hdr
	}
	if cap.Data != Infinite {
		u.Data = cap.Data + proc.Data
	}
	r.granted[ct] = u
	return u
}

// Pending returns the occupancy of one pool (useful for tests and for
// modeling receiver-buffer backpressure).
func (r *RxCredits) Pending(ct CreditType) Credits { return r.pending[ct] }
