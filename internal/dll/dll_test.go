package dll

import (
	"testing"
	"testing/quick"
)

func TestDataCreditsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 16: 1, 17: 2, 64: 4, 256: 16, 4096: 256}
	for bytes, want := range cases {
		if got := DataCreditsFor(bytes); got != want {
			t.Errorf("DataCreditsFor(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestTxCreditsExhaustionAndUpdate(t *testing.T) {
	tx := NewTxCredits(
		Credits{Hdr: 2, Data: 8},               // posted: 2 TLPs, 128B
		Credits{Hdr: 1, Data: 1},               // non-posted
		Credits{Hdr: Infinite, Data: Infinite}, // completions uncapped
	)
	if err := tx.Consume(Posted, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx.Consume(Posted, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx.Consume(Posted, 64); err != ErrNoCredit {
		t.Errorf("third posted TLP: %v, want ErrNoCredit", err)
	}
	// Data credits can run out before header credits.
	tx2 := NewTxCredits(Credits{Hdr: 10, Data: 4}, Credits{}, Credits{})
	if err := tx2.Consume(Posted, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Consume(Posted, 64); err != ErrNoCredit {
		t.Errorf("data-credit exhaustion: %v, want ErrNoCredit", err)
	}
	// An UpdateFC raises the cumulative limit and unblocks.
	tx2.Update(Posted, Credits{Hdr: 10, Data: 8})
	if err := tx2.Consume(Posted, 64); err != nil {
		t.Errorf("after update: %v", err)
	}
	// Stale updates are ignored.
	tx2.Update(Posted, Credits{Hdr: 1, Data: 1})
	if got := tx2.Available(Posted); got.Hdr != 8 {
		t.Errorf("stale update changed limit: %+v", got)
	}
	// Infinite pools always send.
	for i := 0; i < 1000; i++ {
		if err := tx.Consume(Completion, 4096); err != nil {
			t.Fatalf("infinite pool blocked at %d: %v", i, err)
		}
	}
}

func TestRxCreditsLedger(t *testing.T) {
	rx := NewRxCredits(Credits{Hdr: 4, Data: 16}, Credits{Hdr: 2, Data: 2}, Credits{Hdr: 2, Data: 8})
	init := rx.InitFC(Posted)
	if init.Hdr != 4 || init.Data != 16 {
		t.Errorf("InitFC = %+v", init)
	}
	rx.Received(Posted, 64)
	rx.Received(Posted, 64)
	if p := rx.Pending(Posted); p.Hdr != 2 || p.Data != 8 {
		t.Errorf("pending = %+v", p)
	}
	if err := rx.Drained(Posted, 64); err != nil {
		t.Fatal(err)
	}
	// UpdateFC advertises capacity + processed.
	u := rx.UpdateFC(Posted)
	if u.Hdr != 5 || u.Data != 20 {
		t.Errorf("UpdateFC = %+v, want {5 20}", u)
	}
	// Draining more than was received is an error.
	if err := rx.Drained(Posted, 4096); err != ErrFCOverflow {
		t.Errorf("over-drain: %v, want ErrFCOverflow", err)
	}
}

// Property: under random consume/update sequences, available credits
// never go negative and Consume never succeeds without coverage.
func TestCreditsNeverNegative(t *testing.T) {
	f := func(ops []uint16) bool {
		tx := NewTxCredits(Credits{Hdr: 4, Data: 16}, Credits{Hdr: 4, Data: 16}, Credits{Hdr: 4, Data: 16})
		granted := Credits{Hdr: 4, Data: 16}
		for _, op := range ops {
			ct := CreditType(op % 3)
			if op&0x8000 != 0 {
				granted.Hdr += int(op % 3)
				granted.Data += int(op % 5)
				tx.Update(ct, granted)
			} else {
				payload := int(op % 300)
				_ = tx.Consume(ct, payload)
			}
			for c := Posted; c <= Completion; c++ {
				a := tx.Available(c)
				if a.Hdr < 0 || a.Data < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLinkBlocksWithoutCredits: a transmitter out of credits stalls
// until the receiver drains the TLP and advertises the freed space in an
// UpdateFC.
func TestLinkBlocksWithoutCredits(t *testing.T) {
	rx := NewRxCredits(Credits{Hdr: 1, Data: 4}, Credits{}, Credits{})
	tx := NewTxCredits(rx.InitFC(Posted), Credits{}, Credits{})

	if err := tx.Consume(Posted, 64); err != nil {
		t.Fatal(err)
	}
	rx.Received(Posted, 64)
	if err := tx.Consume(Posted, 64); err != ErrNoCredit {
		t.Fatalf("second send: %v, want ErrNoCredit", err)
	}
	// Received but not yet drained: nothing to advertise.
	tx.Update(Posted, rx.UpdateFC(Posted))
	if tx.CanSend(Posted, 64) {
		t.Fatal("credits returned before the TLP drained")
	}
	if err := rx.Drained(Posted, 64); err != nil {
		t.Fatal(err)
	}
	tx.Update(Posted, rx.UpdateFC(Posted))
	if err := tx.Consume(Posted, 64); err != nil {
		t.Errorf("after credit return: %v", err)
	}
}
