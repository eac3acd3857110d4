package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// stores builds one of each implementation for table-driven contract
// tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"memory": NewMemory(), "disk": disk}
}

func TestStoreContract(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key([]byte("cell-spec-1"))
			if _, ok := s.Get(key); ok {
				t.Fatal("empty store reported a hit")
			}
			if s.Len() != 0 {
				t.Fatalf("empty store Len = %d", s.Len())
			}
			s.Put(key, []byte("result-1"))
			got, ok := s.Get(key)
			if !ok || string(got) != "result-1" {
				t.Fatalf("Get = %q, %v; want result-1, true", got, ok)
			}
			// Entries are immutable: a second Put of the same key keeps
			// the first value.
			s.Put(key, []byte("clobbered"))
			if got, _ := s.Get(key); string(got) != "result-1" {
				t.Fatalf("Put overwrote an existing entry: %q", got)
			}
			s.Put(Key([]byte("cell-spec-2")), []byte("result-2"))
			if s.Len() != 2 {
				t.Fatalf("Len = %d, want 2", s.Len())
			}
		})
	}
}

func TestStoreConcurrent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < 50; j++ {
						key := Key([]byte(fmt.Sprintf("k%d", j)))
						s.Put(key, []byte(fmt.Sprintf("v%d", j)))
						if v, ok := s.Get(key); ok && string(v) != fmt.Sprintf("v%d", j) {
							t.Errorf("torn read: %q", v)
						}
					}
				}(i)
			}
			wg.Wait()
			if s.Len() != 50 {
				t.Fatalf("Len = %d, want 50", s.Len())
			}
		})
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	a, b := Key([]byte("spec-a")), Key([]byte("spec-b"))
	if a == b {
		t.Fatal("distinct content hashed to one key")
	}
	if a != Key([]byte("spec-a")) {
		t.Fatal("key not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a))
	}
}

// TestDiskPersists reopens a store on the same directory and still
// finds the entry — the property the serving cache relies on across
// restarts.
func TestDiskPersists(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("persistent"))
	s1.Put(key, []byte("survives"))

	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "survives" {
		t.Fatalf("reopened store: Get = %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store Len = %d, want 1", s2.Len())
	}
}

// TestDiskSharding checks the two-hex-char fanout layout so a store
// directory never collects millions of siblings.
func TestDiskShard(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("sharded"))
	s.Put(key, []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, key[:2], key)); err != nil {
		t.Fatalf("entry not at sharded path: %v", err)
	}
}

// TestDiskQuarantine pins the corrupt-entry recovery loop: a
// quarantined entry is renamed to .bad (kept for post-mortems), is not
// re-read, no longer counts toward Len, and — because first-write-wins
// keys on the live path — a fresh Put lands and is served again.
func TestDiskQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged string
	s.Logf = func(format string, args ...any) { logged = fmt.Sprintf(format, args...) }

	key := Key([]byte("rot"))
	s.Put(key, []byte("garbage{{{"))
	s.Quarantine(key, "invalid character '{'")

	if _, ok := s.Get(key); ok {
		t.Fatal("quarantined entry still readable")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", s.Len())
	}
	bad := filepath.Join(dir, key[:2], key+".bad")
	if blob, err := os.ReadFile(bad); err != nil || string(blob) != "garbage{{{" {
		t.Fatalf("quarantined blob not preserved at %s: %v", bad, err)
	}
	if !strings.Contains(logged, key) || !strings.Contains(logged, "invalid character") {
		t.Errorf("quarantine log line %q missing key or reason", logged)
	}

	// Recovery: a recomputed result replaces the slot.
	s.Put(key, []byte("fresh"))
	if got, ok := s.Get(key); !ok || string(got) != "fresh" {
		t.Fatalf("recomputed entry not served: %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after recovery, want 1", s.Len())
	}

	// Quarantining a missing key is a no-op, not a crash.
	s.Quarantine(Key([]byte("absent")), "whatever")
}

// TestMemoryBudget: past its byte budget a Memory evicts its oldest
// entries first, never holds more key and value bytes than the budget,
// misses an evicted key, and takes it back on a fresh Put.
func TestMemoryBudget(t *testing.T) {
	key := func(i int) string { return Key([]byte(fmt.Sprint("cell-", i))) }
	val := []byte(strings.Repeat("v", 36)) // 64-byte key + 36 = 100 bytes an entry
	const budget = 350                     // room for three entries
	c := newMemory(budget)
	for i := 0; i < 10; i++ {
		c.Put(key(i), val)
		if c.bytes > budget {
			t.Fatalf("after %d puts: %d bytes held, budget %d", i+1, c.bytes, budget)
		}
		if want := min(i+1, 3); c.Len() != want {
			t.Fatalf("after %d puts: Len = %d, want %d", i+1, c.Len(), want)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(key(i)); ok != (i >= 7) {
			t.Errorf("key %d: hit = %v, want %v (the newest three stay)", i, ok, i >= 7)
		}
	}

	// A re-Put of an evicted key restores it and evicts the oldest.
	c.Put(key(0), []byte("back"))
	if got, ok := c.Get(key(0)); !ok || string(got) != "back" {
		t.Fatalf("re-Put evicted key: Get = %q, %v", got, ok)
	}
	if _, ok := c.Get(key(7)); ok {
		t.Error("the oldest entry survived the re-Put")
	}
	if c.bytes > budget || c.Len() != 3 {
		t.Errorf("after re-Put: %d bytes, %d entries", c.bytes, c.Len())
	}

	// An entry larger than the whole budget is not stored and evicts
	// nothing.
	c.Put(key(99), make([]byte, budget))
	if _, ok := c.Get(key(99)); ok || c.Len() != 3 {
		t.Errorf("over-budget entry: stored %v, Len = %d", ok, c.Len())
	}
}

// TestMemoryBudgetConcurrent: writers racing past the budget never
// leave it exceeded or a value torn.
func TestMemoryBudgetConcurrent(t *testing.T) {
	const budget = 1000
	c := newMemory(budget)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				n := (i*7 + j) % 50
				key := Key([]byte(fmt.Sprintf("k%d", n)))
				c.Put(key, []byte(fmt.Sprintf("v%d", n)))
				if v, ok := c.Get(key); ok && string(v) != fmt.Sprintf("v%d", n) {
					t.Errorf("torn read: %q", v)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.bytes > budget || c.Len() != len(c.order) {
		t.Fatalf("%d bytes held (budget %d), %d entries, %d in order", c.bytes, budget, c.Len(), len(c.order))
	}
}
