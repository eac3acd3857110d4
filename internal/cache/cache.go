// Package cache is a content-addressed result store.
//
// Every sweep cell in this repo is a pure function of (canonical cell
// spec, seed, build version), so its result can be addressed by the
// SHA-256 of those inputs and reused forever: resubmitting a spec with
// one axis value changed recomputes only the changed cells, and an
// identical resubmission executes nothing at all. The package defines
// the Store interface the sweep engine dedups against, plus two
// implementations: an in-memory map for a single process (the serving
// default), bounded to a fixed byte budget, and an on-disk layout that
// persists across restarts.
//
// Stores are deliberately dumb byte stores — keying policy (what goes
// into the hash) belongs to the caller; see sweep.Engine.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key derives the content address of a canonical blob: the lowercase
// hex SHA-256 of its bytes.
func Key(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Store is a content-addressed byte store. Implementations must be
// safe for concurrent use; Get and Put are best-effort (a failed read
// is a miss, a failed write loses only the cache entry), so callers
// never fail a computation over cache trouble.
type Store interface {
	// Get returns the blob stored under key, or ok=false on a miss.
	Get(key string) (val []byte, ok bool)
	// Put stores val under key. Entries are immutable: writing a key
	// that already exists is a no-op.
	Put(key string, val []byte)
	// Len returns the number of stored entries.
	Len() int
}

// memoryBudget bounds the bytes a Memory holds, keys plus values. An
// evicted entry costs only a recompute, because keys are content
// addresses.
const memoryBudget = 64 << 20

// Memory is the in-process Store: a mutex-guarded map within a byte
// budget (memoryBudget). Past it, Put evicts the oldest entries first,
// so Get stays a read-locked map lookup. The zero value is not ready;
// use NewMemory.
type Memory struct {
	mu     sync.RWMutex
	m      map[string][]byte
	order  []string // keys in insertion order; the first is evicted first
	bytes  int      // key plus value bytes held
	budget int
}

// NewMemory returns an empty in-memory store with the default budget.
func NewMemory() *Memory { return newMemory(memoryBudget) }

func newMemory(budget int) *Memory {
	return &Memory{m: map[string][]byte{}, budget: budget}
}

// Get returns the blob stored under key.
func (c *Memory) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.m[key]
	return v, ok
}

// Put stores val under key, evicting the oldest entries until it fits;
// existing entries are kept (immutability means both values are
// identical anyway), and an entry larger than the whole budget is not
// stored.
func (c *Memory) Put(key string, val []byte) {
	size := len(key) + len(val)
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup {
		return
	}
	for c.bytes+size > c.budget {
		old := c.order[0]
		c.order[0] = ""
		c.order = c.order[1:]
		c.bytes -= len(old) + len(c.m[old])
		delete(c.m, old)
	}
	c.m[key] = append([]byte(nil), val...)
	c.order = append(c.order, key)
	c.bytes += size
}

// Len returns the entry count.
func (c *Memory) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
