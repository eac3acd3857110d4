package mem

import (
	"fmt"

	"pciebench/internal/sim"
)

// Config describes the host memory system of a (possibly multi-socket)
// server.
type Config struct {
	// Nodes is the number of NUMA nodes (1 or 2 in the paper's testbed).
	Nodes int
	// Cache configures each node's LLC.
	Cache CacheConfig
	// LLCLatency is the latency of a device access serviced by the LLC.
	LLCLatency sim.Time
	// DRAMLatency is the latency of a device access serviced by DRAM.
	// The paper's §6.3 measurements put DRAM ~70 ns above the LLC.
	DRAMLatency sim.Time
	// RemoteLatency is the extra interconnect (QPI/UPI) latency added
	// to accesses homed on the other socket (~100 ns, §6.4).
	RemoteLatency sim.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.Nodes > 8 {
		return fmt.Errorf("mem: nodes must be 1..8, got %d", c.Nodes)
	}
	if c.Cache.SizeBytes <= 0 {
		return fmt.Errorf("mem: cache size must be positive")
	}
	if c.DRAMLatency < c.LLCLatency {
		return fmt.Errorf("mem: DRAM latency %v below LLC latency %v", c.DRAMLatency, c.LLCLatency)
	}
	return nil
}

// System is the memory system: one LLC per node plus DRAM and the
// socket interconnect. The PCIe device is attached (via its root
// complex) to node 0; DDIO write allocations land in node 0's LLC when
// the buffer is local, or the remote node's LLC otherwise (the remote
// socket's home agent owns the line).
type System struct {
	cfg   Config
	nodes []*Cache
	line  uint64 // resolved line size (cfg value, 64 when unset)
}

// NewSystem builds the memory system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, NewCache(cfg.Cache))
	}
	s.line = uint64(cfg.Cache.LineSize)
	if s.line == 0 {
		s.line = 64
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Node returns the LLC of one node (for warming, inspection, tests).
func (s *System) Node(i int) *Cache { return s.nodes[i] }

// Access is the interface the root complex uses: a device-initiated
// read or write of size bytes at addr, homed on NUMA node home. The
// device is attached to node 0. The returned latency covers the memory
// subsystem only (cache/DRAM plus interconnect); link serialization and
// root-complex processing are accounted by the caller.
//
// Multi-line transfers touch every covered line for cache-state
// purposes; their latency is the worst line latency, since the root
// complex issues the line fetches in parallel and the paper's
// size-dependent costs are serialization, which the caller models.
func (s *System) Access(write bool, home int, addr uint64, size int) sim.Time {
	return s.AccessFrom(write, 0, home, addr, size)
}

// AccessFrom generalizes Access to a device attached to NUMA node from:
// the remote-interconnect penalty applies when the target's home node
// differs from the device's, not just when it differs from node 0. The
// multi-socket topology layer routes each port's traffic through its
// own socket with this; Access remains the node-0 special case.
func (s *System) AccessFrom(write bool, from, home int, addr uint64, size int) sim.Time {
	if home < 0 || home >= len(s.nodes) {
		home = 0
	}
	llc := s.nodes[home]
	line := s.line
	first := addr / line * line

	// Fast path for the dominant case — a transfer of at most one line
	// (the paper's 64 B working size) that does not straddle a line
	// boundary: exactly one cache access, no per-line loop. The
	// latencies are the same max the general loop would compute, since
	// DRAMLatency >= LLCLatency is enforced by Validate.
	if uint64(size) <= line && addr+uint64(size) <= first+line {
		var lat sim.Time
		if write {
			r := llc.DeviceWrite(first, addr == first && uint64(size) == line)
			if r.Fetched {
				lat = s.cfg.DRAMLatency
			} else {
				lat = s.cfg.LLCLatency
			}
		} else {
			if llc.DeviceRead(first).Hit {
				lat = s.cfg.LLCLatency
			} else {
				lat = s.cfg.DRAMLatency
			}
		}
		if home != from {
			lat += s.cfg.RemoteLatency
		}
		return lat
	}

	worst := s.cfg.LLCLatency
	for a := first; a < addr+uint64(size); a += line {
		var lat sim.Time
		if write {
			// A write covers the whole line when it spans
			// [a, a+line) entirely.
			fullLine := addr <= a && addr+uint64(size) >= a+line
			r := llc.DeviceWrite(a, fullLine)
			if r.Fetched {
				lat = s.cfg.DRAMLatency
			} else {
				lat = s.cfg.LLCLatency
			}
		} else {
			r := llc.DeviceRead(a)
			if r.Hit {
				lat = s.cfg.LLCLatency
			} else {
				lat = s.cfg.DRAMLatency
			}
		}
		if lat > worst {
			worst = lat
		}
	}
	if home != from {
		worst += s.cfg.RemoteLatency
	}
	return worst
}

// Extent is one physically contiguous byte range [Addr, Addr+Size).
type Extent struct {
	Addr uint64
	Size int
}

// WarmHost writes every line of extents, in order, from the CPU on the
// given node, bringing them into that node's LLC (dirty), as the
// paper's "host warm" control does.
func (s *System) WarmHost(node int, extents []Extent) {
	s.llc(node).warm(extents, false)
}

// WarmDevice issues full-line device writes over every line of
// extents, in order, loading them through the DDIO allocation path
// ("device warm").
func (s *System) WarmDevice(node int, extents []Extent) {
	s.llc(node).warm(extents, true)
}

// llc returns node's LLC, or node 0's for an out-of-range node.
func (s *System) llc(node int) *Cache {
	if node < 0 || node >= len(s.nodes) {
		node = 0
	}
	return s.nodes[node]
}

// Release hands the storage of every node's LLC pages to the next
// system built, and leaves this one unusable: an Access, a warm or a
// Node lookup after it panics instead of reading pages another system
// may own by then. A second call does nothing. Release a system only
// when nothing will touch it again.
func (s *System) Release() {
	for _, c := range s.nodes {
		c.release()
	}
	s.nodes = nil
}

// Thrash resets every node's LLC to a cold state.
func (s *System) Thrash() {
	for _, n := range s.nodes {
		n.Thrash()
	}
}
