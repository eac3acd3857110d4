package topo

import "math/rand"

// This file computes the island partition of a Spec: which endpoints
// can run on independent event kernels with results byte-identical to
// the single-kernel build.
//
// Two endpoints land in the same island whenever their simulated
// traffic can meet on mutable simulation state:
//
//   - the same switch (shared uplink arbitration and credit pools),
//   - the same socket (shared root-complex pipeline slots; a switched
//     endpoint ingresses at its switch's socket),
//   - the same buffer NUMA node (shared LLC occupancy in mem.System —
//     AccessFrom touches only the home node's state),
//   - the shared inter-socket bus, when the spec models one: every
//     endpoint whose buffer is remote to its ingress socket queues on
//     the one xbus resource, so all such endpoints couple,
//   - the same IOMMU translation unit: a global-scope unit sits on
//     every DMA path (one IO-TLB, one walker pool, one LRU clock), so
//     it couples all endpoints; per-socket units (VT-d DRHD scope)
//     are owned by their ingress socket, which the same-socket rule
//     already couples, so they add no edges of their own.
//
// A partitioned build (SimWorkers > 1, several islands) runs each
// island — however many endpoints it holds — on one kernel of its own;
// a spec that forms a single island builds serially. The partition
// matters to serial builds too: root-complex jitter is drawn per
// island (socketRNGs), island 0 from the kernel stream and every
// further island from a stream keyed by island id, so serial and
// partitioned builds consume identical jitter. That is why Build
// computes the partition whatever the worker budget.
//
// Peer-to-peer BAR traffic cannot be seen statically; it is guarded at
// run time instead (rc rejects DMA that would cross domains), and p2p
// cells build serially.

// unionFind is a plain union-find over endpoint indices.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(i int) int {
	for u[i] != i {
		u[i] = u[u[i]]
		i = u[i]
	}
	return i
}

func (u unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u[rb] = ra
	}
}

// socketOf returns the socket index endpoint i's traffic ingresses at:
// its own for direct attachment, its switch's otherwise.
func (s Spec) socketOf(i int) int {
	ep := s.Endpoints[i]
	if ep.Switch == DirectAttach {
		return ep.Socket
	}
	return s.Switches[ep.Switch].Socket
}

// islandsOf partitions the spec's endpoints into simulation islands:
// groups whose traffic never meets, listed in first-endpoint order with
// each group's endpoints in ascending order. A single returned island
// means the spec cannot be parallelized and builds serially.
func islandsOf(spec Spec) [][]int {
	n := len(spec.Endpoints)
	u := newUnionFind(n)
	// A global-scope IOMMU is one mutable translation unit on every DMA
	// path: everything couples. Per-socket units need no edges here —
	// each is owned by exactly one ingress socket, and the bySocket
	// rule below already couples the endpoints sharing a socket.
	if spec.IOMMU != nil && !spec.perSocketIOMMU() {
		for i := 1; i < n; i++ {
			u.union(0, i)
		}
	}
	bySwitch := map[int]int{}
	bySocket := map[int]int{}
	byNode := map[int]int{}
	xbusFirst := -1
	couple := func(m map[int]int, key, i int) {
		if first, ok := m[key]; ok {
			u.union(first, i)
		} else {
			m[key] = i
		}
	}
	for i, ep := range spec.Endpoints {
		if ep.Switch != DirectAttach {
			couple(bySwitch, ep.Switch, i)
		}
		sock := spec.socketOf(i)
		couple(bySocket, sock, i)
		couple(byNode, ep.BufferNode, i)
		if spec.Interconnect != nil && ep.BufferNode != spec.Sockets[sock].Node {
			if xbusFirst >= 0 {
				u.union(xbusFirst, i)
			} else {
				xbusFirst = i
			}
		}
	}

	var islands [][]int
	idx := map[int]int{}
	for i := 0; i < n; i++ {
		r := u.find(i)
		d, ok := idx[r]
		if !ok {
			d = len(islands)
			idx[r] = d
			islands = append(islands, nil)
		}
		islands[d] = append(islands[d], i)
	}
	return islands
}

// islandSeed derives island d's jitter-stream seed from the resolved
// spec seed: a splitmix64-style mix whose increment constant differs
// from runner.Seed's, so jitter streams never correlate with the
// per-endpoint workload streams. Only islands beyond the first use a
// derived stream — island 0's sockets keep the kernel stream, which
// preserves every degenerate and single-island build (and all goldens
// pinned before partitioned builds existed) byte for byte.
func islandSeed(seed int64, d int) int64 {
	z := uint64(seed) + uint64(d)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0xD1B54A32D192ED03
	}
	return int64(z)
}

// socketRNGs maps each socket to the jitter stream its island owns:
// nil (the kernel stream) for island 0 and for sockets no endpoint
// ingresses at, a stream derived from islandSeed otherwise — one
// shared stream per island, however many sockets it spans. Serial and
// partitioned builds use the same assignment, which is what keeps them
// byte-identical on jittery multi-island specs.
func socketRNGs(spec Spec, seed int64, islands [][]int) []*rand.Rand {
	rngs := make([]*rand.Rand, len(spec.Sockets))
	if len(islands) < 2 {
		return rngs
	}
	epIsle := make([]int, len(spec.Endpoints))
	for d, isl := range islands {
		for _, i := range isl {
			epIsle[i] = d
		}
	}
	perIsle := make([]*rand.Rand, len(islands))
	for i := range spec.Endpoints {
		s := spec.socketOf(i)
		d := epIsle[i]
		if d == 0 || spec.Sockets[s].Jitter == nil {
			continue
		}
		if perIsle[d] == nil {
			perIsle[d] = rand.New(rand.NewSource(islandSeed(seed, d)))
		}
		rngs[s] = perIsle[d]
	}
	return rngs
}
