// Package hostif is the "kernel driver" substrate of pciebench: the
// host-side code that allocates DMA-able memory, hands bus addresses to
// the device, programs the IOMMU, and exposes the cache-warming controls
// the benchmarks rely on (paper §5.3).
//
// Two allocation strategies mirror the paper's two drivers:
//
//   - Chunked4M: the NFP driver allocates the host buffer in 4 MB
//     physically contiguous chunks, the largest allocation most Linux
//     kernels grant; chunks are not contiguous with one another.
//   - Huge2M / Huge1G: the NetFPGA driver allocates from hugetlbfs,
//     giving large physically contiguous regions.
//
// When an IOMMU is attached, the buffer is mapped into a contiguous DMA
// (IOVA) range, with a configurable page granularity: superpage mappings
// follow the allocation's natural size, while the paper's `sp_off`
// experiments force 4 KB pages.
package hostif

import (
	"errors"
	"fmt"

	"pciebench/internal/iommu"
	"pciebench/internal/mem"
)

// AllocMode selects the buffer allocation strategy.
type AllocMode int

// Allocation strategies.
const (
	Chunked4M AllocMode = iota // 4MB physically contiguous chunks (NFP driver)
	Huge2M                     // hugetlbfs 2MB pages (NetFPGA driver option)
	Huge1G                     // hugetlbfs 1GB pages (NetFPGA driver default)
)

// String names the mode.
func (m AllocMode) String() string {
	switch m {
	case Chunked4M:
		return "chunked-4M"
	case Huge2M:
		return "huge-2M"
	case Huge1G:
		return "huge-1G"
	}
	return fmt.Sprintf("AllocMode(%d)", int(m))
}

// chunkSize returns the physical contiguity granule of the mode.
func (m AllocMode) chunkSize() int {
	switch m {
	case Huge2M:
		return 2 << 20
	case Huge1G:
		return 1 << 30
	default:
		return 4 << 20
	}
}

// naturalPage returns the largest IOMMU page usable with the mode.
func (m AllocMode) naturalPage() int {
	switch m {
	case Huge2M:
		return iommu.Page2M
	case Huge1G:
		return iommu.Page1G
	default:
		// 4MB chunks are 4KB-page-backed kernel memory; without
		// hugetlbfs the IOMMU maps them with 4KB (or at best 2MB)
		// entries. Use 2MB when superpages are requested.
		return iommu.Page2M
	}
}

// Allocation errors.
var (
	ErrBadSize = errors.New("hostif: size must be positive")
	ErrBadNode = errors.New("hostif: no such NUMA node")
)

const nodePABase = uint64(16) << 30 // 16GB of PA space per node

// Host owns the physical address map and performs DMA buffer setup. It
// plays the role of the paper's kernel drivers and the portions of the
// control programs that pick NUMA nodes and warm caches.
type Host struct {
	ms       *mem.System
	mmu      *iommu.IOMMU   // default translation unit; nil when disabled
	units    []*iommu.IOMMU // every attached unit (Thrash invalidates all)
	nextPA   []uint64
	nextIOVA uint64 // shared across units: DMA layout is scope-independent
}

// New builds a Host over a memory system, optionally with an IOMMU in
// the DMA path.
func New(ms *mem.System, mmu *iommu.IOMMU) *Host {
	nodes := ms.Config().Nodes
	h := &Host{ms: ms, mmu: mmu, nextPA: make([]uint64, nodes), nextIOVA: 1 << 40}
	if mmu != nil {
		h.units = append(h.units, mmu)
	}
	for n := range h.nextPA {
		h.nextPA[n] = uint64(n+1) * nodePABase
	}
	return h
}

// MemSystem returns the attached memory system.
func (h *Host) MemSystem() *mem.System { return h.ms }

// IOMMU returns the default attached IOMMU, or nil.
func (h *Host) IOMMU() *iommu.IOMMU { return h.mmu }

// AttachIOMMU registers an additional translation unit (a per-socket
// DRHD) so Thrash invalidates its IO-TLB along with every other unit.
// Buffers map into a specific unit via AllocIn.
func (h *Host) AttachIOMMU(u *iommu.IOMMU) {
	if u != nil {
		h.units = append(h.units, u)
	}
}

// HomeOf returns the NUMA node owning physical address pa.
func (h *Host) HomeOf(pa uint64) int {
	n := int(pa/nodePABase) - 1
	if n < 0 || n >= h.ms.Config().Nodes {
		return 0
	}
	return n
}

// chunk is one physically contiguous piece of a buffer.
type chunk struct {
	dma  uint64 // address the device uses (IOVA with IOMMU, PA without)
	pa   uint64
	size int
}

// Buffer is a host DMA buffer as seen by both sides: the device
// addresses it through DMAAddr, the host warms or thrashes it.
type Buffer struct {
	Size   int
	Node   int
	Mode   AllocMode
	host   *Host
	mmu    *iommu.IOMMU // unit the buffer is mapped into (nil = untranslated)
	chunks []chunk
	warm   []mem.Extent // reused for the physical extents of one warm
}

// Alloc allocates a DMA buffer of size bytes on the given NUMA node,
// mapped through the host's default IOMMU when one is attached.
// mapPage selects the IOMMU mapping granularity: 0 uses the mode's
// natural page size; iommu.Page4K forces 4 KB entries (the paper's
// sp_off); it is ignored when no IOMMU is attached.
func (h *Host) Alloc(size int, node int, mode AllocMode, mapPage int) (*Buffer, error) {
	return h.AllocIn(h.mmu, size, node, mode, mapPage)
}

// AllocIn is Alloc with an explicit translation unit: per-socket-scoped
// fabrics map each buffer into the unit of the socket whose root ports
// will ingest its DMA. A nil unit allocates untranslated. All units
// draw IOVAs from one shared allocator, so the device-visible address
// layout does not depend on the IOMMU scope.
func (h *Host) AllocIn(unit *iommu.IOMMU, size int, node int, mode AllocMode, mapPage int) (*Buffer, error) {
	if size <= 0 {
		return nil, ErrBadSize
	}
	if node < 0 || node >= len(h.nextPA) {
		return nil, ErrBadNode
	}
	if mapPage == 0 {
		mapPage = mode.naturalPage()
	}
	cs := mode.chunkSize()
	nchunks := (size + cs - 1) / cs
	b := &Buffer{Size: size, Node: node, Mode: mode, host: h, mmu: unit,
		chunks: make([]chunk, 0, nchunks), warm: make([]mem.Extent, 0, nchunks)}

	remaining := size
	for remaining > 0 {
		n := remaining
		if n > cs {
			n = cs
		}
		// Physical allocation: chunk-aligned, with a guard gap after
		// each chunk so consecutive chunks are not physically
		// contiguous (as with real page allocators).
		pa := alignUp(h.nextPA[node], uint64(cs))
		h.nextPA[node] = pa + uint64(cs) + uint64(cs) // gap of one chunk

		var dma uint64
		if unit != nil {
			// Map into the contiguous IOVA range.
			iova := alignUp(h.nextIOVA, uint64(mapPage))
			mapped := alignUpInt(n, mapPage)
			if err := unit.Map(iova, pa, mapped, mapPage); err != nil {
				return nil, fmt.Errorf("hostif: iommu map: %w", err)
			}
			h.nextIOVA = iova + uint64(mapped)
			dma = iova
		} else {
			dma = pa
		}
		b.chunks = append(b.chunks, chunk{dma: dma, pa: pa, size: n})
		remaining -= n
	}
	return b, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) / a * a }

func alignUpInt(v, a int) int { return (v + a - 1) / a * a }

// Free releases the buffer's IOMMU mappings (physical memory is a
// simulation abstraction and needs no release).
func (b *Buffer) Free() error {
	if b.mmu == nil {
		return nil
	}
	for _, c := range b.chunks {
		if err := b.mmu.Unmap(c.dma); err != nil {
			return err
		}
	}
	b.chunks = nil
	return nil
}

// DMAAddr returns the device-visible address of byte offset off.
func (b *Buffer) DMAAddr(off int) uint64 {
	for _, c := range b.chunks {
		if off < c.size {
			return c.dma + uint64(off)
		}
		off -= c.size
	}
	panic(fmt.Sprintf("hostif: offset %d beyond buffer of %d bytes", off, b.Size))
}

// PhysAddr returns the physical address of byte offset off.
func (b *Buffer) PhysAddr(off int) uint64 {
	for _, c := range b.chunks {
		if off < c.size {
			return c.pa + uint64(off)
		}
		off -= c.size
	}
	panic(fmt.Sprintf("hostif: offset %d beyond buffer of %d bytes", off, b.Size))
}

// Chunks returns the number of physically contiguous pieces.
func (b *Buffer) Chunks() int { return len(b.chunks) }

// WarmHost writes [off, off+size) from the CPU on the buffer's node,
// pulling it into that node's LLC (paper §4 "host warm").
func (b *Buffer) WarmHost(off, size int) {
	b.host.ms.WarmHost(b.Node, b.extents(off, size))
}

// WarmDevice loads [off, off+size) through the DDIO device-write path
// (paper §4 "device warm").
func (b *Buffer) WarmDevice(off, size int) {
	b.host.ms.WarmDevice(b.Node, b.extents(off, size))
}

// extents returns the physically contiguous pieces of [off, off+size)
// in ascending offset order. They are handed to the memory system in
// one call because a warm's evictions happen across chunks; the slice
// is reused by the next call.
func (b *Buffer) extents(off, size int) []mem.Extent {
	ext := b.warm[:0]
	for _, c := range b.chunks {
		if size <= 0 {
			break
		}
		if off >= c.size {
			off -= c.size
			continue
		}
		n := min(c.size-off, size)
		ext = append(ext, mem.Extent{Addr: c.pa + uint64(off), Size: n})
		size -= n
		off = 0
	}
	b.warm = ext
	return ext
}

// Thrash resets all LLCs to a cold state, as the control programs do
// before each benchmark.
func (h *Host) Thrash() {
	h.ms.Thrash()
	for _, u := range h.units {
		u.InvalidateAll()
	}
}
