package iommu

import (
	"errors"
	"math/rand"
	"testing"

	"pciebench/internal/sim"
)

// refIOMMU is the IOMMU at its plainest: mappings in a slice found by
// linear scan, the IO-TLB as a slice ordered most recently used first,
// and the walkers as a scan for the earliest horizon. It is the oracle
// TestTranslateMatchesReference holds IOMMU to, op for op.
type refIOMMU struct {
	k       *sim.Kernel
	cfg     Config
	maps    []mapping
	tlb     []refEntry // most recently used first
	walkers []sim.Time

	hits, misses, faults uint64
}

type refEntry struct{ base, size, pa uint64 }

// find returns the index of the mapping covering iova, or -1.
func (r *refIOMMU) find(iova uint64) int {
	for i, m := range r.maps {
		if iova >= m.iova && iova < m.iova+m.size {
			return i
		}
	}
	return -1
}

func (r *refIOMMU) overlaps(iova, size uint64) bool {
	for _, m := range r.maps {
		if iova < m.iova+m.size && m.iova < iova+size {
			return true
		}
	}
	return false
}

func (r *refIOMMU) unmap(iova uint64) bool {
	for i, m := range r.maps {
		if m.iova == iova {
			r.maps = append(r.maps[:i], r.maps[i+1:]...)
			r.tlb = r.tlb[:0]
			return true
		}
	}
	return false
}

func (r *refIOMMU) translate(at sim.Time, iova uint64) (Result, bool) {
	i := r.find(iova)
	if i < 0 {
		r.faults++
		return Result{}, false
	}
	m := r.maps[i]
	base := iova / m.pageSize * m.pageSize
	pa := m.pa + (iova - m.iova)
	for j, e := range r.tlb {
		if e.base == base && e.size == m.pageSize {
			copy(r.tlb[1:j+1], r.tlb[:j])
			r.tlb[0] = e
			r.hits++
			return Result{PA: pa, Ready: at + r.cfg.HitLatency, Hit: true}, true
		}
	}
	r.misses++
	w := 0
	for j := range r.walkers {
		if r.walkers[j] < r.walkers[w] {
			w = j
		}
	}
	r.walkers[w] = max(at, r.k.Now(), r.walkers[w]) + r.cfg.WalkLatency
	if len(r.tlb) == r.cfg.TLBEntries {
		r.tlb = r.tlb[:len(r.tlb)-1]
	}
	r.tlb = append([]refEntry{{base, m.pageSize, m.pa + (base - m.iova)}}, r.tlb...)
	return Result{PA: pa, Ready: r.walkers[w]}, true
}

// TestTranslateMatchesReference runs random streams of Map, Unmap,
// InvalidateAll, clock advances and Translate through IOMMU and the
// oracle, with 4 KB and 2 MB pages, 1–80 IO-TLB entries and 1–4
// walkers, and compares every result, counter and the TLB occupancy
// after every op. The streams aim at the hinted lookup: translations
// just below and above the mapping found last, a Map below it (which
// shifts its index in the sorted table) and an Unmap of it.
func TestTranslateMatchesReference(t *testing.T) {
	for stream := range 300 {
		rng := rand.New(rand.NewSource(int64(stream)))
		k := sim.New(1)
		cfg := Config{
			TLBEntries:  1 + rng.Intn(80),
			WalkLatency: 330 * sim.Nanosecond,
			Walkers:     1 + rng.Intn(4),
			HitLatency:  sim.Time(rng.Intn(2)) * 5 * sim.Nanosecond,
		}
		u := New(k, cfg)
		ref := &refIOMMU{k: k, cfg: cfg, walkers: make([]sim.Time, cfg.Walkers)}
		last := -1 // index in ref.maps of the mapping found last

		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("stream %d op %d: "+format, append([]any{stream, op}, args...)...)
		}
		mapAt := func(op int, iova uint64, pages int, pageSize uint64) {
			size := uint64(pages) * pageSize
			pa := uint64(1+rng.Intn(1<<12)) << 21
			err := u.Map(iova, pa, int(size), int(pageSize))
			if overlap := ref.overlaps(iova, size); overlap != errors.Is(err, ErrOverlap) || !overlap && err != nil {
				fail(op, "Map(%#x, %d) = %v, reference overlap %v", iova, size, err, overlap)
			}
			if err == nil {
				ref.maps = append(ref.maps, mapping{iova: iova, pa: pa, size: size, pageSize: pageSize})
			}
		}
		translate := func(op int, iova uint64) {
			at := k.Now() + sim.Time(rng.Intn(1000)-200)*sim.Nanosecond
			got, err := u.Translate(at, iova)
			want, ok := ref.translate(at, iova)
			if (err == nil) != ok || got != want {
				fail(op, "Translate(%v, %#x) = %+v, %v; reference %+v, mapped %v", at, iova, got, err, want, ok)
			}
			if ok {
				last = ref.find(iova)
			}
		}
		for op := range 400 {
			switch c := rng.Intn(100); {
			case c < 10: // a random region in a 64 MB span
				pageSize := uint64(Page4K)
				if rng.Intn(3) == 0 {
					pageSize = Page2M
				}
				mapAt(op, uint64(rng.Intn(64<<20))/pageSize*pageSize, 1+rng.Intn(8), pageSize)
			case c < 13 && last >= 0: // a page below the hinted mapping
				if m := ref.maps[last]; m.iova >= 2*m.pageSize {
					mapAt(op, m.iova-2*m.pageSize, 1, m.pageSize)
				}
			case c < 16 && len(ref.maps) > 0: // the hinted mapping half the time
				i := rng.Intn(len(ref.maps))
				if last >= 0 && rng.Intn(2) == 0 {
					i = last
				}
				start := ref.maps[i].iova
				if rng.Intn(8) == 0 {
					start += Page4K // not a mapping's start: both refuse
				}
				if err, ok := u.Unmap(start), ref.unmap(start); (err == nil) != ok {
					fail(op, "Unmap(%#x) = %v, reference unmapped %v", start, err, ok)
				}
				last = -1
				translate(op, start)
			case c < 18:
				u.InvalidateAll()
				ref.tlb = ref.tlb[:0]
			case c < 22:
				k.RunUntil(k.Now() + sim.Time(rng.Intn(2000))*sim.Nanosecond)
			case c < 40 && last >= 0: // just below or just above the hinted mapping
				m := ref.maps[last]
				iova := m.iova + m.size + uint64(rng.Intn(2))*Page4K
				if rng.Intn(2) == 0 {
					iova = m.iova - 1 - uint64(rng.Intn(2))*Page4K
				}
				translate(op, iova)
			case c < 90 && len(ref.maps) > 0:
				m := ref.maps[rng.Intn(len(ref.maps))]
				translate(op, m.iova+uint64(rng.Int63n(int64(m.size))))
			default: // anywhere in the span, mapped or not
				translate(op, uint64(rng.Intn(64<<20)))
			}
			if u.Hits != ref.hits || u.Misses != ref.misses || u.Faults != ref.faults || u.TLBOccupancy() != len(ref.tlb) {
				fail(op, "hits/misses/faults/occupancy %d/%d/%d/%d, reference %d/%d/%d/%d",
					u.Hits, u.Misses, u.Faults, u.TLBOccupancy(), ref.hits, ref.misses, ref.faults, len(ref.tlb))
			}
		}
	}
}
