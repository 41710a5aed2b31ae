package dist

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over worker addresses. Each worker
// owns ringVnodes points, so placement keys spread evenly and a
// membership change only remaps the slices adjacent to the joined or
// departed worker — the property that keeps each worker's plan cache
// warm for the transform shapes it habitually serves.
const ringVnodes = 64

type ringPoint struct {
	h    uint64
	addr string
}

type ring struct {
	points []ringPoint // sorted by h
}

// hash64 is FNV-1a over the string — stable across processes, so a
// coordinator restart lands transforms on the same workers.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

func buildRing(addrs []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(addrs)*ringVnodes)}
	for _, addr := range addrs {
		for i := 0; i < ringVnodes; i++ {
			r.points = append(r.points, ringPoint{h: hash64(fmt.Sprintf("%s#%d", addr, i)), addr: addr})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
	return r
}

// successors walks clockwise from key and appends up to max distinct
// addresses for which keep returns true, in ring order.
func (r *ring) successors(key uint64, max int, keep func(addr string) bool) []string {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= key })
	out := make([]string, 0, max)
	seen := make(map[string]bool, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.addr] {
			continue
		}
		seen[p.addr] = true
		if keep == nil || keep(p.addr) {
			out = append(out, p.addr)
		}
	}
	return out
}
