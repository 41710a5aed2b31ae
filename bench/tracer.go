package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or a group of
// them. Parent is an index into the same slice (-1 for an op's root);
// spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Cat    string `json:"cat"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The serve workload
// records from two client goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, cat string, op, parent int, at time.Time) int {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Cat: cat, Op: op, Parent: parent, Start: int64(at.Sub(t.epoch))})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i and returns its parent.
func (t *tracer) end(i int, at time.Time) int {
	t.mu.Lock()
	t.spans[i].End = int64(at.Sub(t.epoch))
	parent := t.spans[i].Parent
	t.mu.Unlock()
	return parent
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count
// once; a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// selfByCat sums self time per span category.
func selfByCat(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Cat] += d
	}
	return out
}
