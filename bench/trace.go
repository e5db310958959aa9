package main

import (
	"runtime/metrics"
	"time"
)

// span is one traced interval. Spans nest: a layer call's span is a child of
// the op (or setup phase, or probe) that made it.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent indexes the enclosing span; -1 marks a root.
	Parent int `json:"parent"`
	// Op is the loop iteration the span belongs to; -1 outside the loop.
	Op int `json:"op"`
	// Alloc is the heap bytes allocated while the span was open, by any
	// goroutine (the partitioner's window sweep allocates on its workers).
	Alloc uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory. When off, begin and end do nothing, so
// untraced runs pay one branch per layer call.
type tracer struct {
	on     bool
	origin time.Time
	op     int
	open   []int
	spans  []span
	sample []metrics.Sample
}

func newTracer(origin time.Time) *tracer {
	return &tracer{
		origin: origin,
		op:     -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Alloc: t.allocBytes()})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.origin))
	return id
}

// end closes the span begin returned. Spans close in reverse order of
// opening, which the single client goroutine guarantees.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	s := &t.spans[id]
	s.End = now
	s.Alloc = t.allocBytes() - s.Alloc
	t.open = t.open[:len(t.open)-1]
}

// traced runs f inside a span named name.
func traced[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	id := t.begin(name)
	defer t.end(id)
	return f()
}

// layerCost is what the spans of one name cost in the traced loop.
type layerCost struct {
	calls int
	self  time.Duration
	total time.Duration
	alloc uint64
}

// spanSummary aggregates the spans recorded from index from on.
type spanSummary struct {
	// layers, roots and probes hold the cost per span name of, in turn: the
	// spans under op and check roots (the work the untraced loop also
	// does), the roots themselves, and the spans under probe roots.
	layers, roots, probes map[string]*layerCost
	// ops counts op roots; minCover is the smallest share of an op root's
	// duration that its child spans cover.
	ops      int
	minCover float64
}

func summarize(spans []span, from int) spanSummary {
	childDur := make([]time.Duration, len(spans))
	childAlloc := make([]uint64, len(spans))
	root := make([]int, len(spans))
	for i := from; i < len(spans); i++ {
		s := spans[i]
		root[i] = i
		if s.Parent >= from {
			root[i] = root[s.Parent]
			childDur[s.Parent] += time.Duration(s.End - s.Start)
			childAlloc[s.Parent] += s.Alloc
		}
	}
	sum := spanSummary{
		layers:   map[string]*layerCost{},
		roots:    map[string]*layerCost{},
		probes:   map[string]*layerCost{},
		minCover: 1,
	}
	add := func(m map[string]*layerCost, i int) {
		c := m[spans[i].Name]
		if c == nil {
			c = &layerCost{}
			m[spans[i].Name] = c
		}
		dur := time.Duration(spans[i].End - spans[i].Start)
		c.calls++
		c.total += dur
		c.self += dur - childDur[i]
		c.alloc += spans[i].Alloc - min(childAlloc[i], spans[i].Alloc)
	}
	for i := from; i < len(spans); i++ {
		r := spans[root[i]].Name
		switch {
		case root[i] == i:
			add(sum.roots, i)
			if r == "op" {
				sum.ops++
				if dur := spans[i].End - spans[i].Start; dur > 0 {
					sum.minCover = min(sum.minCover, float64(childDur[i])/float64(dur))
				}
			}
		case r == "op" || r == "check":
			add(sum.layers, i)
		case r == "probe":
			add(sum.probes, i)
		}
	}
	return sum
}

// cost returns the named entry, or a zero cost when no such span ran.
func cost(m map[string]*layerCost, name string) layerCost {
	if c := m[name]; c != nil {
		return *c
	}
	return layerCost{}
}
