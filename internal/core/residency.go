package core

import (
	"dmacp/internal/cache"
	"dmacp/internal/mesh"
)

// LineIDs interns cache lines to dense IDs, numbered from 0 in the order
// the lines were first interned. Only the emitters intern (the
// partitioner's locateNest and baseline.Place); the IDs then travel with
// the schedule (Fetch.LineID, Task.ResultID), so nothing downstream hashes
// a line again. The zero value is ready to use.
type LineIDs struct {
	ids map[uint64]int32
}

// Intern returns line's ID, assigning the next one on first sight.
func (l *LineIDs) Intern(line uint64) int32 {
	id, ok := l.ids[line]
	if !ok {
		if l.ids == nil {
			l.ids = make(map[uint64]int32)
		}
		id = int32(len(l.ids))
		l.ids[line] = id
	}
	return id
}

// Len returns the number of lines interned: the bound on their IDs.
func (l *LineIDs) Len() int { return len(l.ids) }

// Holder is one access of a line: the task that made it and its node.
type Holder struct {
	Node mesh.NodeID
	Task int32
}

// Residency is the write-invalidate copy model shared by the emitters and
// the replays; the verifier keeps its own copy, as the oracle. Per line ID
// it holds the last store and the latest read on each node since, sorted
// by node. A read leaves a copy in its node's L1 and a store invalidates
// every other copy, so a line's holders are its writer's node and its
// readers' nodes. Earlier same-node reads are ordered by per-node program
// order, so one reader per node suffices. IDs are the schedule's
// (Fetch.LineID, Task.ResultID) or an emitter's LineIDs. Every method but
// Writer grows the tables to its ID, and Reserve sizes them up front; the
// zero value is ready to use.
type Residency struct {
	writers []lastStore
	readers [][]Holder
	holders []mesh.NodeID // the result of Holders and Write, reused
	slab    []Holder      // backs new reader lists, two entries each
}

// lastStore is a line's last write, packed: its node, and its task's ID
// plus one, so the zero value means no store yet.
type lastStore struct{ node, task1 int32 }

// Reserve sizes the tables for the line IDs below lines, such as a
// schedule's Lines.
func (r *Residency) Reserve(lines int) { r.grow(int32(lines) - 1) }

// grow extends the tables to cover id.
func (r *Residency) grow(id int32) {
	if n := int(id) + 1 - len(r.writers); n > 0 {
		r.writers = append(r.writers, make([]lastStore, n)...)
		r.readers = append(r.readers, make([][]Holder, n)...)
	}
}

// Read records task, on node, as node's latest reader of line id.
func (r *Residency) Read(id int32, node mesh.NodeID, task int) {
	r.grow(id)
	rs := r.readers[id]
	i := 0
	for i < len(rs) && rs[i].Node < node {
		i++
	}
	if i == len(rs) || rs[i].Node != node {
		if rs == nil { // a line's first reader list comes from the slab
			if len(r.slab) < 2 {
				r.slab = make([]Holder, max(64, 2*len(r.writers)))
			}
			rs, r.slab = r.slab[:0:2], r.slab[2:]
		}
		rs = append(rs, Holder{})
		copy(rs[i+1:], rs[i:])
		r.readers[id] = rs
	}
	rs[i] = Holder{Node: node, Task: int32(task)}
}

// Writer returns line id's last store, or false when it has none.
func (r *Residency) Writer(id int32) (Holder, bool) {
	if int(id) >= len(r.writers) || r.writers[id].task1 == 0 {
		return Holder{}, false
	}
	return Holder{Node: mesh.NodeID(r.writers[id].node), Task: r.writers[id].task1 - 1}, true
}

// Readers returns line id's latest reader per node since its last store,
// in ascending node order, valid until the line's next access.
func (r *Residency) Readers(id int32) []Holder {
	r.grow(id)
	return r.readers[id]
}

// Holders returns each node but except holding a copy of line id: its
// writer's node, then its readers' — each once. The slice is valid until
// the next Holders or Write.
func (r *Residency) Holders(id int32, except mesh.NodeID) []mesh.NodeID {
	w, written := r.Writer(id)
	h := r.holders[:0]
	if written && w.Node != except {
		h = append(h, w.Node)
	}
	for _, rd := range r.Readers(id) {
		if rd.Node != except && (!written || rd.Node != w.Node) {
			h = append(h, rd.Node)
		}
	}
	r.holders = h
	return h
}

// Write records task's store to line id from node. It returns the copies
// the store invalidates: Holders(id, node) as they were before it.
func (r *Residency) Write(id int32, node mesh.NodeID, task int) []mesh.NodeID {
	h := r.Holders(id, node)
	r.readers[id] = r.readers[id][:0]
	r.writers[id] = lastStore{int32(node), int32(task) + 1}
	return h
}

// ShadowL1s returns the L1 models of the mesh's nodes, one cache per node,
// sized by the options: the copies an emitter's residency holders stand for.
func ShadowL1s(o *Options) *cache.Cache {
	return cache.MustNew(cache.Config{SizeBytes: o.L1Bytes, LineBytes: o.Layout.LineBytes, Ways: l1Ways}, o.Mesh.Nodes())
}
