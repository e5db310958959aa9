package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dmacp/internal/mesh"
)

// TestResidencyReadKeepsNodeOrder drives reads of three lines from random
// nodes: each reader list must hold every node once, in ascending order,
// with its latest task, and a re-read must update its entry in place.
func TestResidencyReadKeepsNodeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var r Residency
		want := []map[mesh.NodeID]int32{{}, {}, {}}
		for task := 0; task < 40; task++ {
			id, node := int32(rng.Intn(len(want))), mesh.NodeID(rng.Intn(12))
			_, reread := want[id][node]
			before := len(r.Readers(id))
			r.Read(id, node, task)
			if after := len(r.Readers(id)); reread && after != before {
				t.Fatalf("trial %d: re-read by node %d grew line %d's list %d -> %d", trial, node, id, before, after)
			}
			want[id][node] = int32(task)
		}
		for id := range want {
			got := map[mesh.NodeID]int32{}
			last := mesh.NodeID(-1)
			for _, rd := range r.Readers(int32(id)) {
				if rd.Node <= last {
					t.Fatalf("trial %d line %d: node %d follows node %d", trial, id, rd.Node, last)
				}
				last = rd.Node
				got[last] = rd.Task
			}
			if !maps.Equal(got, want[id]) {
				t.Fatalf("trial %d line %d: readers %v, want %v", trial, id, got, want[id])
			}
		}
	}
}

// TestResidencyWrite checks what a store reports and leaves behind: the
// previous writer's node when it differs from the new one, the readers'
// nodes except the writer's, no node twice, and no readers after it.
func TestResidencyWrite(t *testing.T) {
	var r Residency
	if h := r.Write(0, 4, 10); len(h) != 0 {
		t.Fatalf("first store of a line reported holders %v", h)
	}
	r.Read(0, 2, 11)
	r.Read(0, 4, 12) // the writer's node reads its own line
	r.Read(0, 7, 13)
	if h := r.Holders(0, mesh.InvalidNode); !slices.Equal(h, []mesh.NodeID{4, 2, 7}) {
		t.Fatalf("holders %v, want [4 2 7]: the writer's node once, then the readers'", h)
	}
	if h := r.Write(0, 7, 14); !slices.Equal(h, []mesh.NodeID{4, 2}) {
		t.Fatalf("store from node 7 invalidates %v, want [4 2]", h)
	}
	if w, ok := r.Writer(0); !ok || w != (Holder{Node: 7, Task: 14}) {
		t.Fatalf("writer %v %v, want node 7 task 14", w, ok)
	}
	if rs := r.Readers(0); len(rs) != 0 {
		t.Fatalf("readers %v survived the store", rs)
	}
	if h := r.Write(0, 7, 15); len(h) != 0 {
		t.Fatalf("same-node rewrite invalidates %v, want none", h)
	}
	r.Read(0, 1, 16)
	if h := r.Write(0, 1, 17); !slices.Equal(h, []mesh.NodeID{7}) {
		t.Fatalf("store from the only reader's node invalidates %v, want the previous writer's [7]", h)
	}
}

// TestResidencyGrows checks that the zero value answers for IDs it has not
// seen and that a Read or Write past the tables' length grows them.
func TestResidencyGrows(t *testing.T) {
	var r Residency
	if _, ok := r.Writer(9); ok {
		t.Fatal("unseen line has a writer")
	}
	if rs := r.Readers(20); len(rs) != 0 {
		t.Fatalf("unseen line has readers %v", rs)
	}
	r.Read(50, 3, 1)
	r.Write(70, 5, 2)
	if n := len(r.writers); n != 71 || len(r.readers) != 71 {
		t.Fatalf("tables hold %d writers and %d reader lists, want 71", n, len(r.readers))
	}
	if rs := r.Readers(50); !slices.Equal(rs, []Holder{{Node: 3, Task: 1}}) {
		t.Fatalf("line 50 readers %v", rs)
	}
	if w, ok := r.Writer(70); !ok || w.Node != 5 {
		t.Fatalf("line 70 writer %v %v", w, ok)
	}
	if _, ok := r.Writer(50); ok {
		t.Fatal("growing to line 70 gave line 50 a writer")
	}
}

// TestResidencyMatchesCopySets replays random reads and stores against the
// plain per-line copy set they model: a read adds its node, a store leaves
// only its own. Holders must always be that set, and a store must report
// the set minus its own node.
func TestResidencyMatchesCopySets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r Residency
	copies := make([]map[mesh.NodeID]bool, 8)
	for i := range copies {
		copies[i] = map[mesh.NodeID]bool{}
	}
	sorted := func(h []mesh.NodeID) []mesh.NodeID {
		h = slices.Clone(h)
		slices.Sort(h)
		return h
	}
	for task := 0; task < 5000; task++ {
		id, node := int32(rng.Intn(len(copies))), mesh.NodeID(rng.Intn(6))
		if rng.Intn(3) == 0 {
			want := []mesh.NodeID{}
			for n := range copies[id] {
				if n != node {
					want = append(want, n)
				}
			}
			if got := sorted(r.Write(id, node, task)); !slices.Equal(got, sorted(want)) {
				t.Fatalf("task %d: store to line %d from node %d invalidates %v, want %v", task, id, node, got, sorted(want))
			}
			copies[id] = map[mesh.NodeID]bool{node: true}
		} else {
			r.Read(id, node, task)
			copies[id][node] = true
		}
		var want []mesh.NodeID
		for n := range copies[id] {
			want = append(want, n)
		}
		if got := r.Holders(id, mesh.InvalidNode); !slices.Equal(sorted(got), sorted(want)) {
			t.Fatalf("task %d: line %d holders %v, want %v", task, id, got, sorted(want))
		}
	}
}

// TestLineIDsDenseFirstTouch checks the interner numbers lines 0, 1, 2, ...
// in first-touch order and hands a repeated line its first ID.
func TestLineIDsDenseFirstTouch(t *testing.T) {
	var l LineIDs
	for i, line := range []uint64{640, 64, 640, 128, 64} {
		want := []int32{0, 1, 0, 2, 1}[i]
		if id := l.Intern(line); id != want {
			t.Fatalf("intern #%d (line %d) = %d, want %d", i, line, id, want)
		}
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("%d lines interned, want 3", got)
	}
}
