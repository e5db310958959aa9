package assign

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bruteForce enumerates every feasible assignment of n tasks to slots under
// the capacities and returns the minimum total cost. Exponential; test
// instances stay tiny.
func bruteForce(n int, cap []int, c [][]int64) (int64, bool) {
	used := make([]int, len(cap))
	const inf = int64(1) << 62
	var rec func(i int) int64
	rec = func(i int) int64 {
		if i == n {
			return 0
		}
		best := inf
		for j := range cap {
			if used[j] >= cap[j] {
				continue
			}
			used[j]++
			if rest := rec(i + 1); rest < inf && c[i][j]+rest < best {
				best = c[i][j] + rest
			}
			used[j]--
		}
		return best
	}
	v := rec(0)
	return v, v < inf
}

func costFn(c [][]int64) func(int, int) int64 {
	return func(i, j int) int64 { return c[i][j] }
}

func TestMinCostMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(5)
		cap := make([]int, m)
		total := 0
		for j := range cap {
			cap[j] = rng.Intn(4)
			total += cap[j]
		}
		c := make([][]int64, n)
		for i := range c {
			c[i] = make([]int64, m)
			for j := range c[i] {
				c[i][j] = int64(rng.Intn(50))
			}
		}
		want, feasible := bruteForce(n, cap, c)
		got, gotCost, err := MinCost(n, cap, costFn(c))
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: infeasible instance returned %v, want ErrInfeasible", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: MinCost: %v", trial, err)
		}
		if gotCost != want {
			t.Fatalf("trial %d: cost %d, brute force says %d (n=%d cap=%v c=%v)", trial, gotCost, want, n, cap, c)
		}
		// The returned assignment must realize the claimed cost and respect
		// capacities.
		usedCheck := make([]int, m)
		var sum int64
		for i, j := range got {
			if j < 0 || j >= m {
				t.Fatalf("trial %d: task %d assigned to invalid slot %d", trial, i, j)
			}
			usedCheck[j]++
			sum += c[i][j]
		}
		if sum != gotCost {
			t.Fatalf("trial %d: assignment sums to %d, reported %d", trial, sum, gotCost)
		}
		for j, u := range usedCheck {
			if u > cap[j] {
				t.Fatalf("trial %d: slot %d holds %d tasks, capacity %d", trial, j, u, cap[j])
			}
		}
	}
}

func TestMinCostDeterministic(t *testing.T) {
	// An all-ties instance: every assignment costs the same, so only the
	// documented tie-breaking decides. Two runs must agree exactly.
	n := 6
	cap := []int{2, 2, 2}
	flat := func(i, j int) int64 { return 5 }
	a, _, err := MinCost(n, cap, flat)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := MinCost(n, cap, flat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic assignment: %v vs %v", a, b)
		}
	}
}

func TestMinCostBeatsGreedyOnOrderingTrap(t *testing.T) {
	// The classic greedy failure: task 0 grabs the shared cheap slot, forcing
	// task 1 onto an expensive one. Batched assignment swaps them.
	//        slot0 slot1
	// task0    1    2
	// task1    1   10
	c := [][]int64{{1, 2}, {1, 10}}
	cap := []int{1, 1}
	got, cost, err := MinCost(2, cap, costFn(c))
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3 {
		t.Fatalf("cost = %d, want 3 (greedy ID order pays 1+10=11)", cost)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("assignment = %v, want [1 0]", got)
	}
}

func TestMinCostEdgeCases(t *testing.T) {
	if got, cost, err := MinCost(0, []int{1}, nil); err != nil || cost != 0 || got != nil {
		t.Fatalf("zero tasks: got %v cost %d err %v", got, cost, err)
	}
	if _, _, err := MinCost(1, nil, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero slots: err = %v, want ErrInfeasible", err)
	}
	if _, _, err := MinCost(3, []int{1, 1}, func(i, j int) int64 { return 0 }); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("capacity short: err = %v, want ErrInfeasible", err)
	}
	if _, _, err := MinCost(1, []int{1}, func(i, j int) int64 { return -1 }); err == nil {
		t.Fatal("negative cost accepted")
	}
}

// TestMinCostSingleSlot pins the degenerate single-node mesh: one surviving
// slot absorbs every task while its capacity holds (there is nothing to
// optimize — the summed column cost is the answer) and turns infeasible the
// moment the task count exceeds it.
func TestMinCostSingleSlot(t *testing.T) {
	cap := []int{3}
	got, cost, err := MinCost(3, cap, func(i, j int) int64 { return int64(i + 1) })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s != 0 {
			t.Fatalf("task %d assigned to slot %d on a single-slot instance", i, s)
		}
	}
	if cost != 6 {
		t.Fatalf("cost = %d, want 1+2+3 = 6", cost)
	}
	if _, _, err := MinCost(4, cap, func(i, j int) int64 { return 1 }); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("over-capacity single slot: err = %v, want ErrInfeasible", err)
	}
}

// TestMinCostTieBreakUnderPermutedInput pins the determinism contract the
// repair path relies on: tie-breaking is a pure function of task and slot
// indices, so relabeling the tasks relabels the assignment and changes
// nothing else — total cost and per-slot load are invariant, and any task
// with a unique cost row keeps its slot through the relabeling.
func TestMinCostTieBreakUnderPermutedInput(t *testing.T) {
	// Rows 0 and 1 are identical (a genuine tie); rows 2 and 3 are unique.
	c := [][]int64{
		{1, 2, 4},
		{1, 2, 4},
		{3, 1, 2},
		{2, 5, 9},
	}
	cap := []int{2, 1, 1}
	base, baseCost, err := MinCost(len(c), cap, costFn(c))
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := MinCost(len(c), cap, costFn(c))
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("repeated identical input diverged: %v vs %v", base, again)
		}
	}

	unique := map[int]bool{2: true, 3: true}
	for _, p := range [][]int{{1, 0, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		pc := make([][]int64, len(p))
		for i, src := range p {
			pc[i] = c[src]
		}
		got, cost, err := MinCost(len(pc), cap, costFn(pc))
		if err != nil {
			t.Fatal(err)
		}
		if cost != baseCost {
			t.Fatalf("perm %v: cost %d != base %d", p, cost, baseCost)
		}
		load := make([]int, len(cap))
		baseLoad := make([]int, len(cap))
		for i := range got {
			load[got[i]]++
			baseLoad[base[i]]++
		}
		for j := range load {
			if load[j] != baseLoad[j] {
				t.Fatalf("perm %v: slot load %v != base load %v", p, load, baseLoad)
			}
		}
		for i, src := range p {
			if unique[src] && got[i] != base[src] {
				t.Fatalf("perm %v: unique task %d moved from slot %d to %d under relabeling",
					p, src, base[src], got[i])
			}
		}
	}
}

// randomInstance draws one tie-heavy assignment instance: capacities of
// ceil(2n/m) (the repair path's rule) with roughly one slot in five zeroed,
// and costs uniform in [0, span).
func randomInstance(rng *rand.Rand, n, m int, span int64) ([]int, [][]int64) {
	per := (2*n + m - 1) / m
	cap := make([]int, m)
	for j := range cap {
		if rng.Intn(5) > 0 {
			cap[j] = per
		}
	}
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, m)
		for j := range c[i] {
			c[i][j] = rng.Int63n(span)
		}
	}
	return cap, c
}

// sameResult reports whether MinCost and the reference agree on the
// assignment, its cost and the error.
func sameResult(n int, cap []int, c [][]int64) error {
	got, gotCost, gotErr := MinCost(n, cap, costFn(c))
	want, wantCost, wantErr := referenceMinCost(n, cap, costFn(c))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if gotCost != wantCost {
		return fmt.Errorf("cost %d, reference %d", gotCost, wantCost)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("assignment %v, reference %v", got, want)
	}
	return nil
}

// TestMinCostMatchesReference requires MinCost to return exactly what the
// pre-rework solver returns — the same assignment, not just the same
// optimum — over seeded instances with n up to 120 tasks, m up to 36 slots,
// zeroed capacities (some instances infeasible) and narrow cost spans that
// make ties the rule rather than the exception.
func TestMinCostMatchesReference(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	spans := []int64{1, 2, 3, 8, 100}
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(120)
		m := 1 + rng.Intn(36)
		span := spans[trial%len(spans)]
		cap, c := randomInstance(rng, n, m, span)
		if err := sameResult(n, cap, c); err != nil {
			t.Fatalf("trial %d (n=%d m=%d span=%d cap=%v): %v", trial, n, m, span, cap, err)
		}
	}
}

// FuzzMinCost checks MinCost against the reference on instances decoded
// from the fuzz input: n, m, a cost span, then per-slot capacities (0..4)
// and costs read cyclically from the remaining bytes.
func FuzzMinCost(f *testing.F) {
	f.Add([]byte{5, 3, 2, 2, 0, 3, 1, 0, 1, 1, 0})
	f.Add([]byte{40, 12, 100, 4, 4, 0, 4, 4, 4, 4, 0, 4, 4, 4, 4, 7, 9, 3})
	f.Add([]byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, m, span := 1+int(data[0])%48, 1+int(data[1])%16, 1+int64(data[2])
		rest := data[3:]
		next := func(k int) byte {
			if len(rest) == 0 {
				return byte(k)
			}
			return rest[k%len(rest)]
		}
		cap := make([]int, m)
		for j := range cap {
			cap[j] = int(next(j)) % 5
		}
		c := make([][]int64, n)
		for i := range c {
			c[i] = make([]int64, m)
			for j := range c[i] {
				c[i][j] = int64(next(m+i*m+j)) % span
			}
		}
		if err := sameResult(n, cap, c); err != nil {
			t.Fatalf("n=%d m=%d span=%d cap=%v c=%v: %v", n, m, span, cap, c, err)
		}
	})
}

// BenchmarkMinCost solves one batch the size a one-tile fault strands on
// the 6x6 mesh at the benchmark scale: 300 tasks over the 34 surviving
// nodes, each task costing the summed hops from its three fetch sources,
// with the repair path's ceil(2n/m) capacities.
func BenchmarkMinCost(b *testing.B) {
	const n, side = 300, 6
	dead := map[int]bool{14: true, 21: true}
	var cands []int
	for v := 0; v < side*side; v++ {
		if !dead[v] {
			cands = append(cands, v)
		}
	}
	m := len(cands)
	hops := func(a, b int) int64 {
		dx, dy := a%side-b%side, a/side-b/side
		return int64(max(dx, -dx) + max(dy, -dy))
	}
	rng := rand.New(rand.NewSource(1))
	c := make([][]int64, n)
	for i := range c {
		srcs := []int{rng.Intn(side * side), rng.Intn(side * side), rng.Intn(side * side)}
		c[i] = make([]int64, m)
		for j, v := range cands {
			for _, s := range srcs {
				c[i][j] += hops(s, v)
			}
		}
	}
	cap := make([]int, m)
	for j := range cap {
		cap[j] = (2*n + m - 1) / m
	}
	cost := costFn(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinCost(n, cap, cost); err != nil {
			b.Fatal(err)
		}
	}
}
