package dag

import (
	"errors"
	"math/rand"
	"testing"

	"wolves/internal/bitset"
)

// checkAgainstScratch asserts that ic's forward and reverse labels answer
// every pair exactly like a from-scratch closure of its graph.
func checkAgainstScratch(t *testing.T, ic *IncrementalClosure) {
	t.Helper()
	checkAgainstClosure(t, ic, ic.Graph().Reachability())
}

// checkAgainstClosure asserts that ic's labels answer every pair like
// want: Labels().Reaches(u, v) and RevLabels().Reaches(v, u) both equal
// want.Reaches(u, v).
func checkAgainstClosure(t *testing.T, ic *IncrementalClosure, want *Closure) {
	t.Helper()
	n := ic.N()
	if want.N() != n || ic.Labels().N() != n || ic.RevLabels().N() != n {
		t.Fatalf("size mismatch: closure %d, graph %d, labels %d/%d",
			want.N(), n, ic.Labels().N(), ic.RevLabels().N())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			r := want.Reaches(u, v)
			if ic.Labels().Reaches(u, v) != r {
				t.Fatalf("forward labels: Reaches(%d,%d) != %v (n=%d, m=%d)", u, v, r, n, ic.Graph().M())
			}
			if ic.RevLabels().Reaches(v, u) != r {
				t.Fatalf("reverse labels: Reaches(%d,%d) != %v (n=%d, m=%d)", v, u, r, n, ic.Graph().M())
			}
		}
	}
}

// TestIncrementalClosureRandomEquivalence is the satellite property test:
// after each of 1k random edge insertions on random DAGs (sizes 8–128),
// the incrementally maintained labels answer every pair exactly like a
// from-scratch Reachability() rebuild, in both directions. Cycle
// rejections are cross-checked against the scratch closure, and
// occasional Grow calls exercise the node-addition path mid-stream.
func TestIncrementalClosureRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	insertions := 0
	for insertions < 1000 {
		n := 8 + rng.Intn(121) // 8..128
		g := New(n)
		ic, err := NewIncrementalClosure(g)
		if err != nil {
			t.Fatalf("empty graph rejected: %v", err)
		}
		steps := n * 3
		for s := 0; s < steps && insertions < 1000; s++ {
			if rng.Intn(50) == 0 {
				k := 1 + rng.Intn(3)
				ic.Grow(k)
				n = ic.N()
				checkAgainstScratch(t, ic)
				continue
			}
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			wouldCycle := ic.Graph().Reachability().Reaches(v, u)
			dirty := bitset.New(n)
			added, err := ic.AddEdge(u, v, dirty)
			if wouldCycle {
				if !errors.Is(err, ErrCycle) {
					t.Fatalf("edge %d→%d closes a cycle but AddEdge returned %v", u, v, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
			}
			insertions++
			if added {
				// Dirty must cover both endpoints.
				if !dirty.Test(u) || !dirty.Test(v) {
					t.Fatalf("dirty set %v misses an endpoint of %d→%d", dirty, u, v)
				}
			}
			checkAgainstScratch(t, ic)
		}
	}
}

// TestIncrementalClosureDirtySet pins that the dirty set is exactly the
// changed-row nodes plus the edge endpoints: reachable sets of nodes
// outside it are unchanged, those of non-endpoint nodes inside it
// changed (both judged by from-scratch closures around the insertion).
func TestIncrementalClosureDirtySet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 8 + rng.Intn(57)
		g := New(n)
		ic, _ := NewIncrementalClosure(g)
		for s := 0; s < n*2; s++ {
			u, v := rng.Intn(n), rng.Intn(n)
			before := ic.Graph().Reachability()
			if u == v || before.Reaches(v, u) {
				continue
			}
			dirty := bitset.New(n)
			added, err := ic.AddEdge(u, v, dirty)
			if err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
			}
			if !added {
				if dirty.Any() {
					t.Fatalf("duplicate edge %d→%d produced dirty nodes %v", u, v, dirty)
				}
				continue
			}
			checkAgainstScratch(t, ic)
			after := ic.Graph().Reachability()
			for w := 0; w < n; w++ {
				changed := !before.Row(w).Equal(after.Row(w))
				if changed && !dirty.Test(w) {
					t.Fatalf("row %d changed but is not dirty after %d→%d", w, u, v)
				}
				if !changed && dirty.Test(w) && w != u && w != v {
					t.Fatalf("row %d unchanged but dirty (and not an endpoint) after %d→%d", w, u, v)
				}
			}
		}
	}
}

// TestIncrementalClosureRollback verifies that a rollback after a
// partially applied batch restores the exact pre-batch state.
func TestIncrementalClosureRollback(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Reachability()
	wantM := g.M()

	// Apply a batch: one new node, two edges, then pretend the next edge
	// failed and roll everything back.
	ic.Grow(1)
	applied := [][2]int{}
	for _, e := range [][2]int{{1, 2}, {2, 4}} {
		if _, err := ic.AddEdge(e[0], e[1], nil); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
		applied = append(applied, e)
	}
	ic.Rollback(4, applied)

	if ic.N() != 4 || ic.Graph().M() != wantM {
		t.Fatalf("rollback left n=%d m=%d, want n=4 m=%d", ic.N(), ic.Graph().M(), wantM)
	}
	checkAgainstClosure(t, ic, want)
	checkAgainstScratch(t, ic)
}

// TestIncrementalClosureBudgetRebuildMidWalk crosses the patch budget in
// the middle of one insertion's ancestor walk: the walk must still
// report every changed row as dirty, and the rebuild that follows it
// must leave both indexes exact.
func TestIncrementalClosureBudgetRebuildMidWalk(t *testing.T) {
	const n = 400 // budget = max(n/2, 256) = 256 < 399 ancestors
	g := New(n)
	hub, sink := n-2, n-1
	for w := 0; w < hub; w++ {
		g.MustAddEdge(w, hub)
	}
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	// A few small insertions first, so the budget is crossed with
	// patches already on the books.
	for _, e := range [][2]int{{0, 1}, {2, 3}, {1, 3}} {
		if _, err := ic.AddEdge(e[0], e[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if ic.LabelRebuilds() != 0 {
		t.Fatalf("warm-up insertions already rebuilt %d times", ic.LabelRebuilds())
	}
	before := ic.Graph().Reachability()
	dirty := bitset.New(n)
	if _, err := ic.AddEdge(hub, sink, dirty); err != nil {
		t.Fatal(err)
	}
	if ic.LabelRebuilds() != 1 {
		t.Fatalf("LabelRebuilds = %d after a %d-ancestor walk, want 1", ic.LabelRebuilds(), hub+1)
	}
	checkAgainstScratch(t, ic)
	after := ic.Graph().Reachability()
	for w := 0; w < n; w++ {
		if changed := !before.Row(w).Equal(after.Row(w)); changed != dirty.Test(w) && w != sink {
			t.Fatalf("node %d: changed=%v dirty=%v", w, changed, dirty.Test(w))
		}
	}
	// The rebuilt pair keeps patching exactly.
	if _, err := ic.AddEdge(sink, 5, nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("5→…→sink→5 accepted: %v", err)
	}
	ic.Grow(1)
	if _, err := ic.AddEdge(sink, n, nil); err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, ic)
}

// TestIncrementalClosureRollbackAfterCycle is the registry's failure
// path: a batch grows the graph, applies some edges, then hits an edge
// that closes a cycle. The rejected edge changes nothing, and rolling
// back the applied prefix restores the pre-batch reachability exactly.
func TestIncrementalClosureRollbackAfterCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randDAG(rng, 40, 0.08)
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	want, wantM := g.Reachability(), g.M()
	n0 := ic.N()
	first := ic.Grow(2)
	var applied [][2]int
	for _, e := range [][2]int{{0, first}, {first, first + 1}, {first + 1, 39}} {
		if added, err := ic.AddEdge(e[0], e[1], nil); err != nil {
			t.Fatal(err)
		} else if added {
			applied = append(applied, e)
		}
	}
	mid := ic.Graph().Reachability()
	if _, err := ic.AddEdge(39, 0, nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("0→…→39→0 accepted: %v", err)
	}
	checkAgainstClosure(t, ic, mid)
	ic.Rollback(n0, applied)
	if ic.N() != n0 || ic.Graph().M() != wantM {
		t.Fatalf("rollback left n=%d m=%d, want n=%d m=%d", ic.N(), ic.Graph().M(), n0, wantM)
	}
	checkAgainstClosure(t, ic, want)
}

// TestIncrementalClosureRejectsCyclicGraph pins the constructor contract.
func TestIncrementalClosureRejectsCyclicGraph(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if _, err := NewIncrementalClosure(g); !errors.Is(err, ErrCycle) {
		t.Fatalf("cyclic graph accepted: %v", err)
	}
}

// TestGraphPopEdgeAndTruncate covers the LIFO rollback primitives.
func TestGraphPopEdgeAndTruncate(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	first := g.AddNodes(2)
	if first != 3 || g.N() != 5 {
		t.Fatalf("AddNodes: first=%d n=%d, want 3, 5", first, g.N())
	}
	g.MustAddEdge(1, 3)
	g.MustAddEdge(3, 4)
	g.PopEdge(3, 4)
	g.PopEdge(1, 3)
	g.TruncateNodes(3)
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("after rollback: n=%d m=%d, want 3, 1", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("surviving edge 0→1 lost")
	}
	// The sorted mirror must stay consistent through pops past the
	// mirror-building threshold.
	big := New(mirrorMinDeg + 4)
	for v := 1; v <= mirrorMinDeg+2; v++ {
		big.MustAddEdge(0, v)
	}
	big.PopEdge(0, mirrorMinDeg+2)
	if big.HasEdge(0, mirrorMinDeg+2) {
		t.Fatal("popped edge still visible through the sorted mirror")
	}
	if !big.HasEdge(0, mirrorMinDeg+1) {
		t.Fatal("surviving mirrored edge lost")
	}
}
