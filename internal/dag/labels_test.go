package dag

import (
	"math/rand"
	"testing"
)

// randDAG builds a random DAG on n nodes: edges only from lower to
// higher index, so acyclicity is structural.
func randDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// randDigraph builds a random directed graph that may contain cycles.
func randDigraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// checkLabelsMatchClosure asserts that l answers exactly like the
// closure for every ordered pair, and that the ordered iterator
// enumerates exactly the closure row members.
func checkLabelsMatchClosure(t *testing.T, g *Graph, l *Labels) {
	t.Helper()
	if l == nil {
		t.Fatal("BuildLabels returned nil within budget")
	}
	c := g.Reachability()
	n := g.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := c.Reaches(u, v)
			if got := l.Reaches(u, v); got != want {
				t.Fatalf("Reaches(%d,%d) = %v, closure says %v", u, v, got, want)
			}
		}
	}
	mark := make([]uint64, MarkWords(n))
	for u := 0; u < n; u++ {
		clear(mark)
		l.MarkRow(mark, u)
		for v := 0; v < n; v++ {
			if got := l.Marked(mark, v); got != c.Reaches(u, v) {
				t.Fatalf("Marked(%d,%d) = %v, closure says %v", u, v, got, c.Reaches(u, v))
			}
		}
	}
	var buf []int32
	for u := 0; u < n; u++ {
		buf = l.AppendReachable(buf[:0], u)
		members := c.Row(u).Members()
		if len(buf) != len(members) {
			t.Fatalf("AppendReachable(%d): %d nodes, closure row has %d", u, len(buf), len(members))
		}
		for i, m := range members {
			if int(buf[i]) != m {
				t.Fatalf("AppendReachable(%d)[%d] = %d, want %d", u, i, buf[i], m)
			}
		}
	}
}

func TestLabelsMatchClosureRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, 3, 8, 17, 40, 80} {
		for _, p := range []float64{0, 0.02, 0.1, 0.4, 0.9} {
			g := randDAG(rng, n, p)
			checkLabelsMatchClosure(t, g, BuildLabels(g))
		}
	}
}

func TestLabelsMatchClosureCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 8, 17, 40} {
		for _, p := range []float64{0.05, 0.15, 0.5} {
			g := randDigraph(rng, n, p)
			checkLabelsMatchClosure(t, g, BuildLabels(g))
		}
	}
}

func TestLabelsGrowAndPatchViaIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ic, err := NewIncrementalClosure(New(6))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1200; step++ {
		if rng.Intn(12) == 0 {
			ic.Grow(1 + rng.Intn(3))
		}
		n := ic.N()
		if n >= 2 {
			u, v := rng.Intn(n), rng.Intn(n)
			_, _ = ic.AddEdge(u, v, nil) // cycles/self-loops rejected, fine
		}
		if step%97 == 0 {
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
			checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.RevLabels())
		}
	}
	checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
	checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.RevLabels())
	if ic.LabelRebuilds() == 0 {
		t.Fatal("expected at least one threshold rebuild over 1200 mutations")
	}
}

func TestLabelsRollbackRebuilds(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	ic.Grow(2)
	if _, err := ic.AddEdge(1, 4, nil); err != nil {
		t.Fatal(err)
	}
	ic.Rollback(4, [][2]int{{1, 4}})
	checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
	if ic.N() != 4 {
		t.Fatalf("N = %d after rollback, want 4", ic.N())
	}
}

func TestLabelsFork(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	snap := ic.Labels().Fork()
	if _, err := ic.AddEdge(2, 3, nil); err != nil {
		t.Fatal(err)
	}
	ic.Grow(2)
	// The fork answers for the old world: 2 did not reach 3.
	if snap.Reaches(2, 3) {
		t.Fatal("fork sees a post-fork edge")
	}
	if !snap.Reaches(0, 2) {
		t.Fatal("fork lost a pre-fork path")
	}
	// The live index answers for the new world.
	checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
}

func TestLabelsStats(t *testing.T) {
	g := randDAG(rand.New(rand.NewSource(11)), 30, 0.1)
	l := BuildLabels(g)
	if l.N() != 30 {
		t.Fatalf("N = %d", l.N())
	}
	if l.Intervals() <= 0 {
		t.Fatal("no intervals counted")
	}
	if l.MemoryBytes() <= 0 {
		t.Fatal("no memory accounted")
	}
}

// bipartiteStage builds a random k×k bipartite stage: each of the k
// sources has an edge to each of the k sinks with probability p. At
// k=1024, p=0.5 the interval cover overruns the budget in both
// directions (the threshold sits near k≈1010 and moves with the seed).
func bipartiteStage(rng *rand.Rand, k int, p float64) *Graph {
	g := New(2 * k)
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, k+v)
			}
		}
	}
	return g
}

func checkDense(t *testing.T, g *Graph, l *Labels) {
	t.Helper()
	if l == nil || l.bits == nil {
		t.Fatal("over-budget build did not finish in dense mode")
	}
	checkLabelsMatchClosure(t, g, l)
}

// TestDenseLabelsMatchClosure is the over-budget property: labels that
// finished in dense mode answer exactly like closure rows after a build
// (acyclic and cyclic), through incremental Patch and Grow, and in a
// Fork taken before further mutation.
func TestDenseLabelsMatchClosure(t *testing.T) {
	const k = 1024
	rng := rand.New(rand.NewSource(12))
	g := bipartiteStage(rng, k, 0.5)
	checkDense(t, g, BuildLabels(g))

	// Cyclic: 2-cycles among the sinks, as in an unsound view's quotient.
	cyc := g.Clone()
	for i := 0; i < 8; i++ {
		a, b := k+rng.Intn(k), k+rng.Intn(k)
		if a != b {
			cyc.MustAddEdge(a, b)
			cyc.MustAddEdge(b, a)
		}
	}
	if cyc.IsAcyclic() {
		t.Fatal("cyclic variant is acyclic")
	}
	checkDense(t, cyc, BuildLabels(cyc))

	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	checkDense(t, ic.Graph(), ic.Labels())
	checkDense(t, ic.Graph().Reversed(), ic.RevLabels())
	fork, revFork := ic.Labels().Fork(), ic.RevLabels().Fork()
	before := ic.Graph().Clone()

	// Sink→sink edges patch the rows of every source reaching the tail;
	// a grown node wired in patches again past the old position space.
	first := ic.Grow(2)
	for _, e := range [][2]int{{k + 1, k + 2}, {first, k + 3}, {k + 3, first + 1}} {
		if _, err := ic.AddEdge(e[0], e[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if ic.LabelRebuilds() != 0 {
		t.Fatalf("patch budget forced %d rebuilds; the test must check patched rows", ic.LabelRebuilds())
	}
	if ic.Labels().Patches() == 0 {
		t.Fatal("no dense patches applied")
	}
	checkDense(t, ic.Graph(), ic.Labels())
	checkDense(t, ic.Graph().Reversed(), ic.RevLabels())
	checkDense(t, before, fork)
	checkDense(t, before.Reversed(), revFork)
}
