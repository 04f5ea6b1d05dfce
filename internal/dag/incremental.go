package dag

import (
	"fmt"

	"wolves/internal/bitset"
)

// IncrementalClosure maintains the reflexive-transitive reachability of
// a growing DAG under edge and node additions, without ever rebuilding
// it from scratch on the success path. It is the substrate of the
// engine's live workflow registry: a stateless pipeline pays O(V·E/w)
// closure construction per request, while an IncrementalClosure pays
// only for the pairs that actually become reachable.
//
// Its only state besides the graph is a pair of interval label indexes:
// labels answers "u reaches v" and enumerates descendants, revLabels is
// built over the reversed graph and enumerates ancestors. Edge insertion
// uses Italiano-style propagation: inserting u→v merges v's label row
// into the row of every ancestor w of u that does not already reach v,
// and u's reverse row into every descendant of v that u did not already
// reach. The ancestor and descendant sets are listed from the label rows
// themselves, so no n×n matrix is ever held. The update cost is one
// label merge per newly reachable (row, source) pair plus one membership
// probe per listed node.
//
// The IncrementalClosure owns its graph: after construction, callers
// must route every mutation through AddEdge/Grow (mutating the graph
// directly would silently desynchronize the labels). The structure is
// not safe for concurrent use; the registry serializes mutations behind
// a write lock and serves lock-free readers from label forks.
type IncrementalClosure struct {
	g *Graph

	// labels/revLabels are rebuilt from the graph past the patch budget
	// (each patch can fragment a row) and on rollback; they are never
	// stale between calls.
	labels        *Labels
	revLabels     *Labels
	labelBuilds   int64 // label-index (pair) builds: initial + rebuilds
	labelRebuilds int64 // rebuilds triggered by the patch budget
	labelPatches  int64 // lifetime Patch calls, both directions

	// desc/anc are AddEdge's reusable node-list buffers.
	desc, anc []int32
}

// NewIncrementalClosure builds the label pair of g (which must be
// acyclic) and takes ownership of g.
func NewIncrementalClosure(g *Graph) (*IncrementalClosure, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	ic := &IncrementalClosure{g: g}
	ic.rebuild()
	return ic, nil
}

// rebuild builds the forward/reverse label pair from the graph.
func (ic *IncrementalClosure) rebuild() {
	ic.labels = BuildLabels(ic.g)
	ic.revLabels = BuildLabels(ic.g.Reversed())
	ic.labelBuilds++
}

// labelPatchBudget is the number of label patches tolerated (per
// direction) before the pair is rebuilt: each patch can fragment a row,
// and past roughly half the node count a fresh O(n+m) build is cheaper
// than the accumulated fragmentation it clears.
func (ic *IncrementalClosure) labelPatchBudget() int64 {
	if b := int64(ic.g.n) / 2; b > 256 {
		return b
	}
	return 256
}

// Labels returns the forward label index; never nil. The returned index
// is mutated by AddEdge/Grow and replaced by a budget rebuild or
// Rollback; concurrent readers must hold a Fork instead.
func (ic *IncrementalClosure) Labels() *Labels { return ic.labels }

// RevLabels returns the reverse (ancestor-direction) label index. Same
// sharing rules as Labels.
func (ic *IncrementalClosure) RevLabels() *Labels { return ic.revLabels }

// Reaches, MarkRow and Marked answer through the current forward labels,
// so a long-lived reader (the registry's soundness oracle) follows
// rebuilds without being re-pointed. Mark buffers need MarkWords(N())
// words.
func (ic *IncrementalClosure) Reaches(u, v int) bool { return ic.labels.Reaches(u, v) }

// MarkRow marks u's reachable set in mark (see Labels.MarkRow).
func (ic *IncrementalClosure) MarkRow(mark []uint64, u int) { ic.labels.MarkRow(mark, u) }

// Marked reports whether v was marked by a MarkRow (see Labels.Marked).
func (ic *IncrementalClosure) Marked(mark []uint64, v int) bool { return ic.labels.Marked(mark, v) }

// LabelBuilds returns the number of full label-index builds.
func (ic *IncrementalClosure) LabelBuilds() int64 { return ic.labelBuilds }

// LabelRebuilds returns the number of rebuilds forced by the patch
// budget.
func (ic *IncrementalClosure) LabelRebuilds() int64 { return ic.labelRebuilds }

// LabelPatches returns the lifetime count of incremental label patches.
func (ic *IncrementalClosure) LabelPatches() int64 { return ic.labelPatches }

// Graph returns the underlying graph. Shared; mutate only through the
// IncrementalClosure.
func (ic *IncrementalClosure) Graph() *Graph { return ic.g }

// N returns the current node count.
func (ic *IncrementalClosure) N() int { return ic.g.N() }

// AddEdge inserts u→v into the graph and updates both label indexes. It
// reports whether a new edge was inserted (duplicates are ignored, as in
// Graph.AddEdge) and fails — leaving every structure untouched — when
// the edge is a self-loop or would create a cycle (v already reaches u;
// the check is a single label probe). When dirty is non-nil, the
// indices of every node whose forward reachable set changed, plus u and
// v themselves (whose adjacency changed), are set in it; the registry
// derives dirty composites from exactly this set.
func (ic *IncrementalClosure) AddEdge(u, v int, dirty *bitset.Set) (bool, error) {
	ic.g.checkNode(u)
	ic.g.checkNode(v)
	if u == v {
		return false, fmt.Errorf("dag: self-loop on node %d", u)
	}
	fwd, rev := ic.labels, ic.revLabels
	if fwd.Reaches(v, u) {
		return false, fmt.Errorf("%w: edge %d→%d closes a path back from %d to %d", ErrCycle, u, v, v, u)
	}
	if ic.g.hasEdgeFast(u, v) {
		return false, nil
	}
	ic.g.addEdgeUnchecked(u, v)
	if dirty != nil {
		dirty.Set(u)
		dirty.Set(v)
	}
	if fwd.Reaches(u, v) {
		// The path u→…→v already existed; reachability is unchanged.
		return true, nil
	}
	// Both lists are read before any patch: desc(v) from the forward
	// rows, anc(u) from the reverse rows, each as it was before the
	// insertion. Patching stops once either index reaches the budget; the
	// walk still finishes (it decides the dirty set) and the pair is
	// rebuilt afterwards.
	budget := ic.labelPatchBudget()
	patch := func(l *Labels, w, x int) {
		if fwd.patches < budget && rev.patches < budget {
			l.Patch(w, x)
			ic.labelPatches++
		}
	}
	ic.desc = fwd.appendReachable(ic.desc[:0], v)
	ic.anc = rev.appendReachable(ic.anc[:0], u)
	// Reverse patches run first, while the forward rows are still
	// pre-insertion: every descendant x of v that u did not already reach
	// gains u's reflexive ancestor cover (anc'(x) = anc(x) ∪ anc(u); u
	// already reaching x implies anc(u) ⊆ anc(x), so the skip is exact).
	// rev's row u is never the patched row — u ∈ desc(v) would be the
	// cycle rejected above — so the merge source is stable.
	for _, x := range ic.desc {
		if !fwd.Reaches(u, int(x)) {
			patch(rev, int(x), u)
		}
	}
	// Italiano propagation: every ancestor w of u (including u) that does
	// not yet reach v gains v's cover. Row w is probed before its own
	// patch, and row v is never patched here (v is not an ancestor of u),
	// so every probe and merge source is pre-insertion.
	for _, w := range ic.anc {
		if fwd.Reaches(int(w), v) {
			continue
		}
		patch(fwd, int(w), v)
		if dirty != nil {
			dirty.Set(int(w))
		}
	}
	if fwd.patches >= budget || rev.patches >= budget {
		ic.rebuild()
		ic.labelRebuilds++
	}
	return true, nil
}

// Grow appends k isolated nodes to the graph and to both label indexes.
// New nodes reach only themselves — exactly what a from-scratch build of
// the grown graph holds — and every existing row is untouched.
func (ic *IncrementalClosure) Grow(k int) int {
	first := ic.g.AddNodes(k)
	ic.labels.Grow(k)
	ic.revLabels.Grow(k)
	return first
}

// Rollback unwinds a partially applied mutation batch: edges (as (u,v)
// index pairs) are popped in reverse insertion order, the node count
// shrinks back to n, and the label pair is rebuilt from the graph. This
// is the error path of a rejected batch — the rebuild cost is paid only
// when a mutation fails mid-way, never on success.
func (ic *IncrementalClosure) Rollback(n int, edges [][2]int) {
	for i := len(edges) - 1; i >= 0; i-- {
		ic.g.PopEdge(edges[i][0], edges[i][1])
	}
	ic.g.TruncateNodes(n)
	ic.rebuild()
}
