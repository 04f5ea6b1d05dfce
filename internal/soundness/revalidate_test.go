package soundness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TestRevalidateMutationEquivalence drives a live workflow through
// random edge insertions and task additions, maintaining its report via
// DirtyComposites + Revalidate + Merge, and asserts after every batch
// that the maintained report is identical to a from-scratch
// ValidateView over a freshly computed closure.
func TestRevalidateMutationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		n := 16 + rng.Intn(80)
		wf := gen.Layered(gen.LayeredConfig{
			Name: fmt.Sprintf("live-%d", round), Tasks: n, Layers: 4,
			EdgeProb: 0.3, SkipProb: 0.1, Seed: int64(round),
		})
		v := gen.RandomView(wf, 2+n/6, int64(round), "v")
		ic, err := dag.NewIncrementalClosure(wf.Graph())
		if err != nil {
			t.Fatal(err)
		}
		// The live registry's oracle: labels read through ic, scratch
		// sized per call, so it follows growth without being rebuilt.
		oracle := NewOracleWithReach(wf, ic.Graph(), ic)
		rep := ValidateView(oracle, v)

		for step := 0; step < 60; step++ {
			oldK := v.N()
			if rng.Intn(12) == 0 {
				// Task addition: grow the workflow, the labels, and the
				// view (new singleton composites).
				id := fmt.Sprintf("new-%d-%d", round, step)
				if _, err := wf.ExtendTasks([]workflow.Task{{ID: id}}); err != nil {
					t.Fatal(err)
				}
				ic.Grow(1)
				nv, err := v.ExtendSingletons()
				if err != nil {
					t.Fatal(err)
				}
				v = nv
			}
			nn := wf.N()
			dirty := bitset.New(nn)
			u, w := rng.Intn(nn), rng.Intn(nn)
			if u != w {
				if _, err := ic.AddEdge(u, w, dirty); err != nil {
					dirty.Reset() // cycle rejected: nothing changed
				} else {
					wf.StructureChanged()
				}
			}
			dirtyComps := DirtyComposites(v, dirty, oldK)
			rep = Merge(rep, Revalidate(oracle, v, dirtyComps), v)

			full := ValidateView(NewOracle(wf), v)
			if !reflect.DeepEqual(rep, full) {
				t.Fatalf("round %d step %d: merged report diverged from from-scratch validation\nmerged: %+v\nfull:   %+v",
					round, step, rep, full)
			}
		}
	}
}

// TestRevalidateSubsetMatchesFull pins the Merge mechanics directly:
// revalidating any superset of the (empty) dirty set over an unchanged
// workflow reproduces the full report exactly.
func TestRevalidateSubsetMatchesFull(t *testing.T) {
	wf := gen.Layered(gen.LayeredConfig{Name: "static", Tasks: 40, Layers: 4, EdgeProb: 0.35, Seed: 5})
	v := gen.RandomView(wf, 8, 5, "v")
	o := NewOracle(wf)
	full := ValidateView(o, v)

	for _, dirty := range [][]int{{}, {0}, {1, 3}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		got := Merge(full, Revalidate(o, v, dirty), v)
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("dirty=%v: merged report diverged", dirty)
		}
		// Merge must not alias the previous report's slice.
		if &got.Composites[0] == &full.Composites[0] {
			t.Fatal("Merge aliases the previous report's composite slice")
		}
	}
}

// TestDirtyComposites pins the node→composite mapping and the always-
// dirty window for new composites.
func TestDirtyComposites(t *testing.T) {
	wf, err := workflow.NewBuilder("w").
		AddTask("a").AddTask("b").AddTask("c").AddTask("d").
		Chain("a", "b", "c", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := view.FromAssignments(wf, "v", map[string][]string{
		"AB": {"a", "b"}, "C": {"c"}, "D": {"d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dirty := bitset.FromInts(4, 1, 2) // tasks b, c
	got := DirtyComposites(v, dirty, v.N())
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("DirtyComposites = %v, want [0 1]", got)
	}
	// minNew forces the tail composites dirty even with no dirty nodes.
	got = DirtyComposites(v, bitset.New(4), 1)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("DirtyComposites with minNew=1 = %v, want [1 2]", got)
	}
}
