package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TestOracleBackendsAgree builds one closure-backed and one
// labels-backed oracle over each random workflow (layered and
// unstructured DAGs) and checks that every soundness and correction
// answer is identical across the two: SetSound on composites and random
// subsets, ValidateViewCtx reports, ValidateViewPaths, and the weak and
// strong CorrectViewCtx outputs, over interval, random and coarsened
// views. The two-layer half-dense workflow pushes its labels past the
// interval budget, so both label modes are covered.
func TestOracleBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var dense, interval int
	for c := 0; c < 14; c++ {
		var wf *workflow.Workflow
		switch {
		case c == 0:
			wf = gen.Layered(gen.LayeredConfig{
				Name: fmt.Sprintf("dense-%d", c), Tasks: 2304, Layers: 2, EdgeProb: 0.5, Seed: int64(c),
			})
		case c%2 == 0:
			wf = gen.Layered(gen.LayeredConfig{
				Name: fmt.Sprintf("layered-%d", c), Tasks: 20 + rng.Intn(100), Layers: 3 + rng.Intn(6),
				EdgeProb: 0.1 + 0.3*rng.Float64(), SkipProb: 0.05 * rng.Float64(), Seed: int64(c),
			})
		default:
			wf, _ = randomCase(rng, 60)
		}
		g := wf.Graph()
		labels := dag.BuildLabels(g)
		if labels.Intervals() == 0 {
			dense++
		} else {
			interval++
		}
		byClosure := soundness.NewOracleWithReach(wf, g, g.Reachability())
		byLabels := soundness.NewOracleWithReach(wf, g, labels)

		k := max(2, wf.N()/8)
		seed := int64(c)
		views := []*view.View{
			gen.IntervalView(wf, k, "interval"),
			gen.RandomView(wf, k, seed, "random"),
			gen.InjectUnsound(gen.IntervalView(wf, 2*k, "coarse"), k, seed),
		}
		for _, v := range views {
			where := fmt.Sprintf("case %d (%s, n=%d) view %s", c, wf.Name(), wf.N(), v.Name())
			checkBackendsAgree(t, where, rng, byClosure, byLabels, v)
		}
	}
	if dense == 0 || interval == 0 {
		t.Fatalf("label modes not both covered: %d dense, %d interval", dense, interval)
	}
}

func checkBackendsAgree(t *testing.T, where string, rng *rand.Rand, a, b *soundness.Oracle, v *view.View) {
	t.Helper()
	ctx := context.Background()
	n := v.Workflow().N()
	for ci := 0; ci < v.N(); ci++ {
		members := soundness.MemberSet(v, ci)
		okA, violA := a.SetSound(members)
		okB, violB := b.SetSound(members)
		if okA != okB || !reflect.DeepEqual(violA, violB) {
			t.Fatalf("%s: composite %d: SetSound closure=(%v,%v) labels=(%v,%v)", where, ci, okA, violA, okB, violB)
		}
	}
	for i := 0; i < 20; i++ {
		size := 2 + rng.Intn(min(n-1, 12))
		subset := rng.Perm(n)[:size]
		okA, violA := a.SoundSlice(subset)
		okB, violB := b.SoundSlice(subset)
		if okA != okB || !reflect.DeepEqual(violA, violB) {
			t.Fatalf("%s: subset %v: SetSound closure=(%v,%v) labels=(%v,%v)", where, subset, okA, violA, okB, violB)
		}
	}
	for _, workers := range []int{1, 0} {
		repA, err := soundness.ValidateViewCtx(ctx, a, v, workers)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := soundness.ValidateViewCtx(ctx, b, v, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(repA, repB) {
			t.Fatalf("%s: workers=%d: reports differ\nclosure: %+v\nlabels:  %+v", where, workers, repA, repB)
		}
	}
	if pa, pb := soundness.ValidateViewPaths(a, v), soundness.ValidateViewPaths(b, v); !reflect.DeepEqual(pa, pb) {
		t.Fatalf("%s: path reports differ\nclosure: %+v\nlabels:  %+v", where, pa, pb)
	}
	for _, crit := range []Criterion{Weak, Strong} {
		ca, err := CorrectViewCtx(ctx, a, v, crit, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := CorrectViewCtx(ctx, b, v, crit, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := correctionShape(cb), correctionShape(ca); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %v corrections differ\nclosure: %v\nlabels:  %v", where, crit, want, got)
		}
	}
}

// correctionShape is a correction without its timings: the corrected
// partition and every split's blocks.
func correctionShape(vc *ViewCorrection) []string {
	var out []string
	for ci := 0; ci < vc.Corrected.N(); ci++ {
		comp := vc.Corrected.Composite(ci)
		out = append(out, fmt.Sprint(comp.ID, comp.Members()))
	}
	for _, tc := range vc.Tasks {
		out = append(out, fmt.Sprint(tc.CompositeID, tc.Before, tc.After, tc.Result.Blocks))
	}
	return out
}
