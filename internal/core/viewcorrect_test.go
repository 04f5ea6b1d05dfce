package core

import (
	"context"
	"math/rand"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TestCorrectionKeepsExistingCompositeIDs is the block-ID collision
// regression: in x→y→z with A={x,z} and A.1={y}, splitting A must not
// name a block "A.1" and silently merge it into the user's A.1.
func TestCorrectionKeepsExistingCompositeIDs(t *testing.T) {
	wf, err := workflow.NewBuilder("w").AddTask("x").AddTask("y").AddTask("z").Chain("x", "y", "z").Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := view.NewBuilder(wf, "v").Assign("A", "x", "z").Assign("A.1", "y").Build()
	if err != nil {
		t.Fatal(err)
	}
	o := soundness.NewOracle(wf)
	for _, crit := range []Criterion{Weak, Strong, Optimal} {
		vc, err := CorrectViewCtx(context.Background(), o, v, crit, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", crit, err)
		}
		if got, want := vc.Corrected.Describe(), "A.2 = {x}\nA.3 = {z}\nA.1 = {y}\n"; got != want {
			t.Fatalf("%s: corrected view\n%s\nwant\n%s", crit, got, want)
		}
		checkRefines(t, v, vc.Corrected)
	}
}

// checkRefines fails unless every composite of corrected is a subset of
// exactly one composite of orig.
func checkRefines(t *testing.T, orig, corrected *view.View) {
	t.Helper()
	for ci := 0; ci < corrected.N(); ci++ {
		c := corrected.Composite(ci)
		from := orig.CompOf(c.Members()[0])
		for _, m := range c.Members() {
			if orig.CompOf(m) != from {
				t.Fatalf("corrected composite %q spans input composites %q and %q",
					c.ID, orig.Composite(from).ID, orig.Composite(orig.CompOf(m)).ID)
			}
		}
	}
}

// replaceSequentially applies the splits one ReplaceComposite at a
// time, the way corrections were applied before SplitComposites.
func replaceSequentially(t *testing.T, v *view.View, vc *ViewCorrection) *view.View {
	t.Helper()
	cur := v
	for _, tc := range vc.Tasks {
		next, err := cur.ReplaceComposite(tc.CompositeID, tc.Result.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return cur
}

// TestCorrectViewRefinesInput is the property behind the collision fix:
// over random views, including views whose composite IDs look like
// generated block IDs, every corrected composite is a subset of exactly
// one input composite, and the corrected view is sound. Where no
// generated ID can collide, the one-pass rebuild equals applying the
// splits one at a time.
func TestCorrectViewRefinesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pool := []string{"A", "A.1", "A.2", "A.1.1", "A.3", "B", "B.1", "A.1.2", "B.2", "C"}
	collisions := 0
	for c := 0; c < 60; c++ {
		wf := gen.Layered(gen.LayeredConfig{Name: "w", Tasks: 12 + rng.Intn(20), Layers: 4 + rng.Intn(4),
			EdgeProb: 0.3, Seed: rng.Int63()})
		base := gen.InjectUnsound(gen.RandomView(wf, 6, rng.Int63(), "v"), 3, rng.Int63())
		colliding := c%2 == 1
		v := base
		if colliding {
			ids := rng.Perm(len(pool))
			b := view.NewBuilder(wf, "v")
			for ci := 0; ci < base.N(); ci++ {
				b.Assign(pool[ids[ci]], base.MemberIDs(ci)...)
			}
			var err error
			if v, err = b.Build(); err != nil {
				t.Fatal(err)
			}
		}
		o := soundness.NewOracle(wf)
		for _, crit := range []Criterion{Weak, Strong} {
			vc, err := CorrectViewCtx(context.Background(), o, v, crit, nil, 0)
			if err != nil {
				t.Fatalf("case %d %s: %v", c, crit, err)
			}
			checkRefines(t, v, vc.Corrected)
			if rep := soundness.ValidateView(o, vc.Corrected); !rep.Sound {
				t.Fatalf("case %d %s: corrected view unsound", c, crit)
			}
			if colliding {
				for _, tc := range vc.Tasks {
					if _, clash := v.CompIndex(tc.CompositeID + ".1"); clash {
						collisions++
					}
				}
				continue
			}
			want := replaceSequentially(t, v, vc)
			if want.Describe() != vc.Corrected.Describe() {
				t.Fatalf("case %d %s: one-pass rebuild\n%s\ndiffers from sequential\n%s", c, crit, vc.Corrected.Describe(), want.Describe())
			}
			for ci := 0; ci < want.N(); ci++ {
				if want.Composite(ci).Name != vc.Corrected.Composite(ci).Name {
					t.Fatalf("case %d %s: composite %d name %q, sequential %q", c, crit, ci,
						vc.Corrected.Composite(ci).Name, want.Composite(ci).Name)
				}
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no split met an existing block ID; the property was not exercised")
	}
}
