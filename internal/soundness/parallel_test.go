package soundness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// mustJSON renders a report for byte-level comparison: the acceptance
// bar is byte-identical reports, not merely semantically equal ones.
func mustJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func requireSameReport(t *testing.T, name string, seq, par *Report) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s: parallel report diverges from sequential\nseq: %+v\npar: %+v", name, seq, par)
	}
	sb, pb := mustJSON(t, seq), mustJSON(t, par)
	if string(sb) != string(pb) {
		t.Fatalf("%s: reports not byte-identical\nseq: %s\npar: %s", name, sb, pb)
	}
}

// TestValidateViewParallelEquivalence is the table-driven pin of
// ValidateViewCtx to ValidateView across fixture and generated
// workloads, on views below and above parallelValidateThreshold, at
// several worker counts including ones that force the worker-pool path.
// A pre-canceled context must return (nil, context.Canceled) at every
// worker count.
func TestValidateViewParallelEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	type caseSpec struct {
		name string
		wf   *workflow.Workflow
		v    *view.View
	}
	var cases []caseSpec

	// Fixture: the chainPair workflow under its atomic and a coarse view.
	cp := chainPair(t)
	coarse, err := view.FromAssignments(cp, "coarse", map[string][]string{
		"left": {"x", "a"}, "mid": {"b", "z"}, "right": {"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		caseSpec{"chainPair/atomic", cp, view.Atomic(cp)},
		caseSpec{"chainPair/coarse", cp, coarse},
	)

	// Generated: layered workflows under interval, random and unsound-
	// injected views (mixed sound/unsound composites, k ≥ threshold).
	for _, seed := range []int64{1, 2, 3} {
		wf := gen.Layered(gen.LayeredConfig{
			Name: "lay", Tasks: 96, Layers: 8, EdgeProb: 0.35, SkipProb: 0.08, Seed: seed,
		})
		iv := gen.IntervalView(wf, 12, "bands")
		cases = append(cases,
			caseSpec{"layered/interval", wf, iv},
			caseSpec{"layered/random", wf, gen.RandomView(wf, 10, seed, "rand")},
			caseSpec{"layered/injected", wf, gen.InjectUnsound(iv, 3, seed)},
		)
	}

	var below, above bool
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		below = below || c.v.N() < parallelValidateThreshold
		above = above || c.v.N() >= parallelValidateThreshold
		o := NewOracle(c.wf)
		seq := ValidateView(o, c.v)
		for _, workers := range []int{0, 1, 2, 3, 8, 64} {
			par, err := ValidateViewCtx(context.Background(), o, c.v, workers)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", c.name, workers, err)
			}
			requireSameReport(t, c.name, seq, par)
			rep, err := ValidateViewCtx(canceled, o, c.v, workers)
			if rep != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s/workers=%d: canceled ctx returned (%v, %v), want (nil, context.Canceled)",
					c.name, workers, rep, err)
			}
		}
	}
	if !below || !above {
		t.Fatalf("cases must straddle parallelValidateThreshold=%d (below=%v above=%v)",
			parallelValidateThreshold, below, above)
	}
}

// TestValidateViewEmptyInterfaceShape pins the report shape for
// composites with empty interface sets: In/Out must stay nil (not empty
// non-nil slices), matching the historical output and NaiveValidator.
func TestValidateViewEmptyInterfaceShape(t *testing.T) {
	wf := chainPair(t)
	whole, err := view.FromAssignments(wf, "whole", map[string][]string{
		"all": {"x", "a", "b", "y", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(wf)
	rep := ValidateView(o, whole)
	if !rep.Sound {
		t.Fatal("the whole-workflow composite is trivially sound")
	}
	cr := rep.Composites[0]
	if cr.In != nil || cr.Out != nil {
		t.Fatalf("empty interface sets must be nil, got In=%#v Out=%#v", cr.In, cr.Out)
	}
	nrep, err := NewNaiveValidator(o, 1_000_000).ValidateView(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, nrep) {
		t.Fatalf("ValidateView and NaiveValidator reports diverge:\nfast:  %+v\nnaive: %+v", rep, nrep)
	}
}

// TestValidateViewParallelConcurrentOracle hammers one oracle from many
// goroutines (the documented concurrent-reader guarantee now extends to
// the pooled scratch state).
func TestValidateViewParallelConcurrentOracle(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	wf := gen.Layered(gen.LayeredConfig{
		Name: "lay", Tasks: 64, Layers: 8, EdgeProb: 0.4, SkipProb: 0.1, Seed: 9,
	})
	o := NewOracle(wf)
	v := gen.IntervalView(wf, 16, "bands")
	seq := ValidateView(o, v)
	done := make(chan *Report, 8)
	for i := 0; i < 8; i++ {
		go func() {
			rep, err := ValidateViewCtx(context.Background(), o, v, 4)
			if err != nil {
				t.Error(err)
			}
			done <- rep
		}()
	}
	for i := 0; i < 8; i++ {
		requireSameReport(t, "concurrent", seq, <-done)
	}
}
