package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"wolves/internal/core"
	"wolves/internal/gen"
	"wolves/internal/server"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// svCase is one generated (workflow, view) pair of soundness-service
// with its request bodies and the in-process reference verdict.
type svCase struct {
	wf       *workflow.Workflow
	v        *view.View
	validate []byte
	correct  [2][]byte // weak, strong
	job      server.BatchJob
	oracle   *soundness.Oracle
	sound    bool
	unsound  []int
}

type svArg struct {
	cases []*svCase // one case, or the eight of a batch
	crit  core.Criterion
}

// genWorkflow draws one workflow of about target tasks, within [minN,
// maxN], from the layered, series-parallel or scientific-pipeline
// generator.
func genWorkflow(rng *rand.Rand, kind, target, minN, maxN int, name string) *workflow.Workflow {
	switch kind {
	case 1:
		lo, hi := max(minN, target*3/4), min(maxN, target*5/4)
		for try := 0; try < 400; try++ {
			wf := gen.SeriesParallel(gen.SPConfig{Name: name, Depth: 3 + rng.Intn(4), MaxBranch: 2 + rng.Intn(4), Seed: rng.Int63()})
			if wf.N() >= lo && wf.N() <= hi {
				return wf
			}
		}
	case 2:
		side, sideLen := rng.Intn(4), 2+rng.Intn(4)
		branches := 4 + rng.Intn(13)
		chain := (target - 4 - side*sideLen) / branches
		if chain < 1 {
			chain = 1
		}
		wf := gen.ScientificPipeline(gen.PipelineConfig{Name: name, Branches: branches, ChainLen: chain,
			SideChains: side, SideChainLen: sideLen, Seed: rng.Int63()})
		if wf.N() >= minN && wf.N() <= maxN {
			return wf
		}
	}
	return gen.Layered(gen.LayeredConfig{Name: name, Tasks: target, Layers: max(4, target/16),
		EdgeProb: 0.15, Seed: rng.Int63()})
}

// genView draws an interval, random or module view of wf; half of the
// cases are then coarsened towards unsoundness.
func genView(rng *rand.Rand, wf *workflow.Workflow, kind int, unsound bool) *view.View {
	var v *view.View
	switch kind {
	case 0:
		v = gen.IntervalView(wf, max(2, wf.N()/8), "view")
	case 1:
		v = gen.RandomView(wf, max(2, wf.N()/8), rng.Int63(), "view")
	default:
		v = gen.ModuleView(wf, "view")
	}
	if unsound && v.N() > 2 {
		v = gen.InjectUnsound(v, 2, rng.Int63())
	}
	return v
}

// newSoundnessService builds the soundness-service workload: distinct
// generated workflows with views, 60% POST /v1/validate, 30% POST
// /v1/correct (half weak, half strong) and 10% POST /v1/batch of eight
// validate jobs. 75% of requests go to a hot set that fits the oracle
// cache, 25% to a cold set that does not.
func newSoundnessService(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	// The hot and the cold set are each stratified: generators, view
	// kinds and unsound coarsening take turns, and the target sizes are
	// spread evenly over [svMinN, svMaxN] by a fixed permutation (37 is
	// coprime to every power-of-two set size), so every seed's set has
	// the same make-up and costs about the same to serve; the seed draws
	// the graphs and views.
	genCases := func(count int, prefix string) []*svCase {
		out := make([]*svCase, count)
		for i := range out {
			name := fmt.Sprintf("%s%d", prefix, i)
			target := sz.svMinN + (sz.svMaxN-sz.svMinN)*(i*37%count)/max(1, count-1)
			wf := genWorkflow(rng, i%3, target, sz.svMinN, sz.svMaxN, name)
			v := genView(rng, wf, (i/3)%3, i%2 == 1)
			wfRaw, vRaw := mustJSON(wf), mustJSON(v)
			c := &svCase{wf: wf, v: v,
				validate: mustJSON(server.ValidateRequest{Workflow: wfRaw, View: vRaw}),
				job:      server.BatchJob{Op: "validate", Workflow: wfRaw, View: vRaw}}
			for k, crit := range []string{"weak", "strong"} {
				c.correct[k] = mustJSON(server.CorrectRequest{Workflow: wfRaw, View: vRaw, Criterion: crit})
			}
			out[i] = c
		}
		return out
	}
	hot, cold := genCases(sz.svHot, "hot"), genCases(sz.svCold, "cold")
	cases := append(append([]*svCase(nil), hot...), cold...)
	// Three of every four picks go to the hot set.
	picks := 0
	pick := func() *svCase {
		picks++
		if picks%4 != 0 {
			return hot[rng.Intn(len(hot))]
		}
		return cold[rng.Intn(len(cold))]
	}
	// Batch bodies come from a pool: each carries eight jobs drawn like
	// single requests.
	batches := make([]*op, 64)
	for i := range batches {
		a := &svArg{}
		var req server.BatchRequest
		for j := 0; j < 8; j++ {
			c := pick()
			a.cases = append(a.cases, c)
			req.Jobs = append(req.Jobs, c.job)
		}
		batches[i] = &op{kind: "vbatch", slot: slotThird, method: "POST", path: "/v1/batch",
			ctype: "application/json", body: mustJSON(req), check: true, arg: a}
	}
	// Every block of 10 ops holds 6 validates, 3 corrections (criteria
	// alternating) and one batch.
	kinds := mix(rng, sz.streamLen, []string{"validate", "correct", "vbatch"}, []int{6, 3, 1})
	ops := make([]*op, sz.streamLen)
	var corrections, nb int
	for i, kind := range kinds {
		switch kind {
		case "validate":
			c := pick()
			ops[i] = &op{kind: "validate", slot: slotMain, method: "POST", path: "/v1/validate",
				ctype: "application/json", body: c.validate, check: true, arg: &svArg{cases: []*svCase{c}}}
		case "correct":
			c := pick()
			k := corrections % 2
			corrections++
			crit := []core.Criterion{core.Weak, core.Strong}[k]
			ops[i] = &op{kind: "correct", sub: crit.String(), slot: slotSide, method: "POST", path: "/v1/correct",
				ctype: "application/json", body: c.correct[k], check: true,
				arg: &svArg{cases: []*svCase{c}, crit: crit}}
		default:
			ops[i] = batches[nb%len(batches)]
			nb++
		}
	}

	wl := &workload{
		name: "soundness-service",
		ops:  ops,
		named: []namedLat{
			{"validate_p50_ms", "validate", 0.5},
			{"correct_p50_ms", "correct", 0.5},
		},
		throughputName: "soundness_rps",
		inputs: func(emit func([]byte)) {
			for _, c := range cases {
				emit(c.validate)
				emit(c.correct[0])
				emit(c.correct[1])
			}
		},
	}
	// The reference verdicts are computed in-process, outside the
	// daemon's engine, before the run.
	wl.prepare = func() {
		for _, c := range cases {
			c.oracle = soundness.NewOracle(c.wf)
			rep := soundness.ValidateView(c.oracle, c.v)
			c.sound, c.unsound = rep.Sound, rep.Unsound
		}
	}
	// Set-up warms the hot set: one validate per hot workflow.
	wl.setup = func(ctx context.Context, c *client) error {
		return parallel(len(hot), func(i int) error {
			_, err := c.call(ctx, "POST", "/v1/validate", "application/json", hot[i].validate)
			return err
		})
	}
	wl.check = checkSoundnessSamples
	wl.direct = directSoundOp
	return wl
}

// verdict is the part of a soundness report the checks compare.
type verdict struct {
	Sound   bool
	Unsound []int
}

func checkVerdict(got verdict, c *svCase) error {
	if got.Sound != c.sound || !reflect.DeepEqual(append([]int{}, got.Unsound...), append([]int{}, c.unsound...)) {
		return fmt.Errorf("verdict on %s: sound=%v unsound=%v, reference sound=%v unsound=%v",
			c.wf.Name(), got.Sound, got.Unsound, c.sound, c.unsound)
	}
	return nil
}

// checkCorrection re-validates a returned corrected view against the
// reference oracle: every correction must be sound.
func checkCorrection(raw json.RawMessage, c *svCase) error {
	cv, err := view.DecodeJSON(c.wf, bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("decode corrected view of %s: %w", c.wf.Name(), err)
	}
	if rep := soundness.ValidateView(c.oracle, cv); !rep.Sound {
		return fmt.Errorf("corrected view of %s is unsound: composites %v", c.wf.Name(), rep.Unsound)
	}
	return nil
}

func checkSoundnessBody(o *op, body []byte) error {
	a := o.arg.(*svArg)
	switch o.kind {
	case "validate":
		var resp struct{ Report verdict }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkVerdict(resp.Report, a.cases[0])
	case "correct":
		var resp struct {
			CorrectedView json.RawMessage `json:"corrected_view"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkCorrection(resp.CorrectedView, a.cases[0])
	case "vbatch":
		var resp struct {
			Results []struct{ Report *verdict }
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(a.cases) {
			return fmt.Errorf("batch returned %d results for %d jobs", len(resp.Results), len(a.cases))
		}
		for i, r := range resp.Results {
			if r.Report == nil {
				return fmt.Errorf("batch job %d has no report", i)
			}
			if err := checkVerdict(*r.Report, a.cases[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unexpected op %s", o.kind)
}

// checkSoundnessSamples checks every distinct answer the run kept.
func checkSoundnessSamples(ss []sample) (int, []error) {
	wrong := 0
	var errs []error
	for i := range ss {
		s := &ss[i]
		if s.body == nil || !s.ok() {
			continue
		}
		if err := checkSoundnessBody(s.op, s.body); err != nil {
			wrong++
			if len(errs) < 5 {
				errs = append(errs, err)
			}
		}
	}
	return wrong, errs
}

// directSoundOp replays a soundness op through the public engine calls
// its handler makes: the oracle lookup (a build on a cold workflow),
// then validation or correction and the correction's re-validation.
func directSoundOp(ctx context.Context, d *daemon, o *op, seq int64, tr *tracer) error {
	a := o.arg.(*svArg)
	for _, c := range a.cases {
		var or *soundness.Oracle
		misses := d.eng.CacheStats().Misses
		start := time.Now()
		or = d.eng.Oracle(c.wf)
		name := "engine.oracle"
		if d.eng.CacheStats().Misses > misses {
			name = "engine.oracle_build"
		}
		tr.add(seq, name, start, time.Now())
		if o.kind != "correct" {
			if err := tr.time(seq, "engine.validate", func() error {
				_, err := d.eng.ValidateWithOracle(ctx, or, c.v)
				return err
			}); err != nil {
				return err
			}
			continue
		}
		var vc *core.ViewCorrection
		if err := tr.time(seq, "engine.correct."+a.crit.String(), func() error {
			var err error
			vc, err = d.eng.CorrectWithOracle(ctx, or, c.v, a.crit, nil)
			return err
		}); err != nil {
			return err
		}
		if err := tr.time(seq, "engine.revalidate", func() error {
			_, err := d.eng.ValidateWithOracle(ctx, or, vc.Corrected)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
