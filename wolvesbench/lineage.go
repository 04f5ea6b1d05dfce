package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"wolves/internal/gen"
	"wolves/internal/runs"
	"wolves/internal/server"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// storeWorkflow is one workflow of a run-store workload with its
// registration body and generated runs.
type storeWorkflow struct {
	id    string
	wf    *workflow.Workflow
	reg   []byte   // PUT /v1/workflows/{id} body
	views []string // attached view IDs
	runs  []*runDoc
	picks []*zipfPick // per run: Zipf-skewed artifact choice
	batch []byte      // the set-up runs as one JSON array, built on first use
}

func regBody(wf *workflow.Workflow, views map[string]*view.View, order []string) []byte {
	req := server.RegisterRequest{Workflow: mustJSON(wf)}
	for _, id := range order {
		req.Views = append(req.Views, server.RegisterView{ID: id, View: mustJSON(views[id])})
	}
	return mustJSON(req)
}

// lineageQuery is the argument of a single lineage op.
type lineageQuery struct {
	w   *storeWorkflow
	run *runDoc
	q   runs.Query
}

// levelCycle spreads lineage levels 50% exact, 25% view, 25% audited.
var levelCycle = [8]string{runs.LevelExact, runs.LevelView, runs.LevelExact, runs.LevelAudited,
	runs.LevelExact, runs.LevelView, runs.LevelExact, runs.LevelAudited}

// lineageOp makes the k-th single-query lineage GET of a stream: the
// level cycles 50% exact, 25% view, 25% audited; 20% ask for
// descendants and 10% (of all) for a witness; the run is uniform and the
// artifact Zipf-skewed.
func lineageOp(rng *rand.Rand, w *storeWorkflow, runIdx []int, k int) *op {
	ri := runIdx[rng.Intn(len(runIdx))]
	rd := w.runs[ri]
	q := runs.Query{Run: rd.id, Artifact: rd.arts[w.picks[ri].next()], Level: levelCycle[k%8]}
	if q.Level != runs.LevelExact {
		q.View = w.views[(k/8)%len(w.views)]
	}
	switch {
	case k%5 == 4:
		q.Direction = runs.DirDescendants
	case k%10 == 3:
		q.Witness = true
	}
	path := fmt.Sprintf("/v1/workflows/%s/runs/%s/lineage?artifact=%s&level=%s", w.id, q.Run, q.Artifact, q.Level)
	if q.View != "" {
		path += "&view=" + q.View
	}
	if q.Direction != "" {
		path += "&direction=" + q.Direction
	}
	if q.Witness {
		path += "&witness=1"
	}
	return &op{kind: "lineage", sub: q.Level, method: "GET", path: path,
		arg: &lineageQuery{w: w, run: rd, q: q}}
}

// lineageBatchOp draws a 16-query POST …/runs/query batch.
func lineageBatchOp(rng *rand.Rand, w *storeWorkflow, runIdx []int) *op {
	qs := make([]runs.Query, 16)
	for i := range qs {
		o := lineageOp(rng, w, runIdx, rng.Intn(40))
		qs[i] = o.arg.(*lineageQuery).q
		qs[i].Witness = false
	}
	return &op{kind: "batch", method: "POST", path: "/v1/workflows/" + w.id + "/runs/query",
		ctype: "application/json", body: mustJSON(server.RunQueryRequest{Queries: qs}),
		arg: &batchQuery{w: w, qs: qs}}
}

type batchQuery struct {
	w  *storeWorkflow
	qs []runs.Query
}

// newLineageRead builds the lineage-read workload: 8 layered workflows
// of n=2048, each with interval views of n/16 and n/64 composites (one
// of them made unsound) and 32 runs, half full and half quarter-window;
// a read-only stream of single lineage GETs (95%) and 16-query batches
// (5%) over Zipf-skewed artifacts. The store is durable, so the set-up
// goes through the journal and the run ends with a crash and recovery.
func newLineageRead(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	var wfs []*storeWorkflow
	for i := 0; i < sz.lrWorkflows; i++ {
		n := sz.lrTasks
		id := fmt.Sprintf("lr%d", i)
		wf := layered(id, n, rng.Int63())
		fine := gen.IntervalView(wf, n/16, "fine")
		coarse := gen.IntervalView(wf, n/64, "coarse")
		if i%2 == 0 {
			fine = gen.InjectUnsound(fine, 4, rng.Int63())
		} else {
			coarse = gen.InjectUnsound(coarse, 2, rng.Int63())
		}
		w := &storeWorkflow{id: id, wf: wf, views: []string{"fine", "coarse"}}
		w.reg = regBody(wf, map[string]*view.View{"fine": fine, "coarse": coarse}, w.views)
		for r := 0; r < sz.lrRuns; r++ {
			lo, hi := 0, n
			if r%2 == 1 {
				lo = rng.Intn(n - n/4 + 1)
				hi = lo + n/4
			}
			rd := newRunDoc(wf, fmt.Sprintf("r%02d", r), lo, hi, false)
			w.runs = append(w.runs, rd)
			w.picks = append(w.picks, newZipfPick(rng, len(rd.arts)))
		}
		wfs = append(wfs, w)
	}
	allRuns := make([]int, sz.lrRuns)
	for i := range allRuns {
		allRuns[i] = i
	}

	// Every block of 20 ops holds 19 single queries and one batch;
	// workflows take turns.
	kinds := mix(rng, sz.streamLen, []string{"lineage", "batch"}, []int{19, 1})
	ops := make([]*op, sz.streamLen)
	var singles, batches int
	for i, kind := range kinds {
		var o *op
		if kind == "batch" {
			o = lineageBatchOp(rng, wfs[batches%len(wfs)], allRuns)
			o.slot = slotThird
			batches++
		} else {
			o = lineageOp(rng, wfs[singles%len(wfs)], allRuns, singles/len(wfs))
			o.slot = slotMain
			if o.sub != runs.LevelExact {
				o.slot = slotSide
			}
			// A seeded eighth of the exact-level answers is checked
			// against the run-document BFS.
			o.check = o.sub == runs.LevelExact && rng.Intn(8) == 0
			singles++
		}
		ops[i] = o
	}

	wl := &workload{
		name:     "lineage-read",
		durable:  true,
		openFrac: 0.5,
		rate:     sz.lrRate,
		ops:      ops,
		named: []namedLat{
			{"lineage_p50_ms", "lineage", 0.5},
			{"lineage_p99_ms", "lineage", 0.99},
		},
		throughputName: "read_qps",
		inputs: func(emit func([]byte)) {
			for _, w := range wfs {
				emit(w.reg)
				for _, rd := range w.runs {
					emit(rd.json)
				}
			}
		},
	}
	wl.setup = func(ctx context.Context, c *client) error { return setupStore(ctx, c, wfs) }
	wl.check = checkLineageSamples
	wl.direct = directStoreOp
	// After the read-only load the data dir holds exactly the set-up's
	// journal; these answers are compared across a crash and recovery.
	var probes []*op
	for i := 0; i < 32; i++ {
		probes = append(probes, lineageOp(rng, wfs[i%len(wfs)], allRuns, i))
	}
	wl.finish = func(ctx context.Context, p *pass) error { return finishRecovery(ctx, p, wfs, probes) }
	return wl
}

// setupStore registers every workflow with its views and ingests its
// runs as one JSON-array batch (one group commit on a durable store),
// over conns connections.
func setupStore(ctx context.Context, c *client, wfs []*storeWorkflow) error {
	return parallel(len(wfs), func(i int) error {
		w := wfs[i]
		if _, err := c.call(ctx, "PUT", "/v1/workflows/"+w.id, "application/json", w.reg); err != nil {
			return err
		}
		_, err := c.call(ctx, "POST", "/v1/workflows/"+w.id+"/runs", "application/json", w.runBatch())
		return err
	})
}

// runBatch is the JSON array of the workflow's set-up run documents.
func (w *storeWorkflow) runBatch() []byte {
	if w.batch == nil {
		docs := make([][]byte, len(w.runs))
		for i, rd := range w.runs {
			docs[i] = rd.json
		}
		w.batch = append(append([]byte{'['}, bytes.Join(docs, []byte{','})...), ']')
	}
	return w.batch
}

// checkLineageSamples checks every kept exact-level answer against the
// reference BFS over its run document; answers repeat under Zipf
// skew, so references are memoized.
func checkLineageSamples(ss []sample) (int, []error) {
	type key struct {
		run  *runDoc
		art  string
		desc bool
	}
	memo := map[key]lineageAnswer{}
	wrong := 0
	var errs []error
	for i := range ss {
		s := &ss[i]
		if s.body == nil || !s.ok() {
			continue
		}
		lq := s.op.arg.(*lineageQuery)
		k := key{lq.run, lq.q.Artifact, lq.q.Direction == runs.DirDescendants}
		want, ok := memo[k]
		if !ok {
			want = lq.run.reference(lq.w.wf, k.art, k.desc)
			memo[k] = want
		}
		if err := checkLineage(s.body, want); err != nil {
			wrong++
			if len(errs) < 5 {
				errs = append(errs, fmt.Errorf("%s: %w", s.op.path, err))
			}
		}
	}
	return wrong, errs
}

// directStoreOp replays a run-store op through the public runs and
// engine calls its handler makes, with a span around each.
func directStoreOp(ctx context.Context, d *daemon, o *op, seq int64, tr *tracer) error {
	switch a := o.arg.(type) {
	case *lineageQuery:
		var ans *runs.Answer
		err := tr.time(seq, "runs.lineage."+a.q.Level, func() error {
			var err error
			ans, err = d.runs.LineageCtx(ctx, a.w.id, a.q)
			return err
		})
		if err != nil {
			return err
		}
		_ = tr.time(seq, "runs.encode", func() error {
			encodeSink = ans.AppendJSON(encodeSink[:0])
			return nil
		})
		ans.Release()
		return nil
	case *batchQuery:
		var res []runs.BatchResult
		err := tr.time(seq, "runs.batch", func() error {
			var err error
			res, err = d.runs.LineageBatch(ctx, a.w.id, a.qs, 0)
			return err
		})
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				runs.ReleaseResults(res)
				return r.Err
			}
			encodeSink = r.Answer.AppendJSON(encodeSink[:0])
		}
		runs.ReleaseResults(res)
		return nil
	}
	return directWriteOp(ctx, d, o, seq, tr)
}

// encodeSink keeps encoded answers live so the encode is not elided;
// the direct-call pass is sequential.
var encodeSink []byte
