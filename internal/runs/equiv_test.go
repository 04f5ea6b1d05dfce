package runs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wolves/internal/bitset"
	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// rowsOracle answers lineage queries from closure rows built from
// scratch at one quiesced version: a provenance.Engine over a snapshot
// of the live workflow and, per attached view, a ViewEngine and its
// AuditView. It shares nothing with the serve path but the run's own
// tables, so it is the independent reference the epoch answers are
// checked against.
type rowsOracle struct {
	id      string
	version uint64
	wf      *workflow.Workflow
	prov    *provenance.Engine
	views   map[string]oracleView
}

type oracleView struct {
	v     *view.View
	ve    *provenance.ViewEngine
	audit *provenance.ViewAudit
	sound bool
}

func newRowsOracle(t *testing.T, lw *engine.LiveWorkflow) *rowsOracle {
	t.Helper()
	snap, version, err := lw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	o := &rowsOracle{id: lw.ID(), version: version, wf: snap,
		prov: provenance.NewEngine(snap), views: map[string]oracleView{}}
	var attached []engine.AttachedView
	if err := lw.State(func(st *engine.LiveState) error {
		attached = st.Views
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, av := range attached {
		rep, _, err := lw.Report(av.ID)
		if err != nil {
			t.Fatal(err)
		}
		o.views[av.ID] = oracleView{v: av.View, ve: provenance.NewViewEngine(av.View),
			audit: provenance.AuditView(o.prov, av.View), sound: rep.Sound}
	}
	return o
}

// answer is the closure-row answer to q: the task set is a closure row
// (exact) or the member set of the view-level ancestor or descendant
// composites (view, audited), restricted to the run's invocations.
func (o *rowsOracle) answer(run *Run, q Query, ai int32) *Answer {
	level, dir := q.Level, q.Direction
	if level == "" {
		level = LevelExact
	}
	if dir == "" {
		dir = DirAncestors
	}
	ans := newAnswer()
	ans.Workflow, ans.Run, ans.Artifact = o.id, q.Run, q.Artifact
	ans.Level, ans.Direction, ans.Version = level, dir, o.version
	ov := o.views[q.View]
	if level != LevelExact {
		ans.View = q.View
		ans.viewSoundVal = ov.sound
		ans.ViewSound = &ans.viewSoundVal
	}
	gen := run.artGen[ai]
	if gen < 0 {
		if level == LevelAudited {
			ans.soundVal = true
			ans.Sound = &ans.soundVal
		}
		return ans
	}
	t := int(run.procTask[gen])
	ans.Producer = o.wf.Task(t).ID
	anc := dir == DirAncestors

	var want *bitset.Set
	switch {
	case level == LevelExact && anc:
		want = o.prov.LineageSet(t)
	case level == LevelExact:
		want = o.prov.DescendantSet(t)
	default:
		home := ov.v.CompOf(t)
		comps, tasks := ov.ve.CompositeLineage(home), ov.ve.TaskLineage(t)
		spur, miss := ov.audit.SpuriousUpstream[home], ov.audit.MissingUpstream[home]
		if !anc {
			comps, tasks = ov.ve.CompositeDescendants(home), ov.ve.TaskDescendants(t)
			spur, miss = ov.audit.SpuriousDownstream[home], ov.audit.MissingDownstream[home]
		}
		for _, ci := range comps {
			ans.Composites = append(ans.Composites, ov.v.Composite(ci).ID)
		}
		want = bitset.New(o.wf.N())
		for _, u := range tasks {
			want.Set(u)
		}
		if level == LevelAudited {
			for _, ci := range spur {
				ans.Spurious = append(ans.Spurious, ov.v.Composite(ci).ID)
				for _, m := range ov.v.Composite(ci).Members() {
					if run.inRun(m) {
						ans.SpuriousTasks = append(ans.SpuriousTasks, o.wf.Task(m).ID)
					}
				}
			}
			for _, ci := range miss {
				ans.Missing = append(ans.Missing, ov.v.Composite(ci).ID)
			}
			ans.soundVal = len(spur) == 0 && len(miss) == 0
			ans.Sound = &ans.soundVal
		}
	}
	want.ForEach(func(u int) bool {
		if u != t && run.inRun(u) {
			ans.Tasks = append(ans.Tasks, o.wf.Task(u).ID)
		}
		return true
	})
	for i, g := range run.artGen {
		if g >= 0 {
			if u := int(run.procTask[g]); u != t && want.Test(u) {
				ans.Artifacts = append(ans.Artifacts, run.artID[i])
			}
		}
	}
	if q.Witness {
		ans.Witness = run.appendWitness(ans.Witness[:0], ai)
	}
	return ans
}

// lineage is the closure-row LiveWorkflow.Lineage answer for task t
// through view vid.
func (o *rowsOracle) lineage(vid string, t int) *engine.LineageResult {
	ov := o.views[vid]
	ids := func(idx []int) []string {
		out := []string{}
		for _, u := range idx {
			out = append(out, o.wf.Task(u).ID)
		}
		return out
	}
	exact, viewed := o.prov.Lineage(t), ov.ve.TaskLineage(t)
	res := &engine.LineageResult{
		Task:             o.wf.Task(t).ID,
		Version:          o.version,
		ViewSound:        ov.sound,
		WorkflowLineage:  ids(exact),
		ViewLineage:      ids(viewed),
		CompositeLineage: ids(nil),
	}
	for _, ci := range ov.ve.CompositeLineage(ov.v.CompOf(t)) {
		res.CompositeLineage = append(res.CompositeLineage, ov.v.Composite(ci).ID)
	}
	for _, u := range viewed {
		if !o.prov.Reaches(u, t) {
			res.FalsePositives = append(res.FalsePositives, o.wf.Task(u).ID)
		}
	}
	return res
}

// checkAgainstOracle compares the served answer of every query, and
// LiveWorkflow.Lineage of task t through every view, with o's
// closure-row answers, byte for byte on the wire. It returns the number
// of comparisons.
func checkAgainstOracle(t *testing.T, at string, s *Store, lw *engine.LiveWorkflow, o *rowsOracle, runID string, qs []Query, task int) int {
	t.Helper()
	_, run, err := s.lookup(lw.ID(), runID)
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf []byte
	for _, q := range qs {
		got, err := s.Lineage(lw.ID(), q)
		if err != nil {
			t.Fatalf("%s %+v: %v", at, q, err)
		}
		want := o.answer(run, q, run.artIdx[q.Artifact])
		gotBuf = got.AppendJSON(gotBuf[:0])
		wantBuf = want.AppendJSON(wantBuf[:0])
		if string(gotBuf) != string(wantBuf) {
			t.Fatalf("%s %+v:\nserved: %s\nrows:   %s", at, q, gotBuf, wantBuf)
		}
		got.Release()
		want.Release()
	}
	for vid := range o.views {
		got, err := lw.Lineage(vid, o.wf.Task(task).ID)
		if err != nil {
			t.Fatalf("%s Lineage(%s, %d): %v", at, vid, task, err)
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(o.lineage(vid, task))
		if string(g) != string(w) {
			t.Fatalf("%s Lineage(%s, %d):\nserved: %s\nrows:   %s", at, vid, task, g, w)
		}
	}
	return len(qs) + len(o.views)
}

// TestLabelAnswersMatchClosureRows is the equivalence property behind
// the label-indexed serve path: over a long random mutation history —
// edge insertions (including rejected cycles), task growth, view
// attach/detach, runs ingested mid-stream — every lineage query must
// produce byte-identical answers from the read epoch and from closure
// rows built from scratch at that version (rowsOracle), at every level
// and direction, witness included; LiveWorkflow.Lineage is checked
// against the same oracle. The wire bytes (AppendJSON) are compared, so
// field-order, omitempty and pointer-bool behaviour are pinned too.
func TestLabelAnswersMatchClosureRows(t *testing.T) {
	const (
		tasks     = 90
		mutations = 1100
	)
	rng := rand.New(rand.NewSource(7))
	wf := gen.Layered(gen.LayeredConfig{
		Name: "equiv", Tasks: tasks, Layers: 9, EdgeProb: 0.08, SkipProb: 0.02, Seed: 7,
	})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.Register("wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg)

	ids := make([]string, 0, tasks+mutations)
	for i := 0; i < wf.N(); i++ {
		ids = append(ids, wf.Task(i).ID)
	}

	// Two resident views: a clean partition and one with injected
	// unsound merges, so the quotient labels also cover cyclic
	// condensations and spurious/missing audit deltas.
	viewSeq := 0
	attach := func(unsound bool) string {
		vid := fmt.Sprintf("v%d", viewSeq)
		seed := int64(viewSeq)
		viewSeq++
		if _, _, err := lw.AttachView(vid, func(wf *workflow.Workflow) (*view.View, error) {
			v := gen.RandomView(wf, 8+int(seed)%5, seed, vid)
			if unsound {
				v = gen.InjectUnsound(v, 3, seed)
			}
			return v, nil
		}); err != nil {
			t.Fatal(err)
		}
		return vid
	}
	views := []string{attach(false), attach(true)}

	// runDoc invokes a random subset of the current tasks, one artifact
	// each, a used edge per consecutive invoked pair, plus one external
	// input artifact (never generated) to exercise the gen<0 branch.
	runSeq := 0
	ingest := func() (string, []string) {
		runID := fmt.Sprintf("r%d", runSeq)
		runSeq++
		doc := struct {
			Run       string           `json:"run"`
			Artifacts []map[string]any `json:"artifacts"`
			Used      []map[string]any `json:"used"`
		}{Run: runID}
		var arts []string
		var prev string
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				continue
			}
			art := "a:" + runID + ":" + id
			doc.Artifacts = append(doc.Artifacts, map[string]any{"id": art, "generated_by": id})
			if prev != "" && rng.Intn(2) == 0 {
				doc.Used = append(doc.Used, map[string]any{"process": id, "artifact": prev})
			}
			prev = art
			arts = append(arts, art)
		}
		if prev != "" {
			// The last producer also consumes an external input (declared
			// with no generated_by).
			ext := "ext:" + runID
			doc.Artifacts = append(doc.Artifacts, map[string]any{"id": ext})
			doc.Used = append(doc.Used, map[string]any{
				"process": doc.Artifacts[len(doc.Artifacts)-2]["generated_by"], "artifact": ext})
			arts = append(arts, ext)
		}
		raw, merr := json.Marshal(doc)
		if merr != nil {
			t.Fatal(merr)
		}
		if _, ierr := s.Ingest("wf", raw); ierr != nil {
			t.Fatal(ierr)
		}
		return runID, arts
	}
	runID, arts := ingest()

	compared := 0
	check := func(step int) {
		art := arts[rng.Intn(len(arts))]
		qs := []Query{
			{Run: runID, Artifact: art},
			{Run: runID, Artifact: art, Direction: DirDescendants},
			{Run: runID, Artifact: art, Witness: true},
		}
		for _, vid := range views {
			for _, level := range []string{LevelView, LevelAudited} {
				qs = append(qs,
					Query{Run: runID, Artifact: art, Level: level, View: vid},
					Query{Run: runID, Artifact: art, Level: level, View: vid, Direction: DirDescendants},
					Query{Run: runID, Artifact: art, Level: level, View: vid, Witness: true},
				)
			}
		}
		// The Lineage task is picked without the rng, so the mutation
		// history stays the one this seed has always produced.
		o := newRowsOracle(t, lw)
		compared += checkAgainstOracle(t, fmt.Sprint("step ", step), s, lw, o, runID, qs, step%len(ids))
	}

	grown := 0
	for step := 0; step < mutations; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // random edge; cycle rejections roll back (also covered)
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if _, merr := lw.Mutate(engine.Mutation{Edges: [][2]string{{u, v}}}); merr != nil {
				var ee *engine.Error
				if !errors.As(merr, &ee) || (ee.Code != engine.ErrCycleRejected && ee.Code != engine.ErrBadInput) {
					t.Fatalf("step %d: mutate(%s->%s): %v", step, u, v, merr)
				}
			}
		case op < 80: // grow the task space, usually wired to an existing task
			id := fmt.Sprintf("g%d", grown)
			grown++
			m := engine.Mutation{Tasks: []workflow.Task{{ID: id}}}
			if rng.Intn(4) > 0 {
				m.Edges = [][2]string{{ids[rng.Intn(len(ids))], id}}
			}
			if _, merr := lw.Mutate(m); merr != nil {
				t.Fatalf("step %d: grow %s: %v", step, id, merr)
			}
			ids = append(ids, id)
		case op < 88: // churn a view: detach the oldest, attach a fresh one
			if derr := lw.DetachView(views[0]); derr != nil {
				t.Fatalf("step %d: detach %s: %v", step, views[0], derr)
			}
			views = append(views[1:], attach(rng.Intn(2) == 0))
		default: // ingest a fresh run over the grown task space
			runID, arts = ingest()
		}
		if step%3 == 0 {
			check(step)
		}
	}
	if compared == 0 {
		t.Fatal("no comparisons ran")
	}
	t.Logf("compared %d answers over %d mutations", compared, mutations)
}

// TestEpochReadsUnderMutation hammers the public lineage paths from
// concurrent readers while a writer churns edges, tasks and views —
// the race detector checks the epoch publication protocol, and every
// read must still come back well-formed (or ErrUnknownView during a
// detach window).
func TestEpochReadsUnderMutation(t *testing.T) {
	wf := gen.Layered(gen.LayeredConfig{
		Name: "epoch", Tasks: 64, Layers: 8, EdgeProb: 0.1, Seed: 11,
	})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.Register("wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachView("iv", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 8, "iv"), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	doc := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: "r"}
	for i := 0; i < wf.N(); i++ {
		doc.Artifacts = append(doc.Artifacts, map[string]any{
			"id": "a" + wf.Task(i).ID, "generated_by": wf.Task(i).ID})
	}
	raw, _ := json.Marshal(doc)
	if _, err := s.Ingest("wf", raw); err != nil {
		t.Fatal(err)
	}

	// Snapshot the queryable artifacts up front: the mutator grows wf in
	// place, so readers must not touch it concurrently.
	artNames := make([]string, wf.N())
	for i := range artNames {
		artNames[i] = "a" + wf.Task(i).ID
	}
	taskIDs := make([]string, wf.N())
	for i := range taskIDs {
		taskIDs[i] = wf.Task(i).ID
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				q := Query{Run: "r", Artifact: artNames[rng.Intn(len(artNames))]}
				switch rng.Intn(4) {
				case 1:
					q.Level, q.View = LevelView, "iv"
				case 2:
					q.Level, q.View = LevelAudited, "iv"
				case 3:
					// The view lineage endpoint reads the same epoch.
					if _, lerr := lw.Lineage("iv", taskIDs[rng.Intn(len(taskIDs))]); lerr != nil &&
						!engine.IsCode(lerr, engine.ErrUnknownView) {
						errs <- fmt.Errorf("reader %d: %w", g, lerr)
						return
					}
					continue
				}
				ans, qerr := s.Lineage("wf", q)
				if qerr != nil {
					var ee *engine.Error
					if errors.As(qerr, &ee) && ee.Code == engine.ErrUnknownView {
						continue // detach window
					}
					errs <- fmt.Errorf("reader %d: %w", g, qerr)
					return
				}
				if ans.Run != "r" || ans.Level == "" {
					errs <- fmt.Errorf("reader %d: torn answer %+v", g, ans)
					return
				}
				ans.Release()
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0:
			_ = lw.DetachView("iv")
			if _, _, err := lw.AttachView("iv", func(wf *workflow.Workflow) (*view.View, error) {
				return gen.IntervalView(wf, 8, "iv"), nil
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			id := fmt.Sprintf("m%d", step)
			if _, err := lw.Mutate(engine.Mutation{Tasks: []workflow.Task{{ID: id}}}); err != nil {
				t.Fatal(err)
			}
		default:
			u := taskIDs[rng.Intn(len(taskIDs))]
			v := taskIDs[rng.Intn(len(taskIDs))]
			_, _ = lw.Mutate(engine.Mutation{Edges: [][2]string{{u, v}}}) // cycles roll back
		}
	}
	close(stop)
	for g := 0; g < 4; g++ {
		if rerr := <-errs; rerr != nil {
			t.Fatal(rerr)
		}
	}
}

// TestOverBudgetWorkflowServesFromEpoch covers the input whose task
// labels overrun the interval budget: a random 1024×1024 bipartite
// stage at p=0.5. The workflow must still publish a read epoch, and its
// exact, view and audited answers, witness included, must match the
// closure-row oracle. The atomic view's quotient is the workflow itself,
// so its labels go dense too; merging random task pairs of it gives a
// cyclic quotient with spurious composites; the coarse random view
// keeps its quotient labels in interval mode.
func TestOverBudgetWorkflowServesFromEpoch(t *testing.T) {
	const k = 1024
	rng := rand.New(rand.NewSource(3))
	b := workflow.NewBuilder("bipartite")
	for i := 0; i < 2*k; i++ {
		b.AddTask(fmt.Sprint("t", i))
	}
	for u := 0; u < k; u++ {
		for v := k; v < 2*k; v++ {
			if rng.Float64() < 0.5 {
				b.AddEdge(fmt.Sprint("t", u), fmt.Sprint("t", v))
			}
		}
	}
	wf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.Register("wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	if lw.Epoch() == nil {
		t.Fatal("over-budget workflow published no read epoch")
	}
	for vid, build := range map[string]func(*workflow.Workflow) *view.View{
		"atomic": view.Atomic,
		"merged": func(wf *workflow.Workflow) *view.View {
			return gen.InjectUnsound(view.Atomic(wf), 24, 4)
		},
		"coarse": func(wf *workflow.Workflow) *view.View {
			return gen.RandomView(wf, 48, 4, "coarse")
		},
	} {
		if _, _, err := lw.AttachView(vid, func(wf *workflow.Workflow) (*view.View, error) {
			return build(wf), nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Every task runs once with one artifact; each sink also uses two
	// random source artifacts, and one source an external input.
	doc := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: "r"}
	for i := 0; i < 2*k; i++ {
		id := fmt.Sprint("t", i)
		doc.Artifacts = append(doc.Artifacts, map[string]any{"id": "a" + id, "generated_by": id})
		if i >= k {
			for j := 0; j < 2; j++ {
				doc.Used = append(doc.Used, map[string]any{"process": id, "artifact": fmt.Sprint("at", rng.Intn(k))})
			}
		}
	}
	doc.Artifacts = append(doc.Artifacts, map[string]any{"id": "ext"})
	doc.Used = append(doc.Used, map[string]any{"process": "t0", "artifact": "ext"})
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	if _, err := s.Ingest("wf", raw); err != nil {
		t.Fatal(err)
	}

	var qs []Query
	for _, art := range []string{"at0", fmt.Sprint("at", k-1), fmt.Sprint("at", k), fmt.Sprint("at", 2*k-1), "ext"} {
		qs = append(qs,
			Query{Run: "r", Artifact: art},
			Query{Run: "r", Artifact: art, Direction: DirDescendants},
			Query{Run: "r", Artifact: art, Witness: true},
		)
		for _, vid := range []string{"atomic", "merged", "coarse"} {
			for _, level := range []string{LevelView, LevelAudited} {
				qs = append(qs,
					Query{Run: "r", Artifact: art, Level: level, View: vid},
					Query{Run: "r", Artifact: art, Level: level, View: vid, Direction: DirDescendants},
					Query{Run: "r", Artifact: art, Level: level, View: vid, Witness: true},
				)
			}
		}
	}
	o := newRowsOracle(t, lw)
	if o.views["merged"].audit.FalsePairs == 0 {
		t.Fatal("merged view has no spurious pairs; the audited delta would not be exercised")
	}
	checkAgainstOracle(t, "queries", s, lw, o, "r", qs, 0)
	for _, task := range []int{k, 2*k - 1} {
		checkAgainstOracle(t, fmt.Sprint("task ", task), s, lw, o, "r", nil, task)
	}
}
