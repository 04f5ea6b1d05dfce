package runs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"unicode/utf8"

	"wolves/internal/engine"
	"wolves/internal/jsonscan"
	"wolves/internal/storage"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file pins the served encoder's copy path: answers served from a
// store whose ID tables are all jsonscan.Plain are copied, not escaped,
// and must still be byte-identical to encoding/json; the plainness bits
// must be set where they can be and cleared wherever a non-plain ID
// enters.

// servedIDs names the one ID per table the fixture lets a caller
// choose: that of task 5, composite 5, artifact 5 and invocation 5.
// Every other ID is plain (t<k>, c<k>, a<k>, i<k>).
type servedIDs struct{ task, comp, art, inv string }

var plainServedIDs = servedIDs{task: "t5", comp: "c5", art: "a5", inv: "i5"}

const servedTasks = 24

// servedID is the ID of element k of a table: chosen for k = 5, prefix
// and k otherwise.
func servedID(prefix, chosen string, k int) string {
	if k == 5 {
		return chosen
	}
	return fmt.Sprintf("%s%d", prefix, k)
}

// servedWorkflow is a random DAG over servedTasks tasks (edges run
// from lower to higher index).
func servedWorkflow(ids servedIDs) (*workflow.Workflow, error) {
	b := workflow.NewBuilder("served")
	for k := 0; k < servedTasks; k++ {
		b.AddTask(servedID("t", ids.task, k))
	}
	rng := rand.New(rand.NewSource(3))
	for u := 0; u < servedTasks; u++ {
		for v := u + 1; v < servedTasks; v++ {
			if rng.Intn(5) == 0 {
				b.AddEdge(servedID("t", ids.task, u), servedID("t", ids.task, v))
			}
		}
	}
	return b.Build()
}

// servedView groups the tasks k with k mod 8 = j into composite j —
// non-convex on the random DAG, so the audited level reports spurious
// composites.
func servedView(ids servedIDs, comp string) func(*workflow.Workflow) (*view.View, error) {
	return func(wf *workflow.Workflow) (*view.View, error) {
		b := view.NewBuilder(wf, "v")
		for k := 0; k < wf.N(); k++ {
			b.Assign(servedID("c", comp, k%8), wf.Task(k).ID)
		}
		return b.Build()
	}
}

// servedRun invokes every task but the last once (invocation i<k>
// generating artifact a<k>), consumes artifacts along the workflow
// edges, and reads one external input x.
func servedRun(wf *workflow.Workflow, ids servedIDs) *wireRun {
	w := &wireRun{Run: "r"}
	for k := 0; k < servedTasks-1; k++ {
		inv := servedID("i", ids.inv, k)
		w.Invocations = append(w.Invocations, wireInvocation{ID: inv, Task: wf.Task(k).ID})
		w.Artifacts = append(w.Artifacts, wireArtifact{ID: servedID("a", ids.art, k), GeneratedBy: inv})
	}
	w.Artifacts = append(w.Artifacts, wireArtifact{ID: "x"})
	w.Used = append(w.Used, wireUsed{Process: w.Invocations[0].ID, Artifact: "x"})
	wf.Graph().Edges(func(u, v int) {
		if v < servedTasks-1 {
			w.Used = append(w.Used, wireUsed{Process: w.Invocations[v].ID, Artifact: w.Artifacts[u].ID})
		}
	})
	return w
}

// ingestWireRun ingests w as a live (journaled) ingest would, without
// a document encoding in between, so IDs reach the store byte for byte.
func ingestWireRun(s *Store, workflowID string, w *wireRun) error {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	_, err := s.ingestWire(context.Background(), workflowID, w, true, nil, sc)
	return err
}

// registerServed registers the fixture workflow as id, attaches view v
// and ingests run r.
func registerServed(reg *engine.Registry, s *Store, id string, ids servedIDs) error {
	wf, err := servedWorkflow(ids)
	if err != nil {
		return err
	}
	lw, err := reg.Register(id, wf)
	if err != nil {
		return err
	}
	if _, _, err := lw.AttachView("v", servedView(ids, ids.comp)); err != nil {
		return err
	}
	return ingestWireRun(s, id, servedRun(wf, ids))
}

// servedQueries is every level × direction × witness combination the
// store accepts, for every artifact of run r.
func servedQueries(t *testing.T, s *Store, workflowID string) []Query {
	t.Helper()
	_, run, err := s.lookup(workflowID, "r")
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for _, art := range run.artID {
		for _, level := range []string{LevelExact, LevelView, LevelAudited} {
			for _, dir := range []string{DirAncestors, DirDescendants} {
				for _, witness := range []bool{false, true} {
					if witness && dir != DirAncestors {
						continue
					}
					q := Query{Run: "r", Artifact: art, Level: level, Direction: dir, Witness: witness}
					if level != LevelExact {
						q.View = "v"
					}
					qs = append(qs, q)
				}
			}
		}
	}
	return qs
}

// matchMarshal serves every query singly and as one batch and fails
// unless each answer's AppendJSON equals json.Marshal byte for byte. It
// returns how many audited answers reported spurious composites.
func matchMarshal(t *testing.T, s *Store, workflowID string) (spurious int) {
	t.Helper()
	qs := servedQueries(t, s, workflowID)
	var buf []byte
	check := func(at string, a *Answer) {
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		buf = a.AppendJSON(buf[:0])
		if string(buf) != string(want) {
			t.Fatalf("%s: served bytes diverge from encoding/json\n got: %q\nwant: %q", at, buf, want)
		}
	}
	for _, q := range qs {
		a, err := s.Lineage(workflowID, q)
		if err != nil {
			t.Fatalf("%s %+v: %v", workflowID, q, err)
		}
		check(fmt.Sprintf("%s %+v", workflowID, q), a)
		if len(a.Spurious) > 0 {
			spurious++
		}
		a.Release()
	}
	results, err := s.LineageBatch(context.Background(), workflowID, qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s batch %+v: %v", workflowID, qs[i], res.Err)
		}
		check(fmt.Sprintf("%s batch %+v", workflowID, qs[i]), res.Answer)
	}
	ReleaseResults(results)
	return spurious
}

// servedBits are the four table bits as the serve path reads them.
type servedBits struct{ tasks, comps, arts, procs bool }

func bitsOf(t *testing.T, s *Store, workflowID string) servedBits {
	t.Helper()
	lw, run, err := s.lookup(workflowID, "r")
	if err != nil {
		t.Fatal(err)
	}
	ep := lw.Epoch()
	return servedBits{
		tasks: ep.PlainTaskIDs(),
		comps: ep.View("v").View().PlainIDs(),
		arts:  run.plainArts,
		procs: run.plainProcs,
	}
}

// nastyIDs are the nastyStrings that are valid IDs and not plain, plus
// one ID per byte class Plain rejects, each alone among plain bytes.
func nastyIDs() []string {
	var out []string
	for _, s := range nastyStrings {
		if s != "" && !jsonscan.Plain(s) {
			out = append(out, s)
		}
	}
	for _, c := range []string{`"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "\xff", "é"} {
		out = append(out, "id"+c+"5")
	}
	return out
}

// twin returns the plain fixture IDs with one table's chosen ID
// replaced by nasty.
func twin(table, nasty string) servedIDs {
	ids := plainServedIDs
	switch table {
	case "tasks":
		ids.task = nasty
	case "composites":
		ids.comp = nasty
	case "artifacts":
		ids.art = nasty
	case "invocations":
		ids.inv = nasty
	}
	return ids
}

var servedTables = []string{"tasks", "composites", "artifacts", "invocations"}

// TestServedAnswersMatchMarshal serves every level, direction and
// witness combination, singly and batched, from an all-plain store and
// from twins in which one table holds one nasty ID, and compares each
// answer with json.Marshal byte for byte. It pins the bit lifecycle
// too: set on the all-plain store (so the copy path cannot switch off
// silently), cleared by a non-plain task added through Mutate, kept
// cleared after a batch rolled back by TruncateTasks, cleared by a view
// replaced with a non-plain composite ID, and restored unchanged by
// RecoverWithRuns.
func TestServedAnswersMatchMarshal(t *testing.T) {
	reg := engine.NewRegistry(engine.New())
	s := New(reg)
	if err := registerServed(reg, s, "plain", plainServedIDs); err != nil {
		t.Fatal(err)
	}
	if got := bitsOf(t, s, "plain"); got != (servedBits{true, true, true, true}) {
		t.Fatalf("all-plain store bits = %+v, want all set", got)
	}
	a, err := s.Lineage("plain", Query{Run: "r", Artifact: "a20", Level: LevelAudited, View: "v", Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.plainTasks || !a.plainArts || !a.plainComps || !a.plainWitness {
		t.Fatalf("served answer does not carry the store's bits: %+v", a)
	}
	a.Release()
	if a.plainTasks || a.plainArts || a.plainComps || a.plainWitness {
		t.Fatal("Release kept a plainness bit")
	}
	if matchMarshal(t, s, "plain") == 0 {
		t.Fatal("fixture serves no spurious composites; the audited lists go unchecked")
	}

	for _, nasty := range nastyIDs() {
		for _, table := range servedTables {
			id := fmt.Sprintf("%s/%q", table, nasty)
			if err := registerServed(reg, s, id, twin(table, nasty)); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want := servedBits{table != "tasks", table != "composites", table != "artifacts", table != "invocations"}
			if got := bitsOf(t, s, id); got != want {
				t.Fatalf("%s: bits = %+v, want %+v", id, got, want)
			}
			matchMarshal(t, s, id)
		}
	}

	t.Run("lifecycle", func(t *testing.T) {
		reg := engine.NewRegistry(engine.New())
		s := New(reg)
		for _, id := range []string{"extend", "rollback", "replace"} {
			if err := registerServed(reg, s, id, plainServedIDs); err != nil {
				t.Fatal(err)
			}
		}
		const bad = "new<task>"

		// A non-plain task added by a committed batch clears the task
		// bit, and the composite bit of every view it extends.
		lw, _ := reg.Get("extend")
		if _, err := lw.Mutate(engine.Mutation{Tasks: []workflow.Task{{ID: bad}},
			Edges: [][2]string{{"t3", bad}}}); err != nil {
			t.Fatal(err)
		}
		if got := bitsOf(t, s, "extend"); got != (servedBits{false, false, true, true}) {
			t.Fatalf("after ExtendTasks(%q): bits = %+v", bad, got)
		}
		matchMarshal(t, s, "extend")

		// A batch rolled back by TruncateTasks leaves the task bit
		// cleared: the next published epoch still escapes.
		lw, _ = reg.Get("rollback")
		if _, err := lw.Mutate(engine.Mutation{Tasks: []workflow.Task{{ID: bad}},
			Edges: [][2]string{{bad, "t0"}, {"t0", bad}}}); !engine.IsCode(err, engine.ErrCycleRejected) {
			t.Fatalf("cyclic batch: err = %v, want cycle_rejected", err)
		}
		if snap, _, err := lw.Snapshot(); err != nil || snap.PlainIDs() {
			t.Fatalf("after rollback: workflow PlainIDs = %v (err %v), want false", snap.PlainIDs(), err)
		}
		if _, err := lw.Mutate(engine.Mutation{Tasks: []workflow.Task{{ID: "t99"}}}); err != nil {
			t.Fatal(err)
		}
		if got := bitsOf(t, s, "rollback"); got != (servedBits{false, true, true, true}) {
			t.Fatalf("after rollback and a plain commit: bits = %+v", got)
		}
		matchMarshal(t, s, "rollback")

		// Replacing the view with one holding a non-plain composite ID
		// clears the composite bit.
		lw, _ = reg.Get("replace")
		if _, _, err := lw.AttachView("v", servedView(plainServedIDs, "c<5>")); err != nil {
			t.Fatal(err)
		}
		if got := bitsOf(t, s, "replace"); got != (servedBits{true, false, true, true}) {
			t.Fatalf("after view replace: bits = %+v", got)
		}
		matchMarshal(t, s, "replace")
	})

	t.Run("recovery", func(t *testing.T) {
		// Workflows and views are journaled as JSON, so the recovered
		// twins use a nasty ID that is valid UTF-8.
		const nasty = "<script>&amp;</script>"
		if !utf8.ValidString(nasty) || jsonscan.Plain(nasty) {
			t.Fatal("recovery twin ID must be valid UTF-8 and not plain")
		}
		dir := t.TempDir()
		open := func() (*storage.Store, *engine.Registry, *Store) {
			st, err := storage.Open(dir, storage.Options{Fsync: storage.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			reg := engine.NewRegistry(engine.New())
			s := New(reg)
			st.SetRunProvider(s)
			if _, err := st.RecoverWithRuns(reg, s); err != nil {
				t.Fatal(err)
			}
			reg.SetJournal(st)
			s.SetJournal(st)
			return st, reg, s
		}
		st, reg, s := open()
		ids := map[string]servedIDs{"plain": plainServedIDs}
		for _, table := range servedTables {
			ids[table] = twin(table, nasty)
		}
		want := map[string]servedBits{}
		for id, fx := range ids {
			if err := registerServed(reg, s, id, fx); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want[id] = bitsOf(t, s, id)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, reg, s = open()
		defer st.Close()
		for id := range ids {
			if got := bitsOf(t, s, id); got != want[id] {
				t.Fatalf("%s: recovered bits = %+v, want %+v", id, got, want[id])
			}
			matchMarshal(t, s, id)
		}
	})
}

// FuzzServedAnswerMatchesMarshal turns fuzz strings into one task, one
// composite, one artifact and one invocation ID of the served fixture,
// registers, ingests and serves it, and compares every answer's
// AppendJSON with json.Marshal. Inputs the fixture cannot hold (an
// empty or duplicate ID) are skipped.
func FuzzServedAnswerMatchesMarshal(f *testing.F) {
	f.Add("t5", "c5", "a5", "i5")
	for _, s := range nastyIDs() {
		f.Add(s, s, s, s)
	}
	f.Add("<", " ", "\xff", `"`)
	f.Fuzz(func(t *testing.T, task, comp, art, inv string) {
		reg := engine.NewRegistry(engine.New())
		s := New(reg)
		ids := servedIDs{task: task, comp: comp, art: art, inv: inv}
		if err := registerServed(reg, s, "wf", ids); err != nil {
			return
		}
		want := servedBits{jsonscan.Plain(task), jsonscan.Plain(comp), jsonscan.Plain(art), jsonscan.Plain(inv)}
		if got := bitsOf(t, s, "wf"); got != want {
			t.Fatalf("bits = %+v, want %+v", got, want)
		}
		matchMarshal(t, s, "wf")
	})
}
