package engine

import (
	"sync"
	"sync/atomic"

	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/obs"
	"wolves/internal/provenance"
	"wolves/internal/view"
)

// This file implements the epoch-stamped, lock-free read session that
// serves every lineage answer. Every committed state transition
// (registration, mutation, view attach/detach — the restore paths
// re-enter the same functions) publishes a fresh ReadEpoch through an
// atomic pointer: an immutable snapshot of exactly what a lineage query
// needs — the workflow version, the task-ID table, forked reachability
// label indexes, and per-view label indexes over the quotient graphs.
// A label build never fails (past its interval budget it finishes with
// bitmap rows), so a live workflow always has an epoch, except while
// the registry is restoring. Readers load the pointer and serve without
// ever touching the workflow's RWMutex. The lazily filled pieces — the
// per-view provenance audit and the task-ID index — are derived from
// the epoch itself, so they too are built and cached without a lock.

// ReadEpoch is an immutable snapshot of one live workflow version for
// lock-free lineage reads. Obtain one with LiveWorkflow.Epoch.
type ReadEpoch struct {
	version uint64
	taskIDs []string
	labels  *dag.Labels
	rev     *dag.Labels
	views   map[string]*EpochView
	// plainTasks is the workflow's task-ID plainness bit at publication
	// (workflow.Workflow.PlainIDs): an O(1) copy, never a scan.
	plainTasks bool

	// index maps task IDs to indices, built on first use by
	// LiveWorkflow.Lineage.
	indexOnce sync.Once
	index     map[string]int32
}

// EpochView is the per-view slice of a ReadEpoch: the immutable view
// object of that version, its soundness at publication, label indexes
// over the quotient graph, and the lazily cached provenance audit.
type EpochView struct {
	v     *view.View
	sound bool
	// labels/revLabels are the composite-level label indexes (forward
	// and ancestor direction).
	labels    *dag.Labels
	revLabels *dag.Labels
	// tasks is the epoch's forward task-level index: the ground truth
	// the audit checks the quotient labels against.
	tasks *dag.Labels
	// audit caches the provenance audit at this epoch's version.
	audit atomic.Pointer[provenance.ViewAudit]
}

// Version returns the workflow version the epoch snapshots.
func (ep *ReadEpoch) Version() uint64 { return ep.version }

// TaskID returns the ID of task index u at the epoch's version.
func (ep *ReadEpoch) TaskID(u int) string { return ep.taskIDs[u] }

// PlainTaskIDs reports that every task ID of the epoch is
// jsonscan.Plain, so answer encoders may copy them without escaping.
func (ep *ReadEpoch) PlainTaskIDs() bool { return ep.plainTasks }

// Tasks returns the number of tasks at the epoch's version.
func (ep *ReadEpoch) Tasks() int { return len(ep.taskIDs) }

// Labels returns the task-level reachability label index.
func (ep *ReadEpoch) Labels() *dag.Labels { return ep.labels }

// RevLabels returns the ancestor-direction task-level index:
// RevLabels().Reaches(v, u) ⇔ u reaches v.
func (ep *ReadEpoch) RevLabels() *dag.Labels { return ep.rev }

// View returns the epoch's snapshot of view vid, or nil when the view
// was not attached at this version.
func (ep *ReadEpoch) View(vid string) *EpochView { return ep.views[vid] }

// taskIndex resolves a task ID at the epoch's version.
func (ep *ReadEpoch) taskIndex(id string) (int, bool) {
	ep.indexOnce.Do(func() {
		ep.index = make(map[string]int32, len(ep.taskIDs))
		for i, tid := range ep.taskIDs {
			ep.index[tid] = int32(i)
		}
	})
	i, ok := ep.index[id]
	return int(i), ok
}

// View returns the immutable view object (views are replaced wholesale
// on mutation, never mutated in place).
func (ev *EpochView) View() *view.View { return ev.v }

// Sound reports the view's maintained soundness at the epoch's version.
func (ev *EpochView) Sound() bool { return ev.sound }

// Labels returns the composite-level label index.
func (ev *EpochView) Labels() *dag.Labels { return ev.labels }

// RevLabels returns the ancestor-direction composite-level index.
func (ev *EpochView) RevLabels() *dag.Labels { return ev.revLabels }

// Audit returns the provenance audit of the view at the epoch's version
// (spurious and missing composite pairs against ground truth). The
// first call builds it from the epoch's task labels and quotient labels
// and caches it with a compare-and-swap: concurrent first callers may
// each build one, and all return the one that was cached.
func (ev *EpochView) Audit() *provenance.ViewAudit {
	if a := ev.audit.Load(); a != nil {
		obs.MAuditCacheHits.Inc()
		return a
	}
	obs.MAuditCacheMisses.Inc()
	a := ev.buildAudit()
	if !ev.audit.CompareAndSwap(nil, a) {
		return ev.audit.Load()
	}
	return a
}

// buildAudit derives both audit relations from labels: a composite's
// ground-truth reach is the union of its members' task rows, mapped to
// composites; what the view reports upstream of b is b's ancestor row
// in the quotient.
func (ev *EpochView) buildAudit() *provenance.ViewAudit {
	v, k, n := ev.v, ev.v.N(), ev.tasks.N()
	truth := make([]*bitset.Set, k)
	mark := make([]uint64, dag.MarkWords(n))
	for c := 0; c < k; c++ {
		clear(mark)
		for _, t := range v.Composite(c).Members() {
			ev.tasks.MarkRow(mark, t)
		}
		truth[c] = bitset.New(k)
		for t := 0; t < n; t++ {
			if ev.tasks.Marked(mark, t) {
				truth[c].Set(v.CompOf(t))
			}
		}
	}
	reportedUp := make([]*bitset.Set, k)
	mark = make([]uint64, dag.MarkWords(k))
	for b := 0; b < k; b++ {
		clear(mark)
		ev.revLabels.MarkRow(mark, b)
		reportedUp[b] = bitset.New(k)
		for a := 0; a < k; a++ {
			if ev.revLabels.Marked(mark, a) {
				reportedUp[b].Set(a)
			}
		}
	}
	return provenance.NewViewAudit(truth, reportedUp)
}

// Epoch returns the current read epoch: nil only while the workflow is
// closed or the registry is restoring (BeginRestore to EndRestore). The
// returned epoch may lag the live version during an in-flight mutation;
// answers served from it are consistent as of its stamped version.
func (lw *LiveWorkflow) Epoch() *ReadEpoch { return lw.epoch.Load() }

// publishEpochLocked rebuilds and atomically publishes the read epoch.
// Callers hold the write lock (or own lw exclusively, pre-publication).
func (lw *LiveWorkflow) publishEpochLocked() {
	if lw.reg.restoring.Load() {
		// Replay mode (Registry.BeginRestore): defer the rebuild, clear
		// any stale epoch until EndRestore publishes.
		lw.epoch.Store(nil)
		return
	}
	ep := &ReadEpoch{
		version:    lw.version,
		taskIDs:    make([]string, lw.wf.N()),
		plainTasks: lw.wf.PlainIDs(),
		labels:     lw.ic.Labels().Fork(),
		rev:        lw.ic.RevLabels().Fork(),
		views:      make(map[string]*EpochView, len(lw.views)),
	}
	// The task-ID table is copied: ExtendTasks appends to the live
	// workflow's slice in place, so sharing the header with lock-free
	// readers would race.
	for i := range ep.taskIDs {
		ep.taskIDs[i] = lw.wf.Task(i).ID
	}
	for vid, lv := range lw.views {
		qg := lv.v.Graph()
		ep.views[vid] = &EpochView{
			v:         lv.v,
			sound:     lv.report.Sound,
			labels:    dag.BuildLabels(qg),
			revLabels: dag.BuildLabels(qg.Reversed()),
			tasks:     ep.labels,
		}
		lw.reg.viewLabelBuilds.Add(1)
	}
	lw.epoch.Store(ep)
	obs.MEpochPublishes.Inc()
}

// Lineage answers a provenance query for taskID through view vid from
// the read epoch, contrasting the exact workflow-level answer with the
// view-level one.
func (lw *LiveWorkflow) Lineage(vid, taskID string) (*LineageResult, error) {
	ep := lw.Epoch()
	if ep == nil {
		return nil, lw.errClosed("lineage")
	}
	ev := ep.views[vid]
	if ev == nil {
		return nil, errf(ErrUnknownView, "lineage", "no view %q on workflow %q", vid, lw.id)
	}
	t, ok := ep.taskIndex(taskID)
	if !ok {
		return nil, errf(ErrUnknownTask, "lineage", "no task %q in workflow %q", taskID, lw.id)
	}
	v, n := ev.v, ep.Tasks()
	home := v.CompOf(t)
	exact := make([]uint64, dag.MarkWords(n))
	ep.rev.MarkRow(exact, t)
	comps := make([]uint64, dag.MarkWords(v.N()))
	ev.revLabels.MarkRow(comps, home)
	res := &LineageResult{
		Task:             taskID,
		Version:          ep.version,
		ViewSound:        ev.sound,
		WorkflowLineage:  []string{},
		ViewLineage:      []string{},
		CompositeLineage: []string{},
	}
	for ci := 0; ci < v.N(); ci++ {
		if ci != home && ev.revLabels.Marked(comps, ci) {
			res.CompositeLineage = append(res.CompositeLineage, v.Composite(ci).ID)
		}
	}
	for u := 0; u < n; u++ {
		inExact := u != t && ep.rev.Marked(exact, u)
		if inExact {
			res.WorkflowLineage = append(res.WorkflowLineage, ep.taskIDs[u])
		}
		if cu := v.CompOf(u); cu != home && ev.revLabels.Marked(comps, cu) {
			res.ViewLineage = append(res.ViewLineage, ep.taskIDs[u])
			if !inExact {
				res.FalsePositives = append(res.FalsePositives, ep.taskIDs[u])
			}
		}
	}
	return res, nil
}

// LabelStats aggregates label-index counters for /v1/stats: lifetime
// build/rebuild/patch counts summed over resident workflows, plus the
// resident interval count and memory footprint of every live index
// (task-level and per-view).
type LabelStats struct {
	// Workflows counts resident workflows with a published read epoch.
	Workflows int `json:"workflows"`
	// Builds / Rebuilds / Patches are task-level index counters summed
	// over resident workflows: full builds, rebuilds forced past the
	// patch damage threshold, and incremental edge patches.
	Builds   int64 `json:"builds"`
	Rebuilds int64 `json:"rebuilds"`
	Patches  int64 `json:"patches"`
	// ViewBuilds is the lifetime count of view-level (quotient) label
	// builds across all publications.
	ViewBuilds int64 `json:"view_builds"`
	// Intervals / MemoryBytes cover every resident index, task-level
	// and view-level (Intervals counts interval rows only; dense-mode
	// bitmap rows show up in MemoryBytes). The task-level label pair is
	// the only task-level reachability a live workflow holds, so
	// MemoryBytes is the registry's whole reachability footprint.
	Intervals   int64 `json:"intervals"`
	MemoryBytes int64 `json:"memory_bytes"`
}

// LabelStats sweeps the resident workflows and aggregates their
// label-index counters.
func (r *Registry) LabelStats() LabelStats {
	r.mu.Lock()
	lws := make([]*LiveWorkflow, 0, len(r.lws))
	for _, lw := range r.lws {
		lws = append(lws, lw)
	}
	r.mu.Unlock()

	st := LabelStats{ViewBuilds: r.viewLabelBuilds.Load()}
	for _, lw := range lws {
		lw.mu.RLock()
		if lw.closed {
			lw.mu.RUnlock()
			continue
		}
		st.Builds += lw.ic.LabelBuilds()
		st.Rebuilds += lw.ic.LabelRebuilds()
		st.Patches += lw.ic.LabelPatches()
		ep := lw.epoch.Load()
		lw.mu.RUnlock()
		if ep == nil {
			continue // restoring
		}
		st.Workflows++
		st.Intervals += int64(ep.labels.Intervals()) + int64(ep.rev.Intervals())
		st.MemoryBytes += ep.labels.MemoryBytes() + ep.rev.MemoryBytes()
		for _, ev := range ep.views {
			st.Intervals += int64(ev.labels.Intervals()) + int64(ev.revLabels.Intervals())
			st.MemoryBytes += ev.labels.MemoryBytes() + ev.revLabels.MemoryBytes()
		}
	}
	return st
}
