// Package soundness implements the Workflow View Validator of WOLVES.
//
// It provides the set-soundness oracle used by every corrector
// (Definition 2.3: a composite task is sound iff every member receiving
// external input reaches every member producing external output), the
// task-level view validator justified by Proposition 2.1 (sequential and
// parallel), a direct Definition-2.1 path-preservation check, and the
// exponential path-enumeration strawman the paper contrasts against.
package soundness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Violation is a witness of unsoundness: an in-node of a composite that
// cannot reach one of its out-nodes in the workflow (Definition 2.3).
type Violation struct {
	From int // workflow task index in T.in
	To   int // workflow task index in T.out
}

// Reach is the task-level reachability an Oracle reads: a membership
// probe plus a row mark for batches of probes against one source.
// *dag.Closure implements it over node-indexed bit rows, *dag.Labels
// over interval covers, and *dag.IncrementalClosure through its current
// forward labels.
type Reach interface {
	// Reaches reports whether u reaches v, reflexively.
	Reaches(u, v int) bool
	// MarkRow sets u's reachable set in mark, a zeroed buffer of
	// dag.MarkWords(n) words for an n-task workflow.
	MarkRow(mark []uint64, u int)
	// Marked reports whether v was set in mark by a MarkRow: after
	// MarkRow(mark, u) it answers Reaches(u, v).
	Marked(mark []uint64, v int) bool
}

// Oracle answers set-soundness queries against one workflow, reusing
// precomputed reachability. It is safe for concurrent readers: per-call
// scratch state lives in a sync.Pool, and the instrumentation counter is
// atomic.
type Oracle struct {
	wf    *workflow.Workflow
	g     *dag.Graph
	reach Reach
	// checks counts SetSound invocations (experiment instrumentation).
	checks atomic.Int64
	// scratch pools the per-call buffers of SetSound/InOut so the steady
	// state allocates nothing per query.
	scratch sync.Pool
}

// oracleScratch is the reusable per-call state of a soundness query.
type oracleScratch struct {
	in, out []int
}

// NewOracle builds an oracle for wf, computing the reachability closure.
func NewOracle(wf *workflow.Workflow) *Oracle {
	return NewOracleWithReach(wf, wf.Graph(), wf.Graph().Reachability())
}

// NewOracleWithReach builds an oracle over a caller-supplied graph and
// reachability, skipping the closure computation of NewOracle. The
// engine registry hands its live workflow's IncrementalClosure in this
// way: it answers from labels patched as mutations arrive, and the
// oracle keeps no buffer sized by the task count, so one oracle serves
// the workflow across growth and rebuilds. The caller guarantees that g is
// wf's dependency graph, that reach is (and stays) its reachability, and
// that mutations are serialized against oracle readers.
func NewOracleWithReach(wf *workflow.Workflow, g *dag.Graph, reach Reach) *Oracle {
	o := &Oracle{wf: wf, g: g, reach: reach}
	o.scratch.New = func() any { return new(oracleScratch) }
	return o
}

// FirstUnreached returns the first t of outs (in order) that u does not
// reach, or -1. It probes pair by pair: out-sets are small next to the
// workflow, so this beats clearing and marking a whole row.
func FirstUnreached(r Reach, u int, outs []int) int {
	for _, t := range outs {
		if !r.Reaches(u, t) {
			return t
		}
	}
	return -1
}

// Workflow returns the underlying workflow.
func (o *Oracle) Workflow() *workflow.Workflow { return o.wf }

// Reach returns the workflow reachability the oracle reads.
func (o *Oracle) Reach() Reach { return o.reach }

// Checks returns the number of SetSound calls served so far.
func (o *Oracle) Checks() int { return int(o.checks.Load()) }

// ResetChecks zeroes the SetSound counter.
func (o *Oracle) ResetChecks() { o.checks.Store(0) }

// InOut computes U.in and U.out per Definition 2.2 for an arbitrary task
// set U (not necessarily a composite of any view): members with at least
// one predecessor (resp. successor) outside U.
func (o *Oracle) InOut(members *bitset.Set) (in, out []int) {
	return o.InOutAppend(members, nil, nil)
}

// InOutAppend is InOut appending into caller-owned buffers (pass
// buf[:0] to reuse capacity across calls on hot paths).
func (o *Oracle) InOutAppend(members *bitset.Set, in, out []int) ([]int, []int) {
	members.ForEach(func(t int) bool {
		for _, p := range o.g.Preds(t) {
			if !members.Test(int(p)) {
				in = append(in, t)
				break
			}
		}
		for _, s := range o.g.Succs(t) {
			if !members.Test(int(s)) {
				out = append(out, t)
				break
			}
		}
		return true
	})
	return in, out
}

// SetSound reports whether the task set U is sound (Definition 2.3) and,
// when it is not, returns the first violation in ascending (from, to)
// order. Reachability is reflexive, so singletons are always sound. The
// sound path performs zero allocations.
func (o *Oracle) SetSound(members *bitset.Set) (bool, *Violation) {
	if from, to := o.setSound(members); from != -1 {
		return false, &Violation{From: from, To: to}
	}
	return true, nil
}

// SetSoundQuick is SetSound without the witness: correctors probing
// block unions discard the violation, so this variant stays
// allocation-free on both outcomes.
func (o *Oracle) SetSoundQuick(members *bitset.Set) bool {
	from, _ := o.setSound(members)
	return from == -1
}

// setSound returns the first violation as (from, to), or (-1, -1).
func (o *Oracle) setSound(members *bitset.Set) (int, int) {
	o.checks.Add(1)
	sc := o.scratch.Get().(*oracleScratch)
	defer o.scratch.Put(sc)
	sc.in, sc.out = o.InOutAppend(members, sc.in[:0], sc.out[:0])
	if len(sc.in) == 0 || len(sc.out) == 0 {
		return -1, -1
	}
	for _, u := range sc.in {
		if missing := FirstUnreached(o.reach, u, sc.out); missing != -1 {
			return u, missing
		}
	}
	return -1, -1
}

// SoundSlice is SetSound over a task-index slice.
func (o *Oracle) SoundSlice(members []int) (bool, *Violation) {
	s := bitset.New(o.g.N())
	for _, t := range members {
		s.Set(t)
	}
	return o.SetSound(s)
}

// MemberSet converts a composite of v into a bitset over workflow tasks.
func MemberSet(v *view.View, ci int) *bitset.Set {
	s := bitset.New(v.Workflow().N())
	for _, t := range v.Composite(ci).Members() {
		s.Set(t)
	}
	return s
}

// memberSetInto fills dst with the members of composite ci.
func memberSetInto(dst *bitset.Set, v *view.View, ci int) {
	dst.Reset()
	for _, t := range v.Composite(ci).Members() {
		dst.Set(t)
	}
}

// CompositeReport is the validation result for a single composite task.
type CompositeReport struct {
	ID         string
	Index      int
	Sound      bool
	In, Out    []int       // Definition 2.2 interface sets (task indices)
	Violations []Violation // capped at MaxViolations witnesses
}

// MaxViolations bounds the witnesses gathered per composite so that
// reports on pathological views stay readable.
const MaxViolations = 16

// Report is the result of validating a view.
type Report struct {
	View       string
	Sound      bool
	Composites []CompositeReport
	// Unsound lists indices of unsound composites, ascending.
	Unsound []int
}

// validatorScratch is the reusable per-worker state of view validation.
type validatorScratch struct {
	members *bitset.Set
}

// validateComposite builds the report for composite ci using sc for all
// intermediate sets. Only the report payload (In, Out, Violations) is
// allocated.
func validateComposite(o *Oracle, v *view.View, ci int, sc *validatorScratch) CompositeReport {
	comp := v.Composite(ci)
	cr := CompositeReport{ID: comp.ID, Index: ci, Sound: true}
	memberSetInto(sc.members, v, ci)
	// One exact-fit allocation each: |In|, |Out| ≤ composite size. Empty
	// interface sets stay nil so reports keep matching the historical
	// shape (and NaiveValidator's, which still appends from nil).
	size := comp.Size()
	cr.In, cr.Out = o.InOutAppend(sc.members, make([]int, 0, size), make([]int, 0, size))
	if len(cr.In) == 0 {
		cr.In = nil
	}
	if len(cr.Out) == 0 {
		cr.Out = nil
	}
	for _, u := range cr.In {
		for _, to := range cr.Out {
			if o.reach.Reaches(u, to) {
				continue
			}
			cr.Sound = false
			if cr.Violations == nil {
				cr.Violations = make([]Violation, 0, MaxViolations)
			}
			cr.Violations = append(cr.Violations, Violation{From: u, To: to})
			if len(cr.Violations) >= MaxViolations {
				return cr
			}
		}
	}
	return cr
}

// assembleReport folds per-composite results into the view report.
func assembleReport(v *view.View, composites []CompositeReport) *Report {
	rep := &Report{View: v.Name(), Sound: true, Composites: composites}
	for ci := range composites {
		if !composites[ci].Sound {
			rep.Sound = false
			rep.Unsound = append(rep.Unsound, ci)
		}
	}
	return rep
}

// checkSameWorkflow panics unless v's workflow is interchangeable with
// the oracle's: the same object or a structurally identical one (equal
// fingerprints). Structural identity is what lets a long-lived oracle
// cache serve workflows decoded independently per request.
func (o *Oracle) checkSameWorkflow(v *view.View) {
	if !workflow.Same(v.Workflow(), o.wf) {
		panic("soundness: view belongs to a different workflow")
	}
}

// ValidateView checks every composite of v (Proposition 2.1) on the
// calling goroutine and returns a full diagnosis with witnesses. It
// cannot fail; ValidateViewCtx is the cancellable, parallel entry point.
func ValidateView(o *Oracle, v *view.View) *Report {
	rep, _ := validate(o, v, 1, func() error { return nil })
	return rep
}

// ValidateViewCtx is ValidateView with composites fanned out over a pool
// of workers (runtime.GOMAXPROCS when workers <= 0; 1 runs on the
// calling goroutine) and cooperative cancellation: ctx is polled before
// each composite is claimed, and a canceled context returns ctx's error
// instead of a partial report. The report is identical to ValidateView's:
// composites are validated independently and reassembled in index order.
func ValidateViewCtx(ctx context.Context, o *Oracle, v *view.View, workers int) (*Report, error) {
	return validate(o, v, workers, ctx.Err)
}

// parallelValidateThreshold is the composite count below which
// validation stays sequential: worker fan-out costs more than it saves
// on small views.
const parallelValidateThreshold = 8

// validate is the one validation loop behind ValidateView and
// ValidateViewCtx. Each worker claims composite indices from a shared
// cursor until the view is exhausted or stop reports an error.
func validate(o *Oracle, v *view.View, workers int, stop func() error) (*Report, error) {
	o.checkSameWorkflow(v)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := v.N()
	if k < parallelValidateThreshold {
		workers = 1
	}
	n := o.g.N()
	composites := make([]CompositeReport, k)
	var next atomic.Int64
	work := func() {
		sc := &validatorScratch{members: bitset.New(n)}
		for stop() == nil {
			ci := int(next.Add(1)) - 1
			if ci >= k {
				return
			}
			composites[ci] = validateComposite(o, v, ci, sc)
		}
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	for w := 1; w < min(workers, k); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	if err := stop(); err != nil {
		return nil, err
	}
	return assembleReport(v, composites), nil
}

// FalsePath is a Definition-2.1 witness at the view level: composites
// From → To are connected in the view graph although no member of From
// reaches any member of To in the workflow.
type FalsePath struct {
	From, To int // composite indices
}

// PathReport is the direct Definition-2.1 diagnosis of a view.
type PathReport struct {
	Sound      bool
	FalsePaths []FalsePath
	// MissingPaths would witness workflow paths absent from the view;
	// quotient views can never miss paths, so this is always empty and
	// retained only to document the asymmetry.
	MissingPaths []FalsePath
}

// ValidateViewPaths applies Definition 2.1 literally (but polynomially,
// via row marks): the view has a path between two composites iff some
// pair of their members is connected in the workflow. Unsound views only
// ever add paths; the test suite pins the corner case where this
// view-level check passes although a composite violates Definition 2.3.
func ValidateViewPaths(o *Oracle, v *view.View) *PathReport {
	rep := &PathReport{Sound: true}
	q := v.Graph()
	qReach := q.Reachability()
	k := v.N()
	mark := make([]uint64, dag.MarkWords(o.g.N()))
	// reachesAny reports whether a member of b is marked (mark = union of
	// the workflow reach rows of a's members).
	reachesAny := func(b int) bool {
		for _, t := range v.Composite(b).Members() {
			if o.reach.Marked(mark, t) {
				return true
			}
		}
		return false
	}
	for a := 0; a < k; a++ {
		clear(mark)
		for _, t := range v.Composite(a).Members() {
			o.reach.MarkRow(mark, t)
		}
		for b := 0; b < k; b++ {
			if a == b {
				continue
			}
			viewPath := qReach.Reaches(a, b)
			wfPath := reachesAny(b)
			if viewPath && !wfPath {
				rep.Sound = false
				rep.FalsePaths = append(rep.FalsePaths, FalsePath{From: a, To: b})
			}
			if wfPath && !viewPath {
				rep.Sound = false
				rep.MissingPaths = append(rep.MissingPaths, FalsePath{From: a, To: b})
			}
		}
	}
	return rep
}

// DescribeViolation renders a violation with task IDs.
func DescribeViolation(wf *workflow.Workflow, viol Violation) string {
	return fmt.Sprintf("%s ∈ T.in cannot reach %s ∈ T.out",
		wf.Task(viol.From).ID, wf.Task(viol.To).ID)
}
