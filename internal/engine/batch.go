package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"wolves/internal/core"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// ValidateJob is one unit of ValidateBatch work.
type ValidateJob struct {
	Workflow *workflow.Workflow
	View     *view.View
}

// ValidateResult pairs a job's report with its typed error; exactly one
// of the two is set.
type ValidateResult struct {
	Report *soundness.Report
	Err    *Error
}

// CorrectJob is one unit of CorrectBatch work.
type CorrectJob struct {
	Workflow  *workflow.Workflow
	View      *view.View
	Criterion core.Criterion
	// Options overrides the engine's corrector options for this job
	// (nil means the engine default).
	Options *core.Options
}

// CorrectResult pairs a job's correction with its typed error; exactly
// one of the two is set.
type CorrectResult struct {
	Correction *core.ViewCorrection
	Err        *Error
}

// FanOut runs n independent jobs over min(workers, n) goroutines that
// claim job indices with an atomic cursor: run(i) executes each job, and
// once ctx fires the unclaimed remainder completes immediately via
// onCanceled(i) instead of running. It is the scheduling core behind
// ValidateBatch/CorrectBatch, exported so sibling subsystems (the run
// store's batch lineage endpoint) share one worker-pool behavior.
func FanOut(ctx context.Context, workers, n int, run func(i int), onCanceled func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if ctx.Err() != nil {
				onCanceled(i)
			} else {
				run(i)
			}
		}
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
}

// ValidateBatch validates every job over the engine's worker pool and
// returns per-job results in input order. Jobs repeating a workflow
// share its cached oracle; a canceled ctx marks the remaining jobs with
// ErrCanceled instead of abandoning them silently.
func (e *Engine) ValidateBatch(ctx context.Context, jobs []ValidateJob) []ValidateResult {
	return e.ValidateBatchN(ctx, jobs, 0)
}

// ValidateBatchN is ValidateBatch with an explicit pool width (0 = the
// engine's Workers()). Callers running several batches concurrently
// split the engine width between them so the configured fan-out cap
// holds across the whole request.
func (e *Engine) ValidateBatchN(ctx context.Context, jobs []ValidateJob, workers int) []ValidateResult {
	if workers <= 0 {
		workers = e.Workers()
	}
	results := make([]ValidateResult, len(jobs))
	FanOut(ctx, workers, len(jobs),
		func(i int) {
			j := jobs[i]
			if err := checkView("validate", j.Workflow, j.View); err != nil {
				results[i] = ValidateResult{Err: err}
				return
			}
			// Within a batch each job validates sequentially; the batch
			// itself is the parallelism.
			rep, err := e.validate(ctx, e.Oracle(j.Workflow), j.View, 1)
			if err != nil {
				results[i] = ValidateResult{Err: wrapErr("validate", err)}
				return
			}
			results[i] = ValidateResult{Report: rep}
		},
		func(i int) {
			results[i] = ValidateResult{Err: wrapErr("validate", ctx.Err())}
		})
	return results
}

// CorrectBatch corrects every job over the engine's worker pool and
// returns per-job results in input order. Error handling is per job: one
// composite exceeding the Optimal limit fails only its own job.
func (e *Engine) CorrectBatch(ctx context.Context, jobs []CorrectJob) []CorrectResult {
	return e.CorrectBatchN(ctx, jobs, 0)
}

// CorrectBatchN is CorrectBatch with an explicit pool width (0 = the
// engine's Workers()); see ValidateBatchN.
func (e *Engine) CorrectBatchN(ctx context.Context, jobs []CorrectJob, workers int) []CorrectResult {
	if workers <= 0 {
		workers = e.Workers()
	}
	results := make([]CorrectResult, len(jobs))
	FanOut(ctx, workers, len(jobs),
		func(i int) {
			j := jobs[i]
			if err := checkView("correct", j.Workflow, j.View); err != nil {
				results[i] = CorrectResult{Err: err}
				return
			}
			// As in ValidateBatchN, the job's inner validation runs on
			// one worker so the batch does not multiply the fan-out cap.
			vc, err := e.correct(ctx, e.Oracle(j.Workflow), j.View, j.Criterion, j.Options, 1)
			if err != nil {
				results[i] = CorrectResult{Err: wrapErr("correct", err)}
				return
			}
			results[i] = CorrectResult{Correction: vc}
		},
		func(i int) {
			results[i] = CorrectResult{Err: wrapErr("correct", ctx.Err())}
		})
	return results
}
