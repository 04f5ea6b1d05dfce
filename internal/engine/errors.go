package engine

import (
	"context"
	"errors"
	"fmt"

	"wolves/internal/core"
	"wolves/internal/dag"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Code classifies an Engine error for programmatic handling (and maps
// one-to-one onto wolvesd HTTP statuses).
type Code string

// Error codes. The names mirror the conditions they classify; use
// errors.As to recover the *Error and switch on Code.
const (
	// ErrBadInput: a nil or structurally invalid argument.
	ErrBadInput Code = "bad_input"
	// ErrUnknownTask: a task ID that does not exist in the workflow.
	ErrUnknownTask Code = "unknown_task"
	// ErrUnknownComposite: a composite ID that does not exist in the view.
	ErrUnknownComposite Code = "unknown_composite"
	// ErrWorkflowMismatch: the view belongs to a structurally different
	// workflow than the one given.
	ErrWorkflowMismatch Code = "workflow_mismatch"
	// ErrOptimalLimit: the composite exceeds Options.OptimalLimit.
	ErrOptimalLimit Code = "optimal_limit"
	// ErrCanceled: the context was canceled or its deadline expired.
	ErrCanceled Code = "canceled"
	// ErrUnknownWorkflow: a registry workflow ID that is not registered
	// (wolvesd maps it to 404).
	ErrUnknownWorkflow Code = "unknown_workflow"
	// ErrUnknownView: a view ID not attached to the live workflow
	// (wolvesd maps it to 404).
	ErrUnknownView Code = "unknown_view"
	// ErrVersionConflict: a conditional mutation named a version other
	// than the live workflow's current one (wolvesd maps it to 409).
	ErrVersionConflict Code = "version_conflict"
	// ErrCycleRejected: a mutation edge would create a dependency cycle;
	// the whole batch was rolled back (wolvesd maps it to 422).
	ErrCycleRejected Code = "cycle_rejected"
	// ErrInvalidTrace: an execution trace failed ingestion validation —
	// unknown task, duplicate artifact, dangling used edge, empty run,
	// torn NDJSON line (wolvesd maps it to 422).
	ErrInvalidTrace Code = "invalid_trace"
	// ErrUnknownRun: a run ID not ingested for the live workflow (wolvesd
	// maps it to 404).
	ErrUnknownRun Code = "unknown_run"
	// ErrUnknownArtifact: a lineage query named an artifact the run does
	// not contain (wolvesd maps it to 404).
	ErrUnknownArtifact Code = "unknown_artifact"
	// ErrDegraded: the registry's journal is unavailable and the registry
	// is serving in degraded read-only mode — queries keep working from
	// memory, mutations and ingests are rejected until the background
	// probe reopens the journal (wolvesd maps it to 503 + Retry-After).
	ErrDegraded Code = "degraded"
	// ErrOverloaded: the server shed this request under admission control
	// (wolvesd maps it to 503 + Retry-After).
	ErrOverloaded Code = "overloaded"
	// ErrInternal: everything else.
	ErrInternal Code = "internal"
)

// allCodes enumerates every declared Code. The list is machine-checked:
// wolveslint's errcode analyzer fails the build if a declared constant
// is missing here, so Codes() can never silently lag the const block.
//
//lint:exhaustive errcode
var allCodes = []Code{
	ErrBadInput,
	ErrUnknownTask,
	ErrUnknownComposite,
	ErrWorkflowMismatch,
	ErrOptimalLimit,
	ErrCanceled,
	ErrUnknownWorkflow,
	ErrUnknownView,
	ErrVersionConflict,
	ErrCycleRejected,
	ErrInvalidTrace,
	ErrUnknownRun,
	ErrUnknownArtifact,
	ErrDegraded,
	ErrOverloaded,
	ErrInternal,
}

// Codes returns every declared error code, in declaration order. Tests
// iterate it to pin down how each code surfaces (HTTP status, retry
// semantics) so new codes cannot ship unmapped.
func Codes() []Code { return append([]Code(nil), allCodes...) }

// Error is the structured error type of every Engine method. It always
// wraps the underlying cause, so errors.Is against sentinel errors
// (context.Canceled, core.ErrOptimalLimit, workflow.ErrUnknownTask, …)
// keeps working through it.
type Error struct {
	Code    Code   `json:"code"`
	Op      string `json:"op,omitempty"` // "validate", "correct", "split", "audit", …
	Message string `json:"message"`
	Err     error  `json:"-"`
}

// Error renders "wolves: <op>: <message> [<code>]".
func (e *Error) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("wolves: %s: %s [%s]", e.Op, e.Message, e.Code)
	}
	return fmt.Sprintf("wolves: %s [%s]", e.Message, e.Code)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// IsCode reports whether err is (or wraps) an *Error carrying code.
func IsCode(err error, code Code) bool {
	var ee *Error
	return errors.As(err, &ee) && ee.Code == code
}

// wrapErr classifies err into an *Error. nil stays nil.
func wrapErr(op string, err error) *Error {
	if err == nil {
		return nil
	}
	var ee *Error
	if errors.As(err, &ee) {
		return ee
	}
	code := ErrInternal
	switch {
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, core.ErrCanceled):
		code = ErrCanceled
	case errors.Is(err, core.ErrOptimalLimit):
		code = ErrOptimalLimit
	case errors.Is(err, core.ErrBadMembers):
		code = ErrBadInput
	case errors.Is(err, dag.ErrCycle):
		code = ErrCycleRejected
	case errors.Is(err, workflow.ErrUnknownTask):
		code = ErrUnknownTask
	case errors.Is(err, view.ErrUnknownComp):
		code = ErrUnknownComposite
	}
	return &Error{Code: code, Op: op, Message: err.Error(), Err: err}
}

// errf builds an *Error from scratch with an explicit code.
func errf(code Code, op, format string, args ...any) *Error {
	return &Error{Code: code, Op: op, Message: fmt.Sprintf(format, args...)}
}
