package fleet

import (
	"errors"
	"fmt"
)

// DuplicateError reports a create against an id that is already
// registered (the transport layer maps it to 409).
type DuplicateError struct{ ID string }

func (e DuplicateError) Error() string {
	return fmt.Sprintf("fleet: chip %q already exists", e.ID)
}

// NotFoundError marks a missing (or just-deleted) chip — a 404.
type NotFoundError struct{ ID string }

func (e NotFoundError) Error() string {
	return fmt.Sprintf("fleet: no chip %q in the fleet", e.ID)
}

// QuarantinedError marks a mutation against a chip the guard has
// quarantined: the chip is still registered and readable, but aging
// operations are refused until the guard releases it (the transport
// layer maps this to 503 with code "quarantined" and a Retry-After,
// the per-chip analogue of the fleet-wide degraded gate).
type QuarantinedError struct {
	ID     string
	Reason string
}

func (e QuarantinedError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("fleet: chip %q is quarantined (%s)", e.ID, e.Reason)
	}
	return fmt.Sprintf("fleet: chip %q is quarantined", e.ID)
}

// CanceledError marks a batch item that was never executed because the
// batch's context was cancelled before it was scheduled. The chip was
// not touched, so the item is always safe to retry — unlike a generic
// failure, where the operation may have half-happened (e.g. a phase
// whose commit failed). Engine-enqueued batches rely on the
// distinction to retry cancelled items blindly.
type CanceledError struct{ Err error }

func (e CanceledError) Error() string {
	return fmt.Sprintf("fleet: batch item not run: %v", e.Err)
}

func (e CanceledError) Unwrap() error { return e.Err }

// CodeCanceled is the machine-readable per-item result code matching
// CanceledError, carried on CreateResult/OpResult and through the
// transport layer's batch responses.
const CodeCanceled = "canceled"

// ErrKindMismatch marks a sensor read against the wrong chip kind.
var ErrKindMismatch = errors.New("wrong chip kind")
