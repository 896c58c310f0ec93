package core

import (
	"context"
	"fmt"
)

// Deadline and cancellation support. A run is bounded by attaching a
// context before Run: the vertex engine checks it at iteration
// boundaries (every phase inside an iteration is a barrier, so the
// boundary is the natural quiescent point — no in-flight I/O, no
// half-applied messages), and the SpMV engine checks at iteration and
// stripe boundaries. A canceled run returns an error satisfying
// errors.Is(err, context.Canceled) or context.DeadlineExceeded, with
// the stats accumulated so far — the run context stays clean (unlike a
// panic abort) but is finished; serving layers map the error to a 504
// and discard the engine.

// stopErr converts a context's termination into the run's typed error.
func stopErr(ctx context.Context, iteration int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: run stopped at iteration %d: %w", iteration, err)
	}
	return nil
}
