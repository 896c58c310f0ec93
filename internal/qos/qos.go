// Package qos is the serving quality-of-service tier: the policy
// mechanisms that let one FlashGraph server absorb a mix of point
// lookups and full-graph sweeps without letting the sweeps ruin the
// lookups. It provides two independent, stdlib-only building blocks
// that internal/serve composes into its scheduler:
//
//   - a byte-budgeted LRU result store with single-flight coalescing
//     hooks (Cache) whose handles die on eviction, keyed by whatever
//     identity the caller derives — the serve layer keys on (graph
//     image fingerprint, algorithm, canonical params, engine kind) so
//     a hit is provably the same computation;
//   - priority-class admission (MultiQueue): three classes —
//     interactive, analytic, batch — with per-class weighted dequeue
//     and reserved/capped execution slots, so point lookups never
//     queue behind full-graph sweeps.
//
// The package holds no FlashGraph types: Cache and MultiQueue are
// generic over their payloads, and classification takes plain
// capability facts. That keeps the policy layer testable in isolation
// and reusable by any serving surface.
package qos

import "fmt"

// Class is a query's priority class. Lower Rank = more latency
// sensitive.
type Class string

// The three priority classes, latency-sensitive first.
const (
	// ClassInteractive is for source-anchored point work (bfs, sssp,
	// bc): sub-second expectations, never queued behind sweeps.
	ClassInteractive Class = "interactive"
	// ClassAnalytic is for bounded full-graph work (wcc, short
	// PageRank, triangle counting): seconds-scale expectations.
	ClassAnalytic Class = "analytic"
	// ClassBatch is for long iterative full-graph sweeps (default
	// PageRank, labelprop at high iteration caps): throughput work
	// that tolerates waiting.
	ClassBatch Class = "batch"
)

// NumClasses is the number of priority classes.
const NumClasses = 3

// Classes lists the classes in rank order (most latency-sensitive
// first) — the canonical iteration order for stats and scheduling.
var Classes = [NumClasses]Class{ClassInteractive, ClassAnalytic, ClassBatch}

// Rank returns the class's scheduling rank (0 = interactive). Unknown
// classes rank as batch.
func (c Class) Rank() int {
	switch c {
	case ClassInteractive:
		return 0
	case ClassAnalytic:
		return 1
	}
	return 2
}

// ParseClass converts a request/CLI class name; empty is an error
// (callers decide their own default via InferClass).
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case ClassInteractive, ClassAnalytic, ClassBatch:
		return Class(s), nil
	}
	return "", fmt.Errorf("qos: unknown priority class %q (want %q, %q, or %q)",
		s, ClassInteractive, ClassAnalytic, ClassBatch)
}

// batchIters is the effective iteration count at which a full-graph
// iterative algorithm stops counting as "bounded analytic work" and
// becomes a batch sweep (default PageRank's 30 lands above it,
// labelprop's 10 below).
const batchIters = 20

// InferClass classifies a query from the algorithm's declared
// capabilities and its effective parameters — no per-algorithm table:
//
//   - iters >= 20 (the effective iteration count: the request's iters
//     param, or the algorithm's declared default when unset) means a
//     long full-graph sweep -> batch, even when source-anchored
//     (personalized PageRank is a sweep, not a lookup);
//   - otherwise a NeedsSrc algorithm is a source-anchored traversal
//     -> interactive;
//   - everything else (bounded full-graph work) -> analytic.
//
// The serve layer applies a per-request override before inferring.
func InferClass(needsSrc bool, iters int) Class {
	switch {
	case iters >= batchIters:
		return ClassBatch
	case needsSrc:
		return ClassInteractive
	}
	return ClassAnalytic
}

// Config holds nothing the tier reads. The class policy is fixed —
// dequeue weights 16 / 4 / 1, max(1, slots/4) slots reserved for
// interactive queries, running batch sweeps capped at half the rest —
// and the tier is always on.
type Config struct {
	// Enabled is accepted and ignored. The type and field stay only
	// because the benchmark still spells them.
	Enabled bool
}

// classWeights are the weighted-dequeue shares by class rank: with
// every queue non-empty, interactive dequeues 16 of every 21
// admissions.
var classWeights = [NumClasses]int{16, 4, 1}

// reservedSlots is how many of a scheduler's slots only interactive
// queries may occupy: max(1, slots/4), but never the only slot.
func reservedSlots(slots int) int { return min(max(1, slots/4), slots-1) }

// batchCap caps simultaneously running batch sweeps at half the
// unreserved slots, and at least one.
func batchCap(unreserved int) int { return max(1, unreserved/2) }
