// Package qos is the serving quality-of-service tier: the policy
// mechanisms that let one FlashGraph server absorb a mixed fleet of
// tenants and workloads without letting any of them ruin the others.
// It provides three independent, stdlib-only building blocks that
// internal/serve composes into its scheduler:
//
//   - a byte-budgeted LRU result store with single-flight coalescing
//     hooks (Cache) whose handles die on eviction, keyed by whatever
//     identity the caller derives — the serve layer keys on (graph
//     image fingerprint, algorithm, canonical params, engine kind) so
//     a hit is provably the same computation;
//   - priority-class admission (MultiQueue): three classes —
//     interactive, analytic, batch — with per-class weighted dequeue
//     and reserved/capped execution slots, so point lookups never
//     queue behind full-graph sweeps;
//   - per-tenant token-bucket quotas (Quotas) with a computed
//     Retry-After, so an exhausted tenant sheds its own load instead
//     of everyone's.
//
// The package holds no FlashGraph types: Cache and MultiQueue are
// generic over their payloads, and classification takes plain
// capability facts. That keeps the policy layer testable in isolation
// and reusable by any serving surface.
package qos

import (
	"fmt"
	"time"
)

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

// Config sizes the QoS tier one serving scheduler runs. The zero
// value is the tier with its defaults: class-weighted admission with
// max(1, slots/4) slots reserved for interactive queries, and no
// quotas.
type Config struct {
	// Enabled is accepted and ignored: the tier is always on. The field
	// stays only because callers still spell it.
	Enabled bool

	// Weights sets the weighted-dequeue share per class. Zero entries
	// take the defaults (interactive 16, analytic 4, batch 1): with
	// every queue non-empty, interactive dequeues 16 of every 21
	// admissions.
	Weights map[Class]int

	// ReservedSlots is the number of execution slots only interactive
	// queries may occupy, guaranteeing point lookups capacity even
	// under saturating batch load. 0 = max(1, slots/4); negative =
	// reserve nothing.
	ReservedSlots int

	// BatchSlots caps simultaneously running batch queries so sweeps
	// cannot monopolize even the unreserved slots. 0 = max(1,
	// unreserved/2); negative = no cap beyond the reservation.
	BatchSlots int

	// QuotaRate is each tenant's sustained admission rate in queries
	// per second. 0 disables quotas.
	QuotaRate float64

	// QuotaBurst is each tenant's token-bucket capacity (peak burst).
	// 0 = max(1, 4*QuotaRate).
	QuotaBurst float64
}

// weight resolves one class's dequeue weight.
func (c Config) weight(cl Class) int {
	if w := c.Weights[cl]; w > 0 {
		return w
	}
	switch cl {
	case ClassInteractive:
		return 16
	case ClassAnalytic:
		return 4
	}
	return 1
}

// reserved resolves the interactive-only slot reservation for a
// scheduler with the given total slots.
func (c Config) reserved(slots int) int {
	switch {
	case c.ReservedSlots < 0:
		return 0
	case c.ReservedSlots == 0:
		r := slots / 4
		if r < 1 {
			r = 1
		}
		if r >= slots {
			r = slots - 1 // a 1-slot scheduler cannot reserve its only slot
		}
		if r < 0 {
			r = 0
		}
		return r
	case c.ReservedSlots >= slots:
		return slots - 1
	}
	return c.ReservedSlots
}

// batchCap resolves the running-batch cap given the unreserved slot
// count.
func (c Config) batchCap(unreserved int) int {
	switch {
	case c.BatchSlots < 0:
		return unreserved
	case c.BatchSlots == 0:
		b := unreserved / 2
		if b < 1 {
			b = 1
		}
		return b
	case c.BatchSlots > unreserved:
		return unreserved
	}
	return c.BatchSlots
}

// QuotaBurstTokens resolves the configured burst capacity.
func (c Config) QuotaBurstTokens() float64 {
	if c.QuotaBurst > 0 {
		return c.QuotaBurst
	}
	b := 4 * c.QuotaRate
	if b < 1 {
		b = 1
	}
	return b
}

// retryAfterCeil rounds a wait up to whole seconds for the HTTP
// Retry-After header, with a 1s floor so clients never busy-spin.
func retryAfterCeil(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
