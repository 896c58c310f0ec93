package qos

import (
	"errors"
	"sync"
)

// Queueing errors.
var (
	// ErrQueueFull rejects a push when the admitted-but-not-running
	// total is at capacity (load shedding, never unbounded buffering).
	ErrQueueFull = errors.New("qos: admission queue full")
	// ErrDraining rejects a push after Drain: the scheduler finishes
	// what it admitted and takes nothing new.
	ErrDraining = errors.New("qos: queue draining")
)

// MultiQueue is the class-aware admission queue: one queue per
// priority class in submission order, weighted dequeue across the
// non-empty classes, and per-class execution-slot policy — slots only
// interactive may occupy, a cap on simultaneously running batch sweeps
// — enforced at Pop time. Pop blocks until a
// query is eligible to run; Done returns its slot.
type MultiQueue[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	maxQueued int
	slots     int
	reserved  int // slots only interactive may use
	batchCap  int // max running batch
	credits   [NumClasses]int

	queues   [NumClasses][]T
	heads    [NumClasses]int // consumed prefix, compacted lazily
	running  [NumClasses]int
	queued   int
	draining bool
}

// NewMultiQueue sizes the queue for a scheduler with the given
// execution slot count and admission bound. The class policy is
// Config's fixed one; cfg carries nothing the queue reads.
func NewMultiQueue[T any](cfg Config, slots, maxQueued int) *MultiQueue[T] {
	slots = max(slots, 1)
	reserved := reservedSlots(slots)
	q := &MultiQueue[T]{maxQueued: maxQueued, slots: slots, reserved: reserved, batchCap: batchCap(slots - reserved)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits v under class c.
func (q *MultiQueue[T]) Push(c Class, v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return ErrDraining
	}
	if q.queued >= q.maxQueued {
		return ErrQueueFull
	}
	i := c.Rank()
	q.queues[i] = append(q.queues[i], v)
	q.queued++
	q.cond.Signal()
	return nil
}

// Pop blocks until a query is eligible to run and returns it with its
// class rank (pass the rank to Done when the run finishes). ok=false
// means the queue is draining and empty: the calling worker should
// exit. Each successful Pop occupies one execution slot until Done.
func (q *MultiQueue[T]) Pop() (v T, rank int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if i := q.pickLocked(); i >= 0 {
			v = q.queues[i][q.heads[i]]
			var zero T
			q.queues[i][q.heads[i]] = zero // release the reference
			q.heads[i]++
			if q.heads[i] > 64 && q.heads[i] > len(q.queues[i])/2 {
				q.queues[i] = append(q.queues[i][:0], q.queues[i][q.heads[i]:]...)
				q.heads[i] = 0
			}
			q.queued--
			q.running[i]++
			return v, i, true
		}
		if q.draining && q.queued == 0 {
			return v, 0, false
		}
		q.cond.Wait()
	}
}

// pickLocked returns the class rank to dequeue from, or -1 when
// nothing is eligible: smooth weighted round-robin across the eligible
// classes, where eligibility folds in the slot policy — non-interactive
// work may not enter the reserved slots, and running batch sweeps are
// capped.
func (q *MultiQueue[T]) pickLocked() int {
	nonInteractive := q.running[1] + q.running[2]
	best, total := -1, 0
	for i := range Classes {
		if len(q.queues[i])-q.heads[i] == 0 {
			continue
		}
		if i > 0 && nonInteractive >= q.slots-q.reserved {
			continue // only interactive may enter the reserved slots
		}
		if i == ClassBatch.Rank() && q.running[i] >= q.batchCap {
			continue
		}
		q.credits[i] += classWeights[i]
		total += classWeights[i]
		if best < 0 || q.credits[i] > q.credits[best] {
			best = i
		}
	}
	if best >= 0 {
		q.credits[best] -= total
	}
	return best
}

// Remove deletes the first queued element of class c matching the
// predicate, reporting whether one was found. A removed element never
// occupied an execution slot, so there is no Done to pair with — this
// is how cancel-while-queued releases its queue spot. Elements already
// handed out by Pop are not found (the caller falls back to its
// running-query cancel path).
func (q *MultiQueue[T]) Remove(c Class, match func(T) bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := c.Rank()
	for j := q.heads[i]; j < len(q.queues[i]); j++ {
		if match(q.queues[i][j]) {
			q.queues[i] = append(q.queues[i][:j], q.queues[i][j+1:]...)
			q.queued--
			if q.draining {
				// The removal may have emptied the queue: wake Pop
				// waiters so draining workers can exit.
				q.cond.Broadcast()
			}
			return true
		}
	}
	return false
}

// Done releases the execution slot a Pop with this rank occupied.
func (q *MultiQueue[T]) Done(rank int) {
	q.mu.Lock()
	q.running[rank]--
	q.mu.Unlock()
	// A freed slot can unblock any waiting worker (slot policy depends
	// on what else is running), so wake them all.
	q.cond.Broadcast()
}

// Drain stops admission; Pops continue until the queues are empty,
// then report ok=false.
func (q *MultiQueue[T]) Drain() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Load snapshots the queue under one lock: the queued count and the
// occupied execution slots per class rank.
func (q *MultiQueue[T]) Load() (queued, running [NumClasses]int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.queues {
		queued[i] = len(q.queues[i]) - q.heads[i]
	}
	return queued, q.running
}
