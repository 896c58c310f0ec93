// Package ssd simulates an array of commodity SSDs.
//
// The FlashGraph paper evaluates on 15 OCZ Vertex 4 SSDs behind three HBAs
// (~900K 4KB reads/s aggregate). This package substitutes that hardware
// with a behavioural model that preserves what the graph engine actually
// exercises:
//
//   - requests cost service time proportional to a per-request overhead
//     plus size divided by bandwidth, with sequential requests paying a
//     reduced overhead (the paper: random 4KB throughput is only 2–3x
//     below sequential on SSDs, vs 100x on disks);
//   - each device drains a bounded queue from a dedicated I/O goroutine
//     (SAFS's per-SSD I/O thread design);
//   - devices saturate: each device is an exact FIFO server. A request
//     is stamped with its arrival when it is submitted, and the device's
//     busy horizon — the modelled instant its last accepted request
//     completes — advances as max(horizon, arrival) + service time. The
//     I/O goroutine sleeps only while the horizon is more than MaxAhead in
//     front of the clock, so computation in other goroutines genuinely
//     overlaps simulated I/O.
//
// The horizon is measured against request arrivals, never against the
// moment the I/O goroutine happens to wake: a sleep that returns late (on
// Linux every sub-millisecond time.Sleep takes about 1.1 ms) leaves the
// clock in front of the horizon, and the backlog that arrived meanwhile
// is served without sleeping until the horizon leads again — an oversleep
// is repaid, not forfeited. An idle gap earns nothing (an arrival after
// the horizon resets it), and no completion fires earlier than its
// modelled time minus MaxAhead.
//
// Absolute speeds are configurable (and scaled down for benchmarks);
// shapes — saturation, random-vs-sequential gaps, overlap — are physical.
package ssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/util"
)

// Op distinguishes request types.
type Op uint8

const (
	// OpRead fills Vec from the device range starting at Offset.
	OpRead Op = iota
	// OpWrite writes Vec's buffers, in order, starting at Offset.
	OpWrite
)

// Request is a single device-local I/O request. Done is invoked exactly
// once from the device's I/O goroutine after the data transfer completes;
// it must not block for long (hand off heavy work to another goroutine).
//
// Vec is a scatter/gather list: the contiguous device range starting at
// Offset is transferred into (or, for writes, out of) the buffers in
// order. However many buffers it names, a request is ONE device request —
// this is how a single merged FlashGraph read fills many 4KB cache pages
// while costing one I/O (the simulated analogue of preadv into page
// frames).
type Request struct {
	Op     Op
	Offset int64
	Vec    [][]byte
	Done   func(err error)

	// arrival is when Submit accepted the request, before any wait for a
	// queue slot: the instant the modelled device could first have begun
	// serving it.
	arrival time.Time
}

// length returns the total transfer size.
func (r *Request) length() int { return vecLen(r.Vec) }

// Clock is the device model's time source: what arrivals are stamped
// with, what the busy horizon is compared against, and what pacing and
// retry backoff sleep on. Sleep must not return before d has passed on
// Now; it may return later, as real timers do.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// DeviceParams models one SSD. Zero values are replaced by defaults in
// NewDevice.
type DeviceParams struct {
	// Name labels the device in stats output.
	Name string
	// RandOverhead is the fixed per-request service-time overhead for a
	// random (non-adjacent) request. Default 15µs.
	RandOverhead time.Duration
	// SeqOverhead is the per-request overhead when a request starts
	// exactly where the previous one ended. Default 1µs.
	SeqOverhead time.Duration
	// Bandwidth is the transfer rate in bytes/second. Default 400MB/s.
	Bandwidth int64
	// WritePenalty multiplies the service time of writes (flash program
	// is slower than read). Default 2.
	WritePenalty int
	// QueueDepth bounds the number of in-flight requests. Submit blocks
	// when full. Default 64.
	QueueDepth int
	// MaxAhead is how far the busy horizon (the modelled completion time
	// of the last accepted request, built from arrival stamps) may lead
	// Clock.Now before the I/O goroutine sleeps; equally, how much earlier
	// than modelled a completion may fire. Larger values batch sleeps
	// (faster benches, coarser timing). Default 500µs.
	MaxAhead time.Duration
	// Throttle enables pacing against the clock. When false the device
	// still accounts virtual busy time but never sleeps for pacing, which
	// makes unit tests fast while preserving the accounting used by the
	// benchmark harness.
	Throttle bool
	// Clock is the time source; nil is the wall clock. Tests substitute
	// a fake so pacing and backoff are deterministic and do not sleep.
	Clock Clock
	// RetryMax is how many times a transient transfer error (one that
	// errors.Is-matches ErrTransient: injected EIO, short read, torn
	// write) is retried before surfacing. Default 3; negative disables
	// retry.
	RetryMax int
	// RetryBase is the backoff before the first retry; each further
	// retry doubles it, with ±50% deterministic jitter. Default 100µs.
	RetryBase time.Duration
	// RetryCap bounds the backoff growth. Default 5ms.
	RetryCap time.Duration
	// DegradeThreshold trips the device into a degraded state after
	// this many consecutive post-retry request failures; once degraded
	// the device fails new submissions fast with ErrDegraded instead of
	// queueing them. Default 16; negative disables tripping.
	DegradeThreshold int
}

func (p *DeviceParams) setDefaults() {
	if p.RandOverhead == 0 {
		p.RandOverhead = 15 * time.Microsecond
	}
	if p.SeqOverhead == 0 {
		p.SeqOverhead = time.Microsecond
	}
	if p.Bandwidth == 0 {
		p.Bandwidth = 400 << 20
	}
	if p.WritePenalty == 0 {
		p.WritePenalty = 2
	}
	if p.QueueDepth == 0 {
		p.QueueDepth = 64
	}
	if p.MaxAhead == 0 {
		p.MaxAhead = 500 * time.Microsecond
	}
	if p.Clock == nil {
		p.Clock = wallClock{}
	}
	if p.RetryMax == 0 {
		p.RetryMax = 3
	}
	if p.RetryBase == 0 {
		p.RetryBase = 100 * time.Microsecond
	}
	if p.RetryCap == 0 {
		p.RetryCap = 5 * time.Millisecond
	}
	if p.DegradeThreshold == 0 {
		p.DegradeThreshold = 16
	}
}

// DeviceStats is a snapshot of one device's counters.
type DeviceStats struct {
	Name       string
	Reads      int64
	Writes     int64
	BytesRead  int64
	BytesWrite int64
	SeqReads   int64 // reads that continued the previous request
	VecReads   int64 // reads that scattered into more than one buffer
	// Batch submission counters: how many SubmitBatch calls arrived, how
	// many requests they carried, and how many of those were coalesced
	// into an adjacent neighbor (each coalesced request is one device
	// request saved).
	BatchSubmits  int64
	BatchedReqs   int64
	CoalescedReqs int64
	// QueuePeak is the high-water mark of the submission queue length —
	// the depth the io_uring-shaped path actually achieved.
	QueuePeak int64
	// Health counters: Retries counts transient-error resubmissions the
	// device absorbed; Errors counts requests that still failed after
	// retry; Degraded reports whether the device tripped its health
	// threshold and is failing submissions fast.
	Retries  int64
	Errors   int64
	Degraded bool
	// Busy is accumulated virtual service time: the time the modeled
	// device spent transferring or backing off before a retry.
	// Utilization over a wall-clock interval t is Busy/t.
	Busy time.Duration
}

// MergeRatio reports batched requests per device request after
// coalescing (1 when no batches were submitted): the factor by which
// SubmitBatch shrank the request stream.
func (s DeviceStats) MergeRatio() float64 {
	served := s.BatchedReqs - s.CoalescedReqs
	if served <= 0 {
		return 1
	}
	return float64(s.BatchedReqs) / float64(served)
}

// Store is the backing byte store for a simulated device.
type Store interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() int64
}

// Device is one simulated SSD: a Store plus a service-time model drained
// by a dedicated I/O goroutine.
type Device struct {
	params DeviceParams
	store  Store
	queue  chan *Request

	closeMu   sync.RWMutex
	isClosed  bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	// counters (atomics; Busy in nanoseconds)
	reads, writes, bytesRead, bytesWrite, seqReads, vecReads, busyNS int64
	batchSubmits, batchedReqs, coalescedReqs, queuePeak              int64
	retries, ioErrors                                                int64

	// health (atomics): consecutive post-retry failures, and the
	// tripped degraded flag (0/1).
	consecFails int64
	degraded    int32

	// backoffRNG jitters retry delays; touched only by the I/O
	// goroutine. Seeded from the device name for reproducible runs.
	backoffRNG *util.RNG

	// busyUntil is the busy horizon; touched only by the I/O goroutine.
	busyUntil time.Time
}

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("ssd: device closed")

// NewDevice creates a device over store and starts its I/O goroutine.
func NewDevice(params DeviceParams, store Store) *Device {
	params.setDefaults()
	seed := uint64(0)
	for _, c := range params.Name {
		seed = seed*31 + uint64(c)
	}
	d := &Device{
		params:     params,
		store:      store,
		queue:      make(chan *Request, params.QueueDepth),
		backoffRNG: util.NewRNG(seed),
	}
	d.wg.Add(1)
	go d.run()
	return d
}

// Submit enqueues a request, blocking while the queue is full. The
// request's Done callback fires from the I/O goroutine (or inline with
// ErrClosed after Close).
func (d *Device) Submit(req *Request) {
	if atomic.LoadInt32(&d.degraded) != 0 {
		// Tripped health threshold: fail fast instead of queueing work
		// against a device that is eating every request. Done fires
		// inline on the submitter's goroutine, like the closed path.
		req.Done(fmt.Errorf("%s: %w", d.params.Name, ErrDegraded))
		return
	}
	d.closeMu.RLock()
	if d.isClosed {
		d.closeMu.RUnlock()
		req.Done(ErrClosed)
		return
	}
	// The send may block on a full queue while holding the read lock;
	// the I/O goroutine keeps draining regardless, so Close (which takes
	// the write lock) waits but never deadlocks.
	req.arrival = d.params.Clock.Now()
	d.queue <- req
	d.noteQueueDepth(int64(len(d.queue)))
	d.closeMu.RUnlock()
}

// SubmitBatch enqueues a group of requests as one submission: reads are
// sorted by offset and runs of exactly adjacent extents coalesce into
// single vectored requests before service — the io_uring-shaped
// submission path over the same simulated model. Writes pass through
// uncoalesced. Each original request's Done fires exactly once, after
// the transfer covering it completes. The slice may be reordered.
func (d *Device) SubmitBatch(reqs []*Request) {
	if len(reqs) == 0 {
		return
	}
	if len(reqs) == 1 {
		d.Submit(reqs[0])
		return
	}
	atomic.AddInt64(&d.batchSubmits, 1)
	reads := reqs[:0]
	for _, r := range reqs {
		if r.Op == OpRead {
			reads = append(reads, r)
		} else {
			d.Submit(r)
		}
	}
	atomic.AddInt64(&d.batchedReqs, int64(len(reads)))
	slices.SortFunc(reads, func(a, b *Request) int { return cmp.Compare(a.Offset, b.Offset) })
	for i := 0; i < len(reads); {
		j := i + 1
		end := reads[i].Offset + int64(reads[i].length())
		for j < len(reads) && reads[j].Offset == end {
			end += int64(reads[j].length())
			j++
		}
		if j == i+1 {
			d.Submit(reads[i])
			i = j
			continue
		}
		group := reads[i:j]
		atomic.AddInt64(&d.coalescedReqs, int64(len(group)-1))
		var vec [][]byte
		for _, r := range group {
			vec = append(vec, r.Vec...)
		}
		members := make([]*Request, len(group))
		copy(members, group)
		d.Submit(&Request{
			Op:     OpRead,
			Offset: group[0].Offset,
			Vec:    vec,
			Done: func(err error) {
				for _, r := range members {
					r.Done(err)
				}
			},
		})
		i = j
	}
}

// noteQueueDepth raises the queue-depth high-water mark to depth.
func (d *Device) noteQueueDepth(depth int64) {
	for {
		cur := atomic.LoadInt64(&d.queuePeak)
		if depth <= cur || atomic.CompareAndSwapInt64(&d.queuePeak, cur, depth) {
			return
		}
	}
}

// Close drains outstanding requests and stops the I/O goroutine.
func (d *Device) Close() {
	d.closeOnce.Do(func() {
		d.closeMu.Lock()
		d.isClosed = true
		d.closeMu.Unlock()
		close(d.queue)
	})
	d.wg.Wait()
	// File-backed stores hold descriptors; release them with the device.
	// Closing an already-closed store is harmless, so callers that also
	// close their own stores stay correct.
	if c, ok := d.store.(interface{ Close() error }); ok {
		c.Close()
	}
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		Name:          d.params.Name,
		Reads:         atomic.LoadInt64(&d.reads),
		Writes:        atomic.LoadInt64(&d.writes),
		BytesRead:     atomic.LoadInt64(&d.bytesRead),
		BytesWrite:    atomic.LoadInt64(&d.bytesWrite),
		SeqReads:      atomic.LoadInt64(&d.seqReads),
		VecReads:      atomic.LoadInt64(&d.vecReads),
		BatchSubmits:  atomic.LoadInt64(&d.batchSubmits),
		BatchedReqs:   atomic.LoadInt64(&d.batchedReqs),
		CoalescedReqs: atomic.LoadInt64(&d.coalescedReqs),
		QueuePeak:     atomic.LoadInt64(&d.queuePeak),
		Retries:       atomic.LoadInt64(&d.retries),
		Errors:        atomic.LoadInt64(&d.ioErrors),
		Degraded:      atomic.LoadInt32(&d.degraded) != 0,
		Busy:          time.Duration(atomic.LoadInt64(&d.busyNS)),
	}
}

// ResetStats zeroes the counters (used between benchmark phases).
func (d *Device) ResetStats() {
	atomic.StoreInt64(&d.reads, 0)
	atomic.StoreInt64(&d.writes, 0)
	atomic.StoreInt64(&d.bytesRead, 0)
	atomic.StoreInt64(&d.bytesWrite, 0)
	atomic.StoreInt64(&d.seqReads, 0)
	atomic.StoreInt64(&d.vecReads, 0)
	atomic.StoreInt64(&d.batchSubmits, 0)
	atomic.StoreInt64(&d.batchedReqs, 0)
	atomic.StoreInt64(&d.coalescedReqs, 0)
	atomic.StoreInt64(&d.queuePeak, 0)
	atomic.StoreInt64(&d.retries, 0)
	atomic.StoreInt64(&d.ioErrors, 0)
	atomic.StoreInt64(&d.busyNS, 0)
	// The degraded flag and consecutive-failure streak deliberately
	// survive stat resets: they are health state, not counters — use
	// ResetHealth to clear them.
}

// serviceTime models the cost of one request given whether it directly
// continues the previous request (sequential).
func (d *Device) serviceTime(req *Request, sequential bool) time.Duration {
	overhead := d.params.RandOverhead
	if sequential {
		overhead = d.params.SeqOverhead
	}
	transfer := time.Duration(int64(req.length()) * int64(time.Second) / d.params.Bandwidth)
	t := overhead + transfer
	if req.Op == OpWrite {
		t *= time.Duration(d.params.WritePenalty)
	}
	return t
}

// Degraded reports whether the device has tripped its health threshold.
func (d *Device) Degraded() bool { return atomic.LoadInt32(&d.degraded) != 0 }

// ResetHealth clears the degraded flag and the consecutive-failure
// counter (operator intervention: the device was replaced or the fault
// cleared).
func (d *Device) ResetHealth() {
	atomic.StoreInt64(&d.consecFails, 0)
	atomic.StoreInt32(&d.degraded, 0)
}

// transferRetry performs the data movement, resubmitting on transient
// errors with capped exponential backoff plus ±50% jitter. It also
// feeds the health tracker: a request that fails even after retries
// counts toward the consecutive-failure trip threshold, and a success
// resets it.
func (d *Device) transferRetry(req *Request) (int, error) {
	n, err := d.transfer(req)
	if err == nil && n < req.length() {
		// Stores zero-fill reads past EOF and report full length, so a
		// short count with a nil error is a broken transfer, not EOF —
		// surface it typed instead of letting callers see a silently
		// zero-padded (or stale) tail.
		err = &ShortReadError{Off: req.Offset, Want: req.length(), Got: n}
	}
	for attempt := 0; err != nil && IsTransient(err) && attempt < d.params.RetryMax; attempt++ {
		atomic.AddInt64(&d.retries, 1)
		delay := d.params.RetryBase << uint(attempt)
		if delay > d.params.RetryCap {
			delay = d.params.RetryCap
		}
		if delay <= 0 {
			delay = time.Microsecond
		}
		// Jitter in [0.5, 1.5)×delay de-synchronizes retry storms
		// across devices; deterministic per device for reproducibility.
		delay = delay/2 + time.Duration(d.backoffRNG.Uint64n(uint64(delay)))
		// The device is occupied while it backs off: the horizon moves
		// with the sleep, so the wait is not handed back to the backlog
		// as free capacity.
		d.busyUntil = d.busyUntil.Add(delay)
		atomic.AddInt64(&d.busyNS, int64(delay))
		d.params.Clock.Sleep(delay)
		n, err = d.transfer(req)
	}
	if err != nil {
		atomic.AddInt64(&d.ioErrors, 1)
		fails := atomic.AddInt64(&d.consecFails, 1)
		if t := d.params.DegradeThreshold; t > 0 && fails >= int64(t) {
			atomic.StoreInt32(&d.degraded, 1)
		}
	} else {
		atomic.StoreInt64(&d.consecFails, 0)
	}
	return n, err
}

// transfer performs the data movement for req against the store: a
// read is one store submission for the whole scatter list (preadv on
// file-backed stores), a write one WriteAt per buffer.
func (d *Device) transfer(req *Request) (int, error) {
	switch req.Op {
	case OpRead:
		return ReadVec(d.store, req.Vec, req.Offset)
	case OpWrite:
		total := 0
		for _, b := range req.Vec {
			n, err := d.store.WriteAt(b, req.Offset+int64(total))
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	return 0, fmt.Errorf("ssd: unknown op %d", req.Op)
}

func (d *Device) run() {
	defer d.wg.Done()
	var lastEnd int64 = -1
	for req := range d.queue {
		sequential := req.Offset == lastEnd
		st := d.serviceTime(req, sequential)

		// FIFO server: service starts when the device is free or the
		// request arrives, whichever is later. Measuring from the arrival
		// and not from this goroutine's wake-up is what keeps a late
		// timer from costing modelled capacity.
		if d.busyUntil.Before(req.arrival) {
			d.busyUntil = req.arrival
		}
		d.busyUntil = d.busyUntil.Add(st)
		atomic.AddInt64(&d.busyNS, int64(st))
		if d.params.Throttle {
			if ahead := d.busyUntil.Sub(d.params.Clock.Now()); ahead > d.params.MaxAhead {
				d.params.Clock.Sleep(ahead - d.params.MaxAhead)
			}
		}

		n, err := d.transferRetry(req)
		switch req.Op {
		case OpRead:
			atomic.AddInt64(&d.reads, 1)
			atomic.AddInt64(&d.bytesRead, int64(n))
			if sequential {
				// A vectored request is ONE device request, so continuing
				// the previous extent counts as one sequential read no
				// matter how many buffers it scatters into.
				atomic.AddInt64(&d.seqReads, 1)
			}
			if len(req.Vec) > 1 {
				atomic.AddInt64(&d.vecReads, 1)
			}
		case OpWrite:
			atomic.AddInt64(&d.writes, 1)
			atomic.AddInt64(&d.bytesWrite, int64(n))
		}
		lastEnd = req.Offset + int64(req.length())
		req.Done(err)
	}
}
