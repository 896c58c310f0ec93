package ssd

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a Clock whose time moves only when someone sleeps on it
// (or the test advances it), and whose every Sleep returns late by
// overshoot — the shape of a real timer, made deterministic.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	overshoot time.Duration
	sleeps    int
	asked     time.Duration // Σ d over every Sleep(d)
}

func newFakeClock(overshoot time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0), overshoot: overshoot}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d + c.overshoot)
	c.sleeps++
	c.asked += d
	c.mu.Unlock()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) slept() (int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sleeps, c.asked
}

// gateStore holds every read until the gate opens, so a test can put a
// whole backlog in the queue before the device serves any of it.
type gateStore struct {
	Store
	gate chan struct{}
}

func (g *gateStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	<-g.gate
	return g.Store.ReadVecAt(vec, off)
}

// completion is what one request's Done saw.
type completion struct {
	arrival, done time.Time
}

// pacedRun submits n random 16-byte reads to a throttled device whose
// service time is st, all while the device is held at the gate, and
// returns what each completion saw in service order.
func pacedRun(t *testing.T, clk *fakeClock, st, maxAhead time.Duration, n int) []completion {
	t.Helper()
	store := &gateStore{Store: NewMemStore(), gate: make(chan struct{})}
	d := NewDevice(pacedParams(clk, st, maxAhead, n), store)
	defer d.Close()
	recs := submitReads(d, clk, n)
	close(store.gate)
	return recs()
}

func pacedParams(clk Clock, st, maxAhead time.Duration, depth int) DeviceParams {
	return DeviceParams{
		RandOverhead: st,
		SeqOverhead:  st,
		Bandwidth:    1 << 50, // transfer time rounds to zero
		Throttle:     true,
		MaxAhead:     maxAhead,
		QueueDepth:   depth,
		Clock:        clk,
	}
}

// submitReads queues n reads and returns a function that waits for them
// and reports their completions in service order.
func submitReads(d *Device, clk *fakeClock, n int) func() []completion {
	var wg sync.WaitGroup
	recs := make([]completion, 0, n) // appended only by the I/O goroutine
	buf := make([]byte, 16)
	for i := 0; i < n; i++ {
		wg.Add(1)
		req := &Request{Op: OpRead, Offset: int64(i) * 1000, Vec: [][]byte{buf}}
		req.Done = func(error) {
			recs = append(recs, completion{arrival: req.arrival, done: clk.Now()})
			wg.Done()
		}
		d.Submit(req)
	}
	return func() []completion { wg.Wait(); return recs }
}

// checkNeverEarly replays the FIFO-server recurrence C(i) = max(C(i-1),
// arrival(i)) + st over the recorded arrivals and fails if any Done fired
// before its modelled completion minus maxAhead. It returns the last
// modelled completion.
func checkNeverEarly(t *testing.T, recs []completion, st, maxAhead time.Duration) time.Time {
	t.Helper()
	var horizon time.Time
	for i, r := range recs {
		if horizon.Before(r.arrival) {
			horizon = r.arrival
		}
		horizon = horizon.Add(st)
		if early := horizon.Sub(r.done); early > maxAhead {
			t.Fatalf("request %d completed %v before its modelled time (MaxAhead %v)", i, early, maxAhead)
		}
	}
	return horizon
}

// TestPacingSaturatedKeepsModelledRate: a saturated device on a clock
// whose every sleep returns 1 ms late still serves at its modelled IOPS —
// the oversleep is repaid from the backlog, not forfeited — and never
// faster. The 1.00 bound is taken with MaxAhead added to the elapsed
// time: the model is allowed to complete that much early, once, not per
// request.
func TestPacingSaturatedKeepsModelledRate(t *testing.T) {
	const n = 2000
	for _, st := range []time.Duration{67 * time.Microsecond, 120 * time.Microsecond} {
		t.Run(st.String(), func(t *testing.T) {
			const maxAhead = 500 * time.Microsecond
			clk := newFakeClock(time.Millisecond)
			t0 := clk.Now()
			recs := pacedRun(t, clk, st, maxAhead, n)
			checkNeverEarly(t, recs, st, maxAhead)

			modelled := time.Duration(n) * st
			elapsed := recs[n-1].done.Sub(t0)
			if rate := float64(modelled) / float64(elapsed); rate < 0.95 {
				t.Fatalf("sustained %.3f of modelled IOPS (%v of work in %v), want >= 0.95", rate, modelled, elapsed)
			}
			if rate := float64(modelled) / float64(elapsed+maxAhead); rate > 1 {
				t.Fatalf("served %v of work in %v: faster than modelled", modelled, elapsed)
			}
			if sleeps, _ := clk.slept(); sleeps == 0 || sleeps > n/2 {
				t.Fatalf("%d sleeps for %d requests: pacing must sleep, and in batches", sleeps, n)
			}
		})
	}
}

// TestPacingIdleGapEarnsNothing: capacity the device did not use while
// idle is gone. After 10 ms with nothing to do, 10 ms of work still takes
// 10 ms.
func TestPacingIdleGapEarnsNothing(t *testing.T) {
	const (
		st       = 100 * time.Microsecond
		maxAhead = 500 * time.Microsecond
		n        = 100
	)
	clk := newFakeClock(time.Millisecond)
	store := &gateStore{Store: NewMemStore(), gate: make(chan struct{})}
	close(store.gate)
	d := NewDevice(pacedParams(clk, st, maxAhead, n), store)
	defer d.Close()

	// One request, so the horizon exists and is then left behind.
	checkNeverEarly(t, submitReads(d, clk, 1)(), st, maxAhead)
	clk.advance(10 * time.Millisecond)

	store.gate = make(chan struct{}) // the device is idle: nobody reads gate
	t1 := clk.Now()
	wait := submitReads(d, clk, n)
	close(store.gate)
	recs := wait()
	end := checkNeverEarly(t, recs, st, maxAhead)
	if want := t1.Add(n * st); !end.Equal(want) {
		t.Fatalf("modelled completion %v after the burst began, want %v", end.Sub(t1), want.Sub(t1))
	}
	if took := recs[n-1].done.Sub(t1); took < n*st-maxAhead {
		t.Fatalf("%v of work after an idle gap finished in %v", n*st, took)
	}
}

// TestPacingScatteredArrivals: arrivals that land before, on and after
// the horizon, with the I/O goroutine free to interleave however it is
// scheduled — whatever happens, no completion beats the FIFO model.
func TestPacingScatteredArrivals(t *testing.T) {
	const (
		st       = 80 * time.Microsecond
		maxAhead = 300 * time.Microsecond
	)
	clk := newFakeClock(time.Millisecond)
	d := NewDevice(pacedParams(clk, st, maxAhead, 8), NewMemStore())
	defer d.Close()
	var all []completion
	for burst := 0; burst < 20; burst++ {
		all = append(all, submitReads(d, clk, 1+burst%7*5)()...)
		clk.advance(time.Duration(burst%4) * 700 * time.Microsecond)
	}
	checkNeverEarly(t, all, st, maxAhead)
}

// TestPacingUnthrottledNeverSleeps: Throttle false accounts busy time and
// leaves the clock alone.
func TestPacingUnthrottledNeverSleeps(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	p := pacedParams(clk, 100*time.Microsecond, 0, 0)
	p.Throttle = false
	d := NewDevice(p, NewMemStore())
	defer d.Close()
	submitReads(d, clk, 500)()
	if sleeps, _ := clk.slept(); sleeps != 0 {
		t.Fatalf("unthrottled device slept %d times", sleeps)
	}
	if busy := d.Stats().Busy; busy != 500*100*time.Microsecond {
		t.Fatalf("Busy = %v, want 50ms of accounted service", busy)
	}
}

// TestPacingBackoffOccupiesDevice: retry backoff sleeps on the device's
// clock and moves the busy horizon with it, so the requests queued behind
// a struggling one are not served as if the device had been free.
func TestPacingBackoffOccupiesDevice(t *testing.T) {
	const (
		st = 20 * time.Microsecond
		n  = 10 // n*st stays under MaxAhead: pacing itself never sleeps
	)
	clk := newFakeClock(time.Millisecond)
	faulty, _ := seededStore(t, 1<<16, FaultConfig{EIORate: 1, MaxFaults: 3})
	store := &gateStore{Store: faulty, gate: make(chan struct{})}
	p := pacedParams(clk, st, 500*time.Microsecond, n)
	p.RetryBase = 50 * time.Microsecond
	d := NewDevice(p, store)
	t0 := clk.Now()
	wait := submitReads(d, clk, n)
	close(store.gate)
	recs := wait()
	d.Close() // orders the I/O goroutine's last horizon write before the read below

	sleeps, backoff := clk.slept()
	if sleeps != 3 || d.Stats().Retries != 3 {
		t.Fatalf("%d sleeps, %d retries; want the 3 backoffs and nothing else", sleeps, d.Stats().Retries)
	}
	if want := t0.Add(n*st + backoff); !d.busyUntil.Equal(want) {
		t.Fatalf("horizon %v past start, want service %v + backoff %v", d.busyUntil.Sub(t0), n*st, backoff)
	}
	if busy := d.Stats().Busy; busy != n*st+backoff {
		t.Fatalf("Busy = %v, want %v", busy, n*st+backoff)
	}
	if took := recs[n-1].done.Sub(t0); took < backoff {
		t.Fatalf("backlog behind 3 backoffs (%v) finished in %v", backoff, took)
	}
}
