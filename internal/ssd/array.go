package ssd

import (
	"fmt"
	"sync"
	"time"
)

// ArrayParams configures a striped array of simulated SSDs.
type ArrayParams struct {
	// Devices is the number of SSDs. Default 4.
	Devices int
	// StripeSize is the RAID-0 stripe unit in bytes. Default 128KiB
	// — large enough that one merged FlashGraph request usually hits one
	// device, small enough that big sequential scans parallelize.
	StripeSize int64
	// Device holds the per-device model parameters (Name is overridden).
	Device DeviceParams
}

// SetDefaults fills the zero fields, so a caller that must size something
// by the device count before the array exists asks here.
func (p *ArrayParams) SetDefaults() {
	if p.Devices == 0 {
		p.Devices = 4
	}
	if p.StripeSize == 0 {
		p.StripeSize = 128 << 10
	}
}

// Array is a linear address space striped RAID-0 style over simulated
// devices. It is the unit SAFS files sit on.
type Array struct {
	devices []*Device
	stripe  int64
	// routing pools submit's per-device request tables (*routing): a
	// SAFS flush submits once per merged read.
	routing sync.Pool
}

// routing is one submit call's requests, grouped by device.
type routing struct{ perDev [][]*Request }

// NewArray builds an array of in-memory devices.
func NewArray(params ArrayParams) *Array {
	params.SetDefaults()
	stores := make([]Store, params.Devices)
	for i := range stores {
		stores[i] = NewMemStore()
	}
	return NewArrayWithStores(params, stores)
}

// NewArrayWithStores builds an array over caller-provided stores (e.g.
// FileStores), one device per store.
func NewArrayWithStores(params ArrayParams, stores []Store) *Array {
	params.SetDefaults()
	a := &Array{stripe: params.StripeSize}
	for i, s := range stores {
		dp := params.Device
		dp.Name = fmt.Sprintf("ssd%d", i)
		a.devices = append(a.devices, NewDevice(dp, s))
	}
	return a
}

// Devices returns the number of devices in the array.
func (a *Array) Devices() int { return len(a.devices) }

// StripeSize returns the stripe unit in bytes.
func (a *Array) StripeSize() int64 { return a.stripe }

// Close shuts down every device.
func (a *Array) Close() {
	for _, d := range a.devices {
		d.Close()
	}
}

// locate maps a linear array offset to (device, device-local offset,
// bytes available in this stripe unit).
func (a *Array) locate(off int64) (dev int, devOff int64, run int64) {
	stripeIdx := off / a.stripe
	within := off % a.stripe
	dev = int(stripeIdx % int64(len(a.devices)))
	devOff = (stripeIdx/int64(len(a.devices)))*a.stripe + within
	run = a.stripe - within
	return
}

// joinDone returns a completion callback that fires done exactly once,
// with the first error, after n invocations.
func joinDone(n int, done func(err error)) func(err error) {
	var mu sync.Mutex
	var firstErr error
	remaining := n
	return func(err error) {
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		fire := remaining == 0
		mu.Unlock()
		if fire {
			done(firstErr)
		}
	}
}

// vecExtent is one device-local piece of a linear-range transfer.
type vecExtent struct {
	dev    int
	devOff int64
	bufs   [][]byte
}

// cutVec cuts the contiguous linear range starting at off, scattered
// into vec's buffers, at device-stripe boundaries only — so a transfer
// covering N stripes costs at most N device requests regardless of how
// many buffers it scatters into. It is the array's one cutter: every
// read and write, synchronous or batched, goes through it.
func (a *Array) cutVec(off int64, vec [][]byte) []vecExtent {
	var exts []vecExtent
	bi, bo := 0, 0 // cursor into vec: buffer index, offset within buffer
	for bi < len(vec) {
		if len(vec[bi]) == bo {
			bi++
			bo = 0
			continue
		}
		dev, devOff, run := a.locate(off)
		ext := vecExtent{dev: dev, devOff: devOff}
		filled := int64(0)
		for filled < run && bi < len(vec) {
			b := vec[bi][bo:]
			n := run - filled
			if int64(len(b)) <= n {
				ext.bufs = append(ext.bufs, b)
				filled += int64(len(b))
				bi++
				bo = 0
			} else {
				ext.bufs = append(ext.bufs, b[:n])
				bo += int(n)
				filled += n
			}
		}
		exts = append(exts, ext)
		off += filled
	}
	return exts
}

// BatchRead is one contiguous scatter read in a batch submission: the
// linear range starting at Off is transferred into the buffers of Vec in
// order, then Done fires — exactly once, from an I/O goroutine, after
// every device extent completes, with the first failure if any.
type BatchRead struct {
	Off  int64
	Vec  [][]byte
	Done func(err error)
}

// SubmitReadBatch is the array's one asynchronous read entry. Every read
// of the batch is cut into device extents at stripe boundaries, extents
// are grouped per device, and each device receives its whole group
// through SubmitBatch — which sorts and coalesces adjacent extents
// ACROSS reads before service. A SAFS flush of staged page loads
// therefore becomes at most one (vectored) request per device per
// contiguous byte run, however many reads staged it.
func (a *Array) SubmitReadBatch(batch []BatchRead) { a.submit(OpRead, batch) }

// submit routes a batch of transfers (reads or writes, per op) to the
// devices, one SubmitBatch per device.
func (a *Array) submit(op Op, batch []BatchRead) {
	rt, _ := a.routing.Get().(*routing)
	if rt == nil {
		rt = &routing{perDev: make([][]*Request, len(a.devices))}
	}
	perDev := rt.perDev
	for i := range batch {
		br := &batch[i]
		dev, devOff, run := a.locate(br.Off)
		if n := int64(vecLen(br.Vec)); 0 < n && n <= run {
			// Inside one stripe unit — nearly every merged FlashGraph
			// read — the transfer is one device request over the caller's
			// own scatter list: nothing to cut.
			perDev[dev] = append(perDev[dev], &Request{Op: op, Offset: devOff, Vec: br.Vec, Done: br.Done})
			continue
		}
		exts := a.cutVec(br.Off, br.Vec)
		if len(exts) == 0 {
			br.Done(nil)
			continue
		}
		done := joinDone(len(exts), br.Done)
		for _, e := range exts {
			perDev[e.dev] = append(perDev[e.dev], &Request{Op: op, Offset: e.devOff, Vec: e.bufs, Done: done})
		}
	}
	for dev, reqs := range perDev {
		a.devices[dev].SubmitBatch(reqs)
		clear(reqs) // a submitted request belongs to its device
		perDev[dev] = reqs[:0]
	}
	a.routing.Put(rt)
}

// transferSync moves buf to or from linear offset off — a batch of one —
// and waits.
func (a *Array) transferSync(op Op, buf []byte, off int64) error {
	ch := make(chan error, 1)
	a.submit(op, []BatchRead{{Off: off, Vec: [][]byte{buf}, Done: func(err error) { ch <- err }}})
	return <-ch
}

// ReadAt reads synchronously (setup paths, SpMV stripe sweeps, tests).
func (a *Array) ReadAt(buf []byte, off int64) error { return a.transferSync(OpRead, buf, off) }

// WriteAt writes synchronously (image building).
func (a *Array) WriteAt(buf []byte, off int64) error { return a.transferSync(OpWrite, buf, off) }

// ArrayStats aggregates device stats.
type ArrayStats struct {
	Reads         int64
	Writes        int64
	BytesRead     int64
	BytesWrite    int64
	SeqReads      int64
	VecReads      int64
	BatchSubmits  int64
	BatchedReqs   int64
	CoalescedReqs int64
	QueuePeak     int64 // max across devices
	// Retries/Errors sum the devices' transient-retry and post-retry
	// failure counts; DegradedDevices counts devices currently tripped
	// into fail-fast mode.
	Retries         int64
	Errors          int64
	DegradedDevices int
	Busy            time.Duration // summed across devices
	PerDevice       []DeviceStats
}

// MergeRatio reports batched requests per served device request across
// the array (1 when no batches were submitted).
func (s ArrayStats) MergeRatio() float64 {
	served := s.BatchedReqs - s.CoalescedReqs
	if served <= 0 {
		return 1
	}
	return float64(s.BatchedReqs) / float64(served)
}

// Stats snapshots all devices.
func (a *Array) Stats() ArrayStats {
	var s ArrayStats
	for _, d := range a.devices {
		ds := d.Stats()
		s.Reads += ds.Reads
		s.Writes += ds.Writes
		s.BytesRead += ds.BytesRead
		s.BytesWrite += ds.BytesWrite
		s.SeqReads += ds.SeqReads
		s.VecReads += ds.VecReads
		s.BatchSubmits += ds.BatchSubmits
		s.BatchedReqs += ds.BatchedReqs
		s.CoalescedReqs += ds.CoalescedReqs
		if ds.QueuePeak > s.QueuePeak {
			s.QueuePeak = ds.QueuePeak
		}
		s.Retries += ds.Retries
		s.Errors += ds.Errors
		if ds.Degraded {
			s.DegradedDevices++
		}
		s.Busy += ds.Busy
		s.PerDevice = append(s.PerDevice, ds)
	}
	return s
}

// ResetStats zeroes every device's counters.
func (a *Array) ResetStats() {
	for _, d := range a.devices {
		d.ResetStats()
	}
}

// ResetHealth clears every device's degraded flag and failure streak —
// the operator's "the cable is reseated, try again" lever. Counters
// other than the streak are untouched.
func (a *Array) ResetHealth() {
	for _, d := range a.devices {
		d.ResetHealth()
	}
}
