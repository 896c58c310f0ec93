package util

import (
	"math/bits"
	"sync/atomic"
)

// Bitmap is a fixed-size bitmap. Set/Get are safe for concurrent use via
// atomic operations; Clear and Count are not synchronized with concurrent
// setters and should run during quiescent phases (e.g. between engine
// iterations).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap holding n bits, all zero.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i and reports whether it was previously clear
// (i.e. whether this call changed it). Safe for concurrent use. A bit
// that is already set costs a load and a test and writes nothing, so
// concurrent setters naming the same bits (a frontier's duplicate
// activations) do not pass the word's cache line between them; only a
// clear bit pays for one atomic OR.
func (b *Bitmap) Set(i int) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	if atomic.LoadUint64(w)&mask != 0 {
		return false
	}
	return atomic.OrUint64(w, mask)&mask == 0
}

// SetMany sets every bit named in is. Safe for concurrent use.
func (b *Bitmap) SetMany(is []uint32) {
	for _, i := range is {
		b.Set(int(i))
	}
}

// Unset clears bit i. Safe for concurrent use.
func (b *Bitmap) Unset(i int) {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(w, old, old&^mask) {
			return
		}
	}
}

// Get reports whether bit i is set. Safe for concurrent use.
func (b *Bitmap) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<(uint(i)&63)) != 0
}

// Clear zeroes all bits. Not synchronized with concurrent Set calls.
func (b *Bitmap) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll sets every bit. Not synchronized with concurrent setters.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if extra := len(b.words)*64 - b.n; extra > 0 {
		b.words[len(b.words)-1] &= ^uint64(0) >> uint(extra)
	}
}

// Any reports whether any bit is set. Not synchronized with concurrent
// Set calls.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits. Not synchronized with concurrent
// Set calls.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendSet appends the indices of the set bits in [lo, hi) to dst in
// ascending order, a word at a time. Not synchronized with concurrent
// setters.
func (b *Bitmap) AppendSet(dst []uint32, lo, hi int) []uint32 {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := b.words[wi]
		if base := wi << 6; base < lo {
			w &= ^uint64(0) << uint(lo-base)
		}
		if end := wi<<6 + 64; end > hi {
			w &= ^uint64(0) >> uint(end-hi)
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// ForEach calls fn for every set bit in ascending order. Not synchronized
// with concurrent setters.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			i := wi<<6 + bit
			if i >= b.n {
				return
			}
			fn(i)
			w &^= 1 << uint(bit)
		}
	}
}
