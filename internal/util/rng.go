// Package util provides small shared utilities for the FlashGraph
// reproduction: a fast deterministic RNG, concurrent bitmaps, and
// formatting helpers. Everything here is dependency-free and safe to use
// from hot paths.
package util

// RNG is a fast, deterministic pseudo-random number generator
// (xorshift128+). It is NOT safe for concurrent use; create one per
// goroutine. The zero value is invalid — use NewRNG.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns an RNG seeded from seed. Two RNGs built from the same
// seed produce identical streams, which keeps graph generation and
// workloads reproducible across runs.
func NewRNG(seed uint64) *RNG {
	// SplitMix64 seeding, as recommended for xorshift-family generators.
	r := &RNG{}
	z := seed
	next := func() uint64 {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x := r.s0
	y := r.s1
	r.s0 = y
	x ^= x << 23
	r.s1 = x ^ y ^ (x >> 17) ^ (y >> 26)
	return r.s1 + y
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("util: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// A Jump advances an RNG by a fixed number of draws in one step.
// xorshift128+'s state update is linear over GF(2), so n draws are the
// 128×128 bit matrix Mⁿ applied to the state; a Jump holds that matrix
// as its 128 columns (the image of each state bit), built once by
// repeated squaring and then applied to any number of RNGs. Drawing
// Uint64, Uint32, Intn, Uint64n or Float64 each advances the state by
// one draw.
type Jump struct {
	cols [128][2]uint64
}

// NewJump returns the jump of n draws. Building it costs about
// log2(n) matrix squarings (≈ 1M word operations at n = 2^20);
// applying it costs 128 masked XORs.
func NewJump(n uint64) *Jump {
	step := &Jump{}
	for i := range step.cols {
		var r RNG
		if i < 64 {
			r.s0 = 1 << i
		} else {
			r.s1 = 1 << (i - 64)
		}
		r.Uint64()
		step.cols[i] = [2]uint64{r.s0, r.s1}
	}
	j := &Jump{}
	for i := range j.cols {
		j.cols[i][i/64] = 1 << (i % 64)
	}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			j = step.compose(j)
		}
		step = step.compose(step)
	}
	return j
}

// apply returns the matrix times the state (s0, s1).
func (j *Jump) apply(s0, s1 uint64) (uint64, uint64) {
	var o0, o1 uint64
	for i := 0; i < 64; i++ {
		m := -(s0 >> i & 1)
		o0 ^= j.cols[i][0] & m
		o1 ^= j.cols[i][1] & m
	}
	for i := 0; i < 64; i++ {
		m := -(s1 >> i & 1)
		o0 ^= j.cols[64+i][0] & m
		o1 ^= j.cols[64+i][1] & m
	}
	return o0, o1
}

// compose returns the jump that applies k, then j.
func (j *Jump) compose(k *Jump) *Jump {
	out := &Jump{}
	for i, c := range k.cols {
		o0, o1 := j.apply(c[0], c[1])
		out.cols[i] = [2]uint64{o0, o1}
	}
	return out
}

// Jump advances r as if it had drawn j's number of values.
func (r *RNG) Jump(j *Jump) {
	r.s0, r.s1 = j.apply(r.s0, r.s1)
}
