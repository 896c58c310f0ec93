package main

import (
	"runtime"
	"time"
)

// machine is the box's speed as two fixed loops see it, taken before and
// after every workload so a slow or noisy box is visible in the ledger.
type machine struct {
	chaseMS, aluMS float64
}

const (
	chaseSlots = 4 << 20 // 32 MiB of uint64: beyond L2, inside the reference box's L3
	chaseSteps = 2 << 20
	aluSteps   = 40 << 20
)

var machineSink uint64

// machineCheck times a dependent-load chase over a fixed random cycle
// and a fixed xorshift loop, best of three each. div shrinks both for
// the smoke test; the command line always passes 1.
func machineCheck(div int) machine {
	// One cycle through every slot (Sattolo's shuffle, fixed seed).
	next := make([]uint64, chaseSlots/div)
	for i := range next {
		next[i] = uint64(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := len(next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	best := func(f func()) float64 {
		b := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < b {
				b = d
			}
		}
		return millis(b)
	}
	m := machine{
		chaseMS: best(func() {
			p := uint64(0)
			for i := 0; i < chaseSteps/div; i++ {
				p = next[p]
			}
			machineSink += p
		}),
		aluMS: best(func() {
			y := uint64(88172645463325252)
			for i := 0; i < aluSteps/div; i++ {
				y ^= y << 13
				y ^= y >> 7
				y ^= y << 17
			}
			machineSink += y
		}),
	}
	next = nil
	runtime.GC()
	return m
}
