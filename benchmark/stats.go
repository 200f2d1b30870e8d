package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors the benchmark's one host clock: every host-time number
// in this package is a difference of two now() readings.
var epoch = time.Now() //mlint:allow wallclock the benchmark measures host time; no simulated state reads it

// now returns host time since process start.
func now() time.Duration {
	return time.Since(epoch) //mlint:allow wallclock the benchmark measures host time; no simulated state reads it
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is the
// spread rule of the builder's contract and of -compare.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(0.25), at(0.75)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
