package main

import (
	"math"
	"math/bits"
	"sort"
)

// rng is splitmix64: small, fast and fully determined by its seed, so
// every input the benchmark builds is a pure function of --seed and the
// stream name. It is the benchmark's own generator on purpose — the
// expected answers must not come from the program's code.
type rng struct{ s uint64 }

// newRNG returns the generator for one named input stream under seed.
// Distinct streams (a workload's lists, one client's request sequence)
// never share state, so adding a stream does not shift the others.
func newRNG(seed uint64, stream string) *rng {
	h := uint64(14695981039346656037) // FNV-1a over the stream name
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	r := &rng{s: seed ^ h}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n) (multiply-shift; the bias
// for n far below 2^64 is negligible for input generation).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..k-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(s float64, k int) zipf {
	cdf := make([]float64, k)
	var acc float64
	for i := range cdf {
		acc += 1 / math.Pow(float64(i+1), s)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rng) int {
	i, _ := z.at(r.float())
	return i
}

// at inverts the distribution at u in [0, 1): the rank whose share of
// the CDF holds u, and u's fractional position inside that share.
func (z zipf) at(u float64) (int, float64) {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		return len(z.cdf) - 1, 1
	}
	lo := 0.0
	if i > 0 {
		lo = z.cdf[i-1]
	}
	return i, (u - lo) / (z.cdf[i] - lo)
}

// stratum returns a uniform draw from the i-th of k equal strata of
// [0, 1). Drawing one value per stratum samples a distribution evenly,
// so an input set's make-up barely moves from seed to seed while each
// member still varies with it.
func stratum(r *rng, i, k int) float64 { return (float64(i) + r.float()) / float64(k) }
