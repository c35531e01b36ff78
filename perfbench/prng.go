package main

import (
	"math"
	"math/rand"
)

// prng is a splitmix64 generator: allocation-free, so drawing a step on the
// client's hot path costs nothing the server could be blamed for.
type prng uint64

// newPRNG derives a generator from a tuple of keys.
func newPRNG(keys ...int64) prng {
	var p prng
	for _, k := range keys {
		p = prng(uint64(p)*0x9E3779B97F4A7C15 ^ uint64(k))
		p.next()
	}
	return p
}

func newStdRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func (p *prng) next() uint64 {
	*p += 0x9E3779B97F4A7C15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (p *prng) float64() float64 { return float64(p.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// norm returns a standard normal value (Box–Muller).
func (p *prng) norm() float64 {
	u := 1 - p.float64() // (0, 1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*p.float64())
}

// perm returns a uniform permutation of [0, n).
func (p *prng) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		j := p.intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out
}
