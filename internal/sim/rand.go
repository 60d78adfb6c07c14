package sim

import "math/rand"

// RNG is a deterministic random stream for one model component. Each
// component owns its own stream (derived from the experiment seed plus a
// component label) so that adding randomness to one component does not
// perturb the draws seen by another — runs stay reproducible under model
// evolution.
type RNG struct {
	r *rand.Rand
}

// NewRNG derives a stream from a base seed and a component label.
func NewRNG(seed int64, label string) *RNG {
	h := uint64(seed)
	for _, c := range label {
		h = h*1099511628211 + uint64(c) // FNV-style mix
	}
	return &RNG{r: rand.New(rand.NewSource(int64(h)))}
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit draw.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uint64 returns a uniform 64-bit draw.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Exp returns an exponentially distributed duration with the given mean,
// suitable for Poisson inter-arrival processes.
func (g *RNG) Exp(mean Duration) Duration {
	d := Duration(g.r.ExpFloat64() * float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
