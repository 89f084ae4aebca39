// Package stats provides the deterministic random streams used by the
// simulator and the workload generators — exponential and Zipf streams,
// plus a seeded source of primitive draws — and the summary statistics the
// experiments report.
//
// It is the substitute for the JavaSim stream class the paper relies on
// (ExponentialStream): every stream is seeded explicitly so that a whole
// experiment is reproducible bit-for-bit from its seed.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// ExponentialStream draws exponentially distributed samples with a fixed
// mean. It mirrors JavaSim's ExponentialStream, which the paper uses to
// model both data-synchronization cycles and query arrivals.
type ExponentialStream struct {
	mean float64
	rng  *rand.Rand
}

// NewExponentialStream returns a stream with the given mean inter-sample
// value, seeded deterministically. It panics if mean is not positive; a
// non-positive mean is a programming error, not a runtime condition.
func NewExponentialStream(mean float64, seed int64) *ExponentialStream {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: exponential mean must be positive, got %v", mean))
	}
	return &ExponentialStream{mean: mean, rng: rand.New(rand.NewSource(seed))}
}

// Mean returns the configured mean of the stream.
func (s *ExponentialStream) Mean() float64 { return s.mean }

// Next returns the next exponentially distributed sample.
func (s *ExponentialStream) Next() float64 {
	return s.rng.ExpFloat64() * s.mean
}

// Zipf draws integers in [0, n) with a Zipfian (skewed) distribution. The
// paper's skewed table placement (half the tables on site 0, a quarter on
// site 1, ...) is a special case with exponent ~1 over site ranks; Zipf is
// also used to skew table popularity in synthetic workloads.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf source over [0, n) with skew s > 1.
// It panics on invalid parameters.
func NewZipf(n uint64, s float64, seed int64) *Zipf {
	if n == 0 {
		panic("stats: zipf requires n > 0")
	}
	if s <= 1 {
		panic(fmt.Sprintf("stats: zipf skew must be > 1, got %v", s))
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Next returns the next Zipf-distributed integer.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Source is a deterministic convenience wrapper around math/rand used by
// generators that need several primitive draw kinds from one seed.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a deterministic Source for the given seed.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Float64 returns a uniform sample from [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Expo returns an exponential sample with the given mean.
func (s *Source) Expo(mean float64) float64 { return s.rng.ExpFloat64() * mean }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// PickN returns k distinct integers sampled uniformly from [0, n), in random
// order. It panics if k > n or k < 0.
func (s *Source) PickN(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("stats: PickN(%d, %d) out of range", n, k))
	}
	return s.rng.Perm(n)[:k]
}

// FNV1a hashes a string (FNV-1a, 64-bit). It is the repo's canonical way
// to turn a stable name into seed material.
func FNV1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SubSeed derives an independent stream seed from a base seed and a stable
// label. Unlike chaining draws off one shared source, a labelled sub-seed
// is a pure function of (base, label): adding or removing one consumer
// never perturbs another consumer's stream.
func SubSeed(base int64, label string) int64 {
	return base ^ int64(FNV1a(label))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input need not be sorted; xs is
// not modified. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
