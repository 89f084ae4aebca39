package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestExponentialStreamMean(t *testing.T) {
	tests := []struct {
		name string
		mean float64
	}{
		{"mean 1", 1},
		{"mean 10", 10},
		{"mean 0.1", 0.1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewExponentialStream(tt.mean, 42)
			const n = 200000
			var sum float64
			for i := 0; i < n; i++ {
				sum += s.Next()
			}
			got := sum / n
			if rel := math.Abs(got-tt.mean) / tt.mean; rel > 0.02 {
				t.Errorf("empirical mean %v, want %v (rel err %v)", got, tt.mean, rel)
			}
		})
	}
}

func TestExponentialStreamDeterministic(t *testing.T) {
	a := NewExponentialStream(5, 7)
	b := NewExponentialStream(5, 7)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("sample %d diverged: %v vs %v", i, x, y)
		}
	}
}

func TestExponentialStreamPositive(t *testing.T) {
	s := NewExponentialStream(3, 1)
	for i := 0; i < 10000; i++ {
		if x := s.Next(); x < 0 {
			t.Fatalf("negative sample %v", x)
		}
	}
}

func TestExponentialStreamPanicsOnBadMean(t *testing.T) {
	for _, mean := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mean %v: expected panic", mean)
				}
			}()
			NewExponentialStream(mean, 1)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(10, 1.5, 3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[3] {
		t.Errorf("zipf counts not skewed: %v", counts)
	}
}

func TestSourcePickN(t *testing.T) {
	s := NewSource(5)
	picked := s.PickN(20, 7)
	if len(picked) != 7 {
		t.Fatalf("len = %d, want 7", len(picked))
	}
	seen := make(map[int]bool)
	for _, p := range picked {
		if p < 0 || p >= 20 {
			t.Errorf("pick %d outside [0, 20)", p)
		}
		if seen[p] {
			t.Errorf("duplicate pick %d", p)
		}
		seen[p] = true
	}
}

func TestSourcePickNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > n")
		}
	}()
	NewSource(1).PickN(3, 4)
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negatives", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {110, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}

	// A large input with many duplicates, against sort.Float64s and the
	// same closest-ranks interpolation.
	rng := rand.New(rand.NewSource(3))
	big := make([]float64, 10000)
	for i := range big {
		big[i] = float64(rng.Intn(500)) / 4
	}
	ref := append([]float64(nil), big...)
	sort.Float64s(ref)
	for _, p := range []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100} {
		rank := p / 100 * float64(len(ref)-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		frac := rank - float64(lo)
		want := ref[lo]*(1-frac) + ref[hi]*frac
		if lo == hi {
			want = ref[lo]
		}
		if got := Percentile(big, p); got != want {
			t.Errorf("Percentile(10k, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		got := Percentile(xs, pp)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
