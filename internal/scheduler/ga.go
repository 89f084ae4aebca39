package scheduler

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ivdss/internal/stats"
)

// GAConfig parameterizes the genetic algorithm over workload permutations.
// The zero value selects the defaults below; Generations defaults to the
// paper's stopping condition of 50 generations.
type GAConfig struct {
	Population   int     // chromosomes per generation (default 40)
	Generations  int     // generational loop length (default 50, as in the paper)
	MutationRate float64 // per-child probability of a swap mutation (default 0.2)
	Elite        int     // top chromosomes carried over unchanged (default Population/4)
	Seed         int64
}

func (c GAConfig) withDefaults() GAConfig {
	if c.Population == 0 {
		c.Population = 40
	}
	if c.Generations == 0 {
		c.Generations = 50
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.2
	}
	if c.Elite == 0 {
		c.Elite = c.Population / 4
	}
	return c
}

func (c GAConfig) validate() error {
	if c.Population < 2 {
		return fmt.Errorf("scheduler: GA population %d must be at least 2", c.Population)
	}
	if c.Generations < 1 {
		return fmt.Errorf("scheduler: GA generations %d must be positive", c.Generations)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("scheduler: GA mutation rate %v outside [0, 1]", c.MutationRate)
	}
	if c.Elite < 0 || c.Elite >= c.Population {
		return fmt.Errorf("scheduler: GA elite %d outside [0, population)", c.Elite)
	}
	return nil
}

// GAStats instruments one optimization run.
type GAStats struct {
	Evaluations int // distinct chromosomes evaluated (memoized)
	Generations int
	Identity    float64 // fitness of the identity (FIFO) order, always evaluated first
}

// OptimizeOrder searches permutations of [0, n) for the one maximizing
// fitness. One chromosome of the initial population is always the identity
// permutation (the FIFO order), so the GA never returns a schedule worse
// than first-come-first-served. Fitness values are memoized per
// permutation, which matters because the evaluation function re-plans
// every query in the workload. fitness must not keep order past its
// call: the slices of chromosomes that leave the population are reused.
func OptimizeOrder(n int, fitness func(order []int) (float64, error), cfg GAConfig) ([]int, float64, GAStats, error) {
	var st GAStats
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, 0, st, err
	}
	if n <= 0 {
		return nil, 0, st, fmt.Errorf("scheduler: cannot order %d queries", n)
	}
	if n == 1 {
		v, err := fitness([]int{0})
		st.Evaluations, st.Identity = 1, v
		return []int{0}, v, st, err
	}

	src := stats.NewSource(cfg.Seed)
	// The memo keys a permutation by its genes as uvarints, a prefix-free
	// code, built on the stack: only a new permutation's key is copied.
	memo := make(map[string]float64)
	evaluate := func(order []int) (float64, error) {
		var buf [64]byte
		key := buf[:0]
		for _, g := range order {
			key = binary.AppendUvarint(key, uint64(g))
		}
		if v, ok := memo[string(key)]; ok {
			return v, nil
		}
		v, err := fitness(order)
		if err != nil {
			return 0, err
		}
		memo[string(key)] = v
		st.Evaluations++
		return v, nil
	}

	type chromo struct {
		order []int
		fit   float64
	}
	pop := make([]chromo, 0, cfg.Population)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	fit, err := evaluate(identity)
	if err != nil {
		return nil, 0, st, err
	}
	st.Identity = fit
	pop = append(pop, chromo{identity, fit})
	for len(pop) < cfg.Population {
		order := src.Perm(n)
		fit, err := evaluate(order)
		if err != nil {
			return nil, 0, st, err
		}
		pop = append(pop, chromo{order, fit})
	}

	// Fittest first; equal (and incomparable) fitnesses keep their order.
	rank := func() {
		slices.SortStableFunc(pop, func(x, y chromo) int {
			switch {
			case x.fit > y.fit:
				return -1
			case x.fit < y.fit:
				return 1
			}
			return 0
		})
	}
	rank()

	// Generations alternate between two population buffers; taken is
	// orderCrossover's scratch and spare the orders of chromosomes that
	// left the population, which children are written into.
	next := make([]chromo, 0, cfg.Population)
	taken := make([]bool, n)
	var spare [][]int
	for gen := 0; gen < cfg.Generations; gen++ {
		st.Generations++
		// The best chromosomes are the parents (rank selection).
		parents := pop[:cfg.Population/2]
		next = append(next[:0], pop[:cfg.Elite]...)
		for len(next) < cfg.Population {
			a := parents[src.Intn(len(parents))]
			b := parents[src.Intn(len(parents))]
			var child []int
			if k := len(spare); k > 0 {
				child, spare = spare[k-1], spare[:k-1]
			} else {
				child = make([]int, n)
			}
			orderCrossover(a.order, b.order, src, taken, child)
			if src.Float64() < cfg.MutationRate {
				swapMutate(child, src)
			}
			fit, err := evaluate(child)
			if err != nil {
				return nil, 0, st, err
			}
			next = append(next, chromo{child, fit})
		}
		// The new population holds the old elites by reference and fresh
		// children, so every other old chromosome's order is free.
		pop, next = next, pop
		for _, c := range next[cfg.Elite:] {
			spare = append(spare, c.order)
		}
		rank()
	}
	best := pop[0]
	return append([]int{}, best.order...), best.fit, st, nil
}

// orderCrossover implements the paper's recombination: "a randomly chosen
// contiguous subsection of the first parent is copied to the child, and
// then all remaining items in the second parent (that have not already
// been taken from the first parent's subsection) are then copied to the
// child in order of appearance." taken is scratch of len(a); every gene of
// child, len(a) long, is written.
func orderCrossover(a, b []int, src *stats.Source, taken []bool, child []int) {
	n := len(a)
	lo := src.Intn(n)
	hi := lo + src.Intn(n-lo) + 1 // [lo, hi) non-empty
	clear(taken)
	for _, g := range a[lo:hi] {
		taken[g] = true
	}
	copy(child[lo:hi], a[lo:hi])
	// Items from b fill positions before and after the copied subsection,
	// preserving the subsection's position in the child.
	pos := 0
	for _, g := range b {
		if taken[g] {
			continue
		}
		if pos == lo {
			pos = hi
		}
		child[pos] = g
		pos++
	}
}

// swapMutate exchanges two random genes in place.
func swapMutate(order []int, src *stats.Source) {
	if len(order) < 2 {
		return
	}
	i := src.Intn(len(order))
	j := src.Intn(len(order) - 1)
	if j >= i {
		j++
	}
	order[i], order[j] = order[j], order[i]
}
