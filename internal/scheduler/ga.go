package scheduler

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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
// every query in the workload.
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
	memo := make(map[string]float64)
	evaluate := func(order []int) (float64, error) {
		key := permKey(order)
		if v, ok := memo[key]; ok {
			return v, nil
		}
		v, err := fitness(order)
		if err != nil {
			return 0, err
		}
		memo[key] = v
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

	rank := func() {
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].fit > pop[j].fit })
	}
	rank()

	for gen := 0; gen < cfg.Generations; gen++ {
		st.Generations++
		// The best chromosomes are the parents (rank selection).
		parents := pop[:cfg.Population/2]
		next := make([]chromo, 0, cfg.Population)
		next = append(next, pop[:cfg.Elite]...)
		for len(next) < cfg.Population {
			a := parents[src.Intn(len(parents))]
			b := parents[src.Intn(len(parents))]
			child := orderCrossover(a.order, b.order, src)
			if src.Float64() < cfg.MutationRate {
				swapMutate(child, src)
			}
			fit, err := evaluate(child)
			if err != nil {
				return nil, 0, st, err
			}
			next = append(next, chromo{child, fit})
		}
		pop = next
		rank()
	}
	best := pop[0]
	return append([]int{}, best.order...), best.fit, st, nil
}

// orderCrossover implements the paper's recombination: "a randomly chosen
// contiguous subsection of the first parent is copied to the child, and
// then all remaining items in the second parent (that have not already
// been taken from the first parent's subsection) are then copied to the
// child in order of appearance."
func orderCrossover(a, b []int, src *stats.Source) []int {
	n := len(a)
	lo := src.Intn(n)
	hi := lo + src.Intn(n-lo) + 1 // [lo, hi) non-empty
	child := make([]int, 0, n)
	taken := make([]bool, n)
	for _, g := range a[lo:hi] {
		taken[g] = true
	}
	// Items from b fill positions before and after the copied subsection,
	// preserving the subsection's position in the child.
	var fromB []int
	for _, g := range b {
		if !taken[g] {
			fromB = append(fromB, g)
		}
	}
	child = append(child, fromB[:lo]...)
	child = append(child, a[lo:hi]...)
	child = append(child, fromB[lo:]...)
	return child
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

func permKey(order []int) string {
	var b strings.Builder
	for i, g := range order {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(g))
	}
	return b.String()
}
