package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ivdss/internal/core"
)

// BudgetConfig parameterizes per-tenant IV budgets.
type BudgetConfig struct {
	// Weights maps tenant names to budget weights: a tenant with twice the
	// weight is entitled to twice the delivered IV before its queries
	// become preferred shedding victims. Unlisted tenants (including the
	// empty default tenant) get weight 1.
	Weights map[string]float64
	// HalfLife is the decay half-life of charged spend, in experiment
	// minutes (default 60): budgets measure recent consumption, not
	// all-time totals, so a tenant that backs off recovers.
	HalfLife core.Duration
	// Now supplies the experiment clock for decay; required.
	Now func() core.Time
}

// Budgets tracks per-tenant IV consumption and implements the
// weighted-fair victim policy for bounded admission queues
// (scheduler.EngineConfig.Victim): when the queue is full, the query with
// the lowest budget-weighted priority — business value × weight scaled
// down by the tenant's recent normalized spend — is shed in favor of the
// arrival, provided the arrival outranks it. Charge delivered IV on every
// completion to keep the debt accounts honest. Safe for concurrent use.
type Budgets struct {
	cfg BudgetConfig

	mu sync.Mutex
	// spent holds decayed delivered IV per tenant; decayed lazily against
	// decayedAt on every access.
	spent     map[string]float64
	decayedAt core.Time
}

// NewBudgets validates the config and returns a zero-spend account set.
func NewBudgets(cfg BudgetConfig) (*Budgets, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("cluster: budgets need a clock")
	}
	// Validate in sorted order so the reported offender is deterministic.
	tenants := make([]string, 0, len(cfg.Weights))
	for t := range cfg.Weights {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if w := cfg.Weights[t]; w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("cluster: tenant %q weight %v must be positive and finite", t, w)
		}
	}
	if cfg.HalfLife == 0 {
		cfg.HalfLife = 60
	}
	if cfg.HalfLife < 0 {
		return nil, fmt.Errorf("cluster: budget half-life %v must be positive", cfg.HalfLife)
	}
	return &Budgets{cfg: cfg, spent: make(map[string]float64), decayedAt: cfg.Now()}, nil
}

// Weight returns a tenant's budget weight.
func (b *Budgets) Weight(tenant string) float64 {
	if w, ok := b.cfg.Weights[tenant]; ok {
		return w
	}
	return 1
}

// decayLocked rolls every spend account forward to now.
func (b *Budgets) decayLocked(now core.Time) {
	dt := now - b.decayedAt
	if dt <= 0 {
		return
	}
	f := math.Pow(.5, dt/b.cfg.HalfLife)
	for t := range b.spent {
		b.spent[t] *= f
	}
	b.decayedAt = now
}

// Charge records delivered information value against a tenant's budget.
func (b *Budgets) Charge(tenant string, iv float64) {
	if iv <= 0 {
		return
	}
	b.mu.Lock()
	b.decayLocked(b.cfg.Now())
	b.spent[tenant] += iv
	b.mu.Unlock()
}

// Spent returns the decayed per-tenant consumption, for status displays.
func (b *Budgets) Spent() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decayLocked(b.cfg.Now())
	out := make(map[string]float64, len(b.spent))
	for t, v := range b.spent {
		out[t] = v
	}
	return out
}

// priorityLocked scores one query: IV potential per budget unit. Recent
// spend divides the score — a tenant that has consumed its weighted share
// ranks below one that has not, which is exactly weighted fair shedding.
func (b *Budgets) priorityLocked(q core.Query) float64 {
	bv := q.BusinessValue
	if bv == 0 {
		bv = 1 // wire default: unvalued queries count as unit value
	}
	w := b.Weight(q.Tenant)
	return bv * w / (1 + b.spent[q.Tenant]/w)
}

// Victim implements scheduler.EngineConfig.Victim: pick the queued query
// with the lowest budget-weighted priority, and evict it only if the
// arrival outranks it — otherwise refuse the arrival (-1). Determinism:
// the earliest-queued minimum wins ties.
func (b *Budgets) Victim(arriving core.Query, queued []core.Query) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decayLocked(b.cfg.Now())
	worst := -1
	worstScore := 0.0
	for i, q := range queued {
		if s := b.priorityLocked(q); worst < 0 || s < worstScore {
			worst, worstScore = i, s
		}
	}
	if worst < 0 || b.priorityLocked(arriving) <= worstScore {
		return -1
	}
	return worst
}
