package scheduler

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ivdss/internal/core"
	"ivdss/internal/metrics"
)

// Dispatch is one scheduling decision handed to an Executor: the query,
// the plan that won the dispatch ranking, and the opaque payload its
// submitter attached (the live server carries the parsed statement and the
// waiting client's reply channel there; the simulator carries nothing).
type Dispatch struct {
	Query core.Query
	Plan  core.Plan
	// Payload is whatever the submitter passed to Submit/SubmitGroup.
	Payload any
	// MQOFallback marks a query whose workload formation or GA ordering
	// failed, so it was queued in plain submission order instead.
	MQOFallback bool
}

// Executor runs one dispatched query and reports its outcome. done must be
// called exactly once, never synchronously from inside Execute: the engine
// frees the execution slot and dispatches the next query from it. The DES
// driver models execution on virtual time (PlanExecutor); the live server
// executes the plan for real.
type Executor interface {
	Execute(d Dispatch, done func(core.Outcome))
}

// PlanExecutor models execution on the clock: the report arrives when the
// dispatched plan says it does, and the outcome carries the plan's own
// latencies and information value. This is the evaluation model the
// paper's simulator uses.
type PlanExecutor struct {
	Clock Clock
	Rates core.DiscountRates
}

var _ Executor = PlanExecutor{}

// Execute implements Executor.
func (e PlanExecutor) Execute(d Dispatch, done func(core.Outcome)) {
	plan := d.Plan
	q := d.Query
	e.Clock.AfterFunc(plan.ResultAt()-e.Clock.Now(), func() {
		lat := plan.Latencies()
		done(core.Outcome{
			Query:     q,
			Plan:      plan,
			Latencies: lat,
			Value:     core.InformationValue(q.BusinessValue, lat, e.Rates),
			Wait:      plan.Start - q.SubmitAt,
		})
	})
}

// EngineConfig wires a scheduling engine to its time source, executor, and
// policies.
type EngineConfig struct {
	Clock    Clock
	Executor Executor
	// Strategy plans candidates at dispatch time; the highest effective
	// value (IV + aging boost) wins the free slot.
	Strategy Strategy
	// Rates price the candidate plans during dispatch ranking.
	Rates core.DiscountRates
	// Slots is the number of concurrent executions (DES coordinator slots,
	// live worker parallelism).
	Slots int
	// Aging is the Section 3.3 anti-starvation policy; the zero value
	// disables it, making dispatch purely value-maximizing.
	Aging core.Aging
	// Window is the micro-batch window in experiment minutes: queries
	// arriving within one open window are formed into workloads and
	// GA-ordered together before any of them dispatches (continuous MQO).
	// Zero dispatches each arrival individually.
	Window core.Duration
	// GA parameterizes workload ordering; per-workload seeds derive from
	// GA.Seed so concurrent engines stay deterministic. Formation scores
	// candidate orders with the Strategy's planner and catalog view, so it
	// needs an *IVQPStrategy: with any other strategy Window must be zero
	// and submitted groups fall back to submission order.
	GA GAConfig
	// FIFO dispatches strictly in submission order, planning only the
	// chosen query — the "live path without IVQP dispatch" baseline.
	FIFO bool
	// MaxQueue bounds how many queries may wait (excluding the ones
	// executing); Submit refuses arrivals beyond it. Zero is unbounded.
	MaxQueue int
	// Victim, when set alongside MaxQueue, turns queue-full refusal into
	// policy-driven eviction: an arrival that finds the queue full offers
	// the waiting queries (in submission order) to Victim, which returns
	// the index of the one to evict in the arrival's favor — or -1 to
	// refuse the arrival as usual. The evicted query leaves as an expired
	// outcome through OnDrop. Group submissions never evict; they stay
	// all-or-nothing. Queries still being formed count against MaxQueue but
	// are not offered. Victim runs under the engine lock and must not call
	// back into the engine.
	Victim func(arriving core.Query, queued []core.Query) int
	// HaltOnPlanError stops the engine at the first planning failure,
	// surfacing it via Err — the DES contract, where a plan error is a
	// configuration bug. When false the failing query is dropped with
	// Outcome.Err set and scheduling continues — the live contract, where
	// one query's failure must not stall the server.
	HaltOnPlanError bool
	// RecordOutcomes keeps every outcome in memory for Outcomes(). Leave
	// false on long-running servers.
	RecordOutcomes bool
	// Stats, when set, receives the scheduling metrics
	// (workloads_formed_total, workload_size, mqo_iv_gain,
	// mqo_fallback_total, aging_boost_applied_total).
	Stats *metrics.Registry
	// OnDrop is invoked (outside the engine lock) for every query that
	// leaves the engine without executing: expired in the queue
	// (Outcome.Expired) or failed to plan (Outcome.Err). The payload is the
	// one given at submission.
	OnDrop func(o core.Outcome, payload any)
}

// workloadSizeBounds buckets the workload_size histogram.
var workloadSizeBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// ivGainBounds buckets the mqo_iv_gain histogram (GA total IV minus FIFO
// total IV per formed workload).
var ivGainBounds = []float64{.01, .02, .05, .1, .2, .5, 1, 2, 5, 10}

// Engine is the clock-agnostic scheduling core shared by the DES
// dispatcher and the live DSS server: arrivals are buffered in a
// micro-batch window, formed into workloads of range-overlapping queries,
// GA-ordered for total information value, and dispatched
// highest-effective-value-first with horizon shedding — the paper's
// Sections 3.1–3.3 as one pipeline, parameterized over the Clock and
// Executor so virtual and wall-clock drivers run identical decisions.
type Engine struct {
	cfg EngineConfig
	ev  *Evaluator // formation's scorer over the IVQP strategy; nil for any other

	mu      sync.Mutex
	epsilon float64
	// pending buffers arrivals while a micro-batch window is open.
	pending    []*entry
	windowOpen bool
	// flat holds ready queries in submission order (singletons and
	// fallbacks); runs holds GA-ordered workloads, each dispatching its
	// members in order (only the head competes for a slot).
	flat []*entry
	runs []*run
	busy int
	// forming counts admitted queries whose formation runs outside the
	// lock: they hold queue space but are in no list, so Victim never sees
	// them.
	forming int
	// workloadSeq derives per-workload GA seeds; formations draw from it
	// concurrently.
	workloadSeq atomic.Int64
	outcomes    []core.Outcome
	expired     int
	halted      error
	stopped     bool
}

// entry is one queued query plus its submitter's payload.
type entry struct {
	q        core.Query
	payload  any
	fallback bool
}

// run is a formed workload mid-execution: members dispatch in GA order.
type run struct {
	members []*entry
}

// NewEngine validates the configuration and returns an idle engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Clock == nil || cfg.Executor == nil || cfg.Strategy == nil {
		return nil, fmt.Errorf("scheduler: engine needs a clock, an executor, and a strategy")
	}
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("scheduler: engine needs at least one slot, got %d", cfg.Slots)
	}
	if err := cfg.Rates.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Aging.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("scheduler: micro-batch window %v must be non-negative", cfg.Window)
	}
	e := &Engine{cfg: cfg}
	if st, ok := cfg.Strategy.(*IVQPStrategy); ok {
		e.ev = &Evaluator{Planner: st.Planner, Catalog: st.Catalog, Horizon: st.Horizon}
	}
	if cfg.Window > 0 && e.ev == nil {
		return nil, fmt.Errorf("scheduler: a micro-batch window needs an IVQP strategy")
	}
	if cfg.Stats != nil {
		// Pre-create the scheduling metrics so a dump shows them at zero.
		cfg.Stats.Counter("workloads_formed_total")
		cfg.Stats.Counter("mqo_fallback_total")
		cfg.Stats.Counter("aging_boost_applied_total")
		cfg.Stats.Histogram("workload_size", workloadSizeBounds)
		cfg.Stats.Histogram("mqo_iv_gain", ivGainBounds)
	}
	return e, nil
}

// SetEpsilon enables value-horizon expiry: a queued query whose best-case
// information value has dropped below epsilon by the time a dispatch
// decision is made is shed instead of planned, recorded as an expired
// outcome. The check runs on the raw information-value horizon — the
// anti-starvation aging boost raises a query's dispatch priority but
// cannot resurrect value that has already decayed away. Zero or negative
// epsilon disables expiry (the default).
func (e *Engine) SetEpsilon(epsilon float64) {
	e.mu.Lock()
	e.epsilon = epsilon
	e.mu.Unlock()
}

// Submit offers one query to the engine. It returns false — and takes no
// ownership — when MaxQueue is exceeded or the engine has stopped. With a
// micro-batch window configured the query waits for the window to close
// before it can dispatch; otherwise it competes for a slot immediately.
func (e *Engine) Submit(q core.Query, payload any) bool {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return false
	}
	var evictions []action
	if e.cfg.MaxQueue > 0 && e.queuedLocked() >= e.cfg.MaxQueue {
		if e.cfg.Victim == nil {
			e.mu.Unlock()
			return false
		}
		queued := e.queuedEntriesLocked()
		qs := make([]core.Query, len(queued))
		for i, en := range queued {
			qs[i] = en.q
		}
		idx := e.cfg.Victim(q, qs)
		if idx < 0 || idx >= len(queued) {
			e.mu.Unlock()
			return false
		}
		e.evictLocked(queued[idx], &evictions)
	}
	en := &entry{q: q, payload: payload}
	if e.cfg.Window > 0 {
		e.pending = append(e.pending, en)
		if !e.windowOpen {
			e.windowOpen = true
			e.cfg.Clock.AfterFunc(e.cfg.Window, e.closeWindow)
		}
		e.mu.Unlock()
		e.perform(evictions)
		return true
	}
	e.flat = append(e.flat, en)
	acts := e.decideLocked()
	e.mu.Unlock()
	e.perform(append(evictions, acts...))
	return true
}

// queuedEntriesLocked lists every waiting query in deterministic order:
// window buffer first, then the flat queue, then run members in workload
// order — the same order Victim sees.
func (e *Engine) queuedEntriesLocked() []*entry {
	out := make([]*entry, 0, e.queuedLocked())
	out = append(out, e.pending...)
	out = append(out, e.flat...)
	for _, r := range e.runs {
		out = append(out, r.members...)
	}
	return out
}

// evictLocked removes one waiting entry in favor of a new arrival,
// recording it as an expired (shed) outcome.
func (e *Engine) evictLocked(victim *entry, acts *[]action) {
	var found bool
	if e.pending, found = without(e.pending, victim); !found {
		if e.flat, found = without(e.flat, victim); !found {
			for _, r := range e.runs {
				if r.members, found = without(r.members, victim); found {
					if len(r.members) == 0 {
						e.runs, _ = without(e.runs, r)
					}
					break
				}
			}
		}
	}
	if !found {
		return
	}
	o := core.Outcome{Query: victim.q, Wait: e.cfg.Clock.Now() - victim.q.SubmitAt, Expired: true}
	if e.cfg.RecordOutcomes {
		e.outcomes = append(e.outcomes, o)
	}
	e.expired++
	*acts = append(*acts, action{drop: &o, dropPl: victim.payload})
}

// SubmitGroup offers an explicit workload (a client batch). Admission is
// all-or-nothing against MaxQueue. The group is formed into workloads and
// GA-ordered immediately, independent of the micro-batch window: the
// client asked for MQO over exactly this set.
func (e *Engine) SubmitGroup(queries []core.Query, payloads []any) bool {
	if len(queries) != len(payloads) {
		panic(fmt.Sprintf("scheduler: %d payloads for %d queries", len(payloads), len(queries)))
	}
	e.mu.Lock()
	if e.stopped || (e.cfg.MaxQueue > 0 && e.queuedLocked()+len(queries) > e.cfg.MaxQueue) {
		e.mu.Unlock()
		return false
	}
	e.forming += len(queries)
	e.mu.Unlock()
	entries := make([]*entry, len(queries))
	for i, q := range queries {
		entries[i] = &entry{q: q, payload: payloads[i]}
	}
	e.formAndCommit(entries)
	return true
}

// closeWindow fires when the micro-batch window elapses: the buffered
// arrivals become workloads and dispatch begins.
func (e *Engine) closeWindow() {
	e.mu.Lock()
	batch := e.pending
	e.pending = nil
	e.windowOpen = false
	if e.stopped || len(batch) == 0 {
		e.mu.Unlock()
		return
	}
	e.forming += len(batch)
	e.mu.Unlock()
	e.formAndCommit(batch)
}

// formAndCommit forms entries already counted in forming without holding
// the lock — the GA prices hundreds of plans — then queues the result and
// dispatches. Concurrent formations commit in the order they finish. The
// order is not re-validated against the catalog: dispatch re-plans every
// run head at its own instant anyway.
func (e *Engine) formAndCommit(entries []*entry) {
	flat, runs := e.formGroup(entries)
	e.mu.Lock()
	e.forming -= len(entries)
	e.flat = append(e.flat, flat...)
	e.runs = append(e.runs, runs...)
	acts := e.decideLocked()
	e.mu.Unlock()
	e.perform(acts)
}

// formGroup groups entries into workloads of range-overlapping queries and
// GA-orders each one (Section 3.2) through the shared formation loop:
// every workload is evaluated from now on the serialized-coordinator
// model, with GA seeds drawn in formation order. Any failure — a strategy
// other than IVQP, a planning error during range derivation (say a member
// only a downed site could answer), an invalid GA config — falls back to
// plain submission order for the whole group, marks every entry, and
// counts mqo_fallback_total: MQO is an optimization, never a correctness
// gate. It runs outside the lock, so it reads nothing the lock guards.
func (e *Engine) formGroup(entries []*entry) (flat []*entry, runs []*run) {
	if len(entries) <= 1 {
		return entries, nil
	}
	queries := make([]core.Query, len(entries))
	for i, en := range entries {
		queries[i] = en.q
	}
	visit := func(o ordered) error {
		if len(o.order) == 1 {
			flat = append(flat, entries[o.Indices[0]])
			return nil
		}
		r := &run{members: make([]*entry, len(o.order))}
		for pos, local := range o.order {
			r.members[pos] = entries[o.Indices[local]]
		}
		runs = append(runs, r)
		if e.cfg.Stats != nil {
			e.cfg.Stats.Counter("workloads_formed_total").Inc()
			e.cfg.Stats.Histogram("workload_size", workloadSizeBounds).Observe(float64(len(o.order)))
			// The GA seeds its population with the identity permutation, so
			// the gain over FIFO is non-negative by construction.
			e.cfg.Stats.Histogram("mqo_iv_gain", ivGainBounds).Observe(o.best - o.ga.Identity)
		}
		return nil
	}
	now := e.cfg.Clock.Now()
	seed := func(int) int64 { return e.cfg.GA.Seed + e.workloadSeq.Add(1) - 1 }
	if e.ev == nil || form(queries, e.ev, e.cfg.GA, func() core.Time { return now }, seed, visit) != nil {
		if e.cfg.Stats != nil {
			e.cfg.Stats.Counter("mqo_fallback_total").Inc()
		}
		for _, en := range entries {
			en.fallback = true
		}
		return entries, nil
	}
	return flat, runs
}

// action is scheduling work decided under the lock but performed outside
// it, so executors and drop callbacks can re-enter the engine freely.
type action struct {
	launch *Dispatch
	drop   *core.Outcome
	dropPl any
}

// perform runs the actions collected by a decision pass.
func (e *Engine) perform(acts []action) {
	for _, a := range acts {
		switch {
		case a.launch != nil:
			e.cfg.Executor.Execute(*a.launch, e.complete)
		case a.drop != nil && e.cfg.OnDrop != nil:
			e.cfg.OnDrop(*a.drop, a.dropPl)
		}
	}
}

// complete is the done callback handed to every Execute: account the
// outcome, free the slot, and dispatch what's next.
func (e *Engine) complete(o core.Outcome) {
	e.mu.Lock()
	if e.cfg.RecordOutcomes {
		e.outcomes = append(e.outcomes, o)
	}
	e.busy--
	acts := e.decideLocked()
	e.mu.Unlock()
	e.perform(acts)
}

// candidate is one query eligible for the next free slot: a flat entry or
// the head of a run.
type candidate struct {
	en *entry
	r  *run // nil for flat entries
}

// candidatesLocked lists dispatch candidates in deterministic order: flat
// entries by arrival, then run heads by workload creation.
func (e *Engine) candidatesLocked() []candidate {
	cands := make([]candidate, 0, len(e.flat)+len(e.runs))
	for _, en := range e.flat {
		cands = append(cands, candidate{en: en})
	}
	for _, r := range e.runs {
		cands = append(cands, candidate{en: r.members[0], r: r})
	}
	return cands
}

// removeLocked takes a candidate out of its queue.
func (e *Engine) removeLocked(c candidate) {
	if c.r == nil {
		e.flat, _ = without(e.flat, c.en)
		return
	}
	if c.r.members = c.r.members[1:]; len(c.r.members) == 0 {
		e.runs, _ = without(e.runs, c.r)
	}
}

// without removes x from list, reporting whether it was there.
func without[T comparable](list []T, x T) ([]T, bool) {
	if i := slices.Index(list, x); i >= 0 {
		return slices.Delete(list, i, i+1), true
	}
	return list, false
}

// decideLocked is the dispatch loop: shed expired queries, then fill free
// slots with the highest-effective-value candidates (or strictly by
// submission order in FIFO mode). It returns the launches and drops to
// perform outside the lock.
func (e *Engine) decideLocked() []action {
	var acts []action
	e.shedExpiredLocked(&acts)
	for e.halted == nil && !e.stopped && e.busy < e.cfg.Slots {
		cands := e.candidatesLocked()
		if len(cands) == 0 {
			break
		}
		now := e.cfg.Clock.Now()
		if e.cfg.FIFO {
			best := 0
			for i := 1; i < len(cands); i++ {
				if cands[i].en.q.SubmitAt < cands[best].en.q.SubmitAt {
					best = i
				}
			}
			c := cands[best]
			plan, err := e.cfg.Strategy.Plan(c.en.q, now)
			if err != nil {
				e.planFailureLocked(c, now, err, &acts)
				continue
			}
			e.launchLocked(c, plan, &acts)
			continue
		}
		// Value mode plans every candidate — exactly the paper's dispatcher:
		// the free slot goes to the highest effective value, ties to the
		// earliest-queued.
		type scored struct {
			c    candidate
			plan core.Plan
			iv   float64
		}
		ok := make([]scored, 0, len(cands))
		for _, c := range cands {
			plan, err := e.cfg.Strategy.Plan(c.en.q, now)
			if err != nil {
				e.planFailureLocked(c, now, err, &acts)
				if e.halted != nil {
					return acts
				}
				continue
			}
			ok = append(ok, scored{c, plan, plan.Value(e.cfg.Rates)})
		}
		if len(ok) == 0 {
			continue // failed candidates were dropped; rescan
		}
		bestIdx, rawIdx := -1, -1
		bestEff, rawBest := 0.0, 0.0
		for i, sc := range ok {
			eff := e.cfg.Aging.EffectiveValue(sc.iv, now-sc.c.en.q.SubmitAt)
			if bestIdx < 0 || eff > bestEff {
				bestIdx, bestEff = i, eff
			}
			if rawIdx < 0 || sc.iv > rawBest {
				rawIdx, rawBest = i, sc.iv
			}
		}
		if e.cfg.Aging.Enabled() && bestIdx != rawIdx && e.cfg.Stats != nil {
			// The boost changed the decision: a longer-queued query beat the
			// raw value maximizer.
			e.cfg.Stats.Counter("aging_boost_applied_total").Inc()
		}
		e.launchLocked(ok[bestIdx].c, ok[bestIdx].plan, &acts)
	}
	return acts
}

// launchLocked claims a slot for the chosen candidate.
func (e *Engine) launchLocked(c candidate, plan core.Plan, acts *[]action) {
	e.busy++
	e.removeLocked(c)
	*acts = append(*acts, action{launch: &Dispatch{
		Query:       c.en.q,
		Plan:        plan,
		Payload:     c.en.payload,
		MQOFallback: c.en.fallback,
	}})
}

// planFailureLocked handles a candidate that cannot be planned: halt the
// engine (DES contract) or drop the query (live contract).
func (e *Engine) planFailureLocked(c candidate, now core.Time, err error, acts *[]action) {
	if e.cfg.HaltOnPlanError {
		e.halted = fmt.Errorf("scheduler: dispatch %s at %v: %w", c.en.q.ID, now, err)
		return
	}
	e.removeLocked(c)
	o := core.Outcome{Query: c.en.q, Wait: now - c.en.q.SubmitAt, Err: err}
	if e.cfg.RecordOutcomes {
		e.outcomes = append(e.outcomes, o)
	}
	*acts = append(*acts, action{drop: &o, dropPl: c.en.payload})
}

// shedExpiredLocked drops every queued query whose value horizon has
// passed, recording each as an expired outcome. Runs at every dispatch
// decision — including arrivals while all slots are busy — so a query
// never occupies queue space after its value is gone. Queries buffered in
// an open micro-batch window are exempt until the window closes (it is
// short by construction); expiry catches them at formation's first
// dispatch decision.
func (e *Engine) shedExpiredLocked(acts *[]action) {
	if e.epsilon <= 0 {
		return
	}
	now := e.cfg.Clock.Now()
	shed := func(en *entry) bool {
		if now-en.q.SubmitAt < en.q.ValueHorizon(e.cfg.Rates, e.epsilon) {
			return false
		}
		o := core.Outcome{Query: en.q, Wait: now - en.q.SubmitAt, Expired: true}
		if e.cfg.RecordOutcomes {
			e.outcomes = append(e.outcomes, o)
		}
		e.expired++
		*acts = append(*acts, action{drop: &o, dropPl: en.payload})
		return true
	}
	// DeleteFunc asks about each element once, in order, so drops keep
	// their queue order.
	e.flat = slices.DeleteFunc(e.flat, shed)
	e.runs = slices.DeleteFunc(e.runs, func(r *run) bool {
		r.members = slices.DeleteFunc(r.members, shed)
		return len(r.members) == 0
	})
}

// queuedLocked counts queries waiting (not executing): window buffer,
// members being formed, flat queue, and unfinished run members.
func (e *Engine) queuedLocked() int {
	n := len(e.pending) + e.forming + len(e.flat)
	for _, r := range e.runs {
		n += len(r.members)
	}
	return n
}

// Stop prevents further submissions and dispatches. In-flight executions
// finish and are accounted; queued queries stay queued (their submitters
// observe shutdown through their own channels).
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
}

// Outcomes returns every recorded result in decision order (only with
// RecordOutcomes): completions carry their plan and value, expired entries
// are marked Expired with zero value.
func (e *Engine) Outcomes() []core.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.outcomes
}

// Shed returns how many queries expired in the queue and were dropped.
func (e *Engine) Shed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expired
}

// QueueLen returns how many queries are waiting (excluding executions).
func (e *Engine) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queuedLocked()
}

// Pending returns the number of queries still waiting or running.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queuedLocked() + e.busy
}

// Err reports the first planning failure under HaltOnPlanError; the
// engine stops issuing work after one.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.halted
}
