package replsync

import (
	"math"
	"sort"

	"ivdss/internal/core"
)

// This file is the adaptive cadence controller: every AdjustEvery minutes
// it re-divides the agent's total sync rate across tables in proportion to
// the square root of each table's decayed IV-loss-to-staleness, and every
// PlaceEvery adjustments it asks the Placer whether the replica set itself
// should change.
//
// The square-root allocation is the classic result for staleness-linear
// loss under a rate budget: a table synced with period p accrues loss at
// roughly (loss rate)×p/2 on average, so total loss Σ lᵢpᵢ is minimized
// subject to Σ 1/pᵢ = R by pᵢ ∝ 1/√lᵢ — i.e. rate ∝ √lᵢ.

// ObserveLoss attributes an observed IV loss to staleness across the
// tables whose replicas the report read. The executor calls it once per
// completed query with the erosion of the (1−λSL)^SL factor; the loss is
// split evenly across the accessed replicated tables (the oldest-freshness
// semantics of SL make exact attribution impossible, and an even split
// keeps hot tables hot). Only the cadence controller reads the ledger, so
// without Adaptive it is a no-op and takes no lock.
func (a *Agent) ObserveLoss(tables []core.TableID, loss float64) {
	if !a.cfg.Adaptive || loss <= 0 || len(tables) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.decayLocked(a.cfg.Clock.Now())
	share := loss / float64(len(tables))
	for _, id := range tables {
		if _, ok := a.tables[id]; ok {
			a.losses[id] += share
		}
	}
}

// decayLocked ages the loss accounting to now with a half-life of two
// controller intervals, so demand that stopped materializing fades out.
func (a *Agent) decayLocked(now core.Time) {
	dt := float64(now - a.lossAt)
	if dt <= 0 {
		return
	}
	a.lossAt = now
	f := math.Pow(0.5, dt/float64(2*a.cfg.AdjustEvery))
	for id, l := range a.losses {
		l *= f
		if l < 1e-12 {
			delete(a.losses, id)
			continue
		}
		a.losses[id] = l
	}
}

// armAdjustLocked schedules the next controller tick.
func (a *Agent) armAdjustLocked() {
	if !a.started || a.stopped {
		return
	}
	gen := a.adjustGen
	a.after(a.cfg.AdjustEvery, func(a *Agent) { a.adjustTick(gen) })
}

// adjustTick is one controller step: re-divide the rate budget, re-arm the
// table timers that moved, and every PlaceEvery steps review placement.
func (a *Agent) adjustTick(gen uint64) {
	a.mu.Lock()
	if a.stopped || gen != a.adjustGen {
		a.mu.Unlock()
		return
	}
	now := a.cfg.Clock.Now()
	a.decayLocked(now)
	a.rebalanceLocked(now)
	a.placeLeft--
	doPlace := a.cfg.Placer != nil && a.placeLeft <= 0
	if doPlace {
		a.placeLeft = a.cfg.PlaceEvery
	}
	a.armAdjustLocked()
	a.mu.Unlock()
	if doPlace {
		a.reviewPlacement()
	}
}

// rebalanceLocked recomputes every table's period from the loss weights
// and re-arms moved timers.
func (a *Agent) rebalanceLocked(now core.Time) {
	ids := a.tablesLocked()
	if len(ids) == 0 || a.rateBudget <= 0 {
		return
	}
	weights := make([]float64, len(ids))
	var wsum float64
	for i, id := range ids {
		weights[i] = math.Sqrt(a.losses[id])
		wsum += weights[i]
	}
	if wsum == 0 {
		// No observed loss anywhere: divide the rate evenly.
		for i := range weights {
			weights[i] = 1
		}
	}
	periods := a.allocatePeriods(weights)
	changed := false
	for i, id := range ids {
		if rel := math.Abs(periods[i]-a.tables[id].period) / a.tables[id].period; rel > 0.05 {
			changed = true
		}
	}
	if !changed {
		return
	}
	a.stats.Counter("cadence_adjustments_total").Inc()
	for i, id := range ids {
		ts := a.tables[id]
		old := ts.period
		a.fmu.Lock()
		ts.period = periods[i]
		a.fmu.Unlock()
		if ts.syncing || ts.period == old {
			// An in-flight cycle re-arms itself with the new period when it
			// completes; nothing to move now.
			continue
		}
		// Move the armed timer: next cycle one (new) period after the last
		// sync, never before now. Bumping gen orphans the old timer.
		ts.gen = a.nextGenLocked()
		next := now
		if ts.lastSync >= 0 {
			next = math.Max(now, ts.lastSync+ts.period)
		}
		a.armLocked(ts, now, next-now)
	}
}

// allocatePeriods divides the rate budget across tables in proportion to
// the weights, water-filling against the [MinPeriod, MaxPeriod] clamp:
// a clamped table consumes its clamped rate and the residual budget is
// redistributed among the rest, so the total rate never exceeds the
// budget because of a clamp (a zero-weight table pinned at MaxPeriod
// still costs 1/MaxPeriod, which must come out of someone's share).
func (a *Agent) allocatePeriods(weights []float64) []core.Duration {
	n := len(weights)
	periods := make([]core.Duration, n)
	fixed := make([]bool, n)
	for round := 0; round < n; round++ {
		residual := a.rateBudget
		var wsum float64
		for i := range weights {
			if fixed[i] {
				residual -= 1 / periods[i]
			} else {
				wsum += weights[i]
			}
		}
		clampedMore := false
		for i := range weights {
			if fixed[i] {
				continue
			}
			p := a.cfg.MaxPeriod
			if weights[i] > 0 && residual > 0 && wsum > 0 {
				p = wsum / (residual * weights[i])
			}
			if p <= a.cfg.MinPeriod || p >= a.cfg.MaxPeriod {
				periods[i] = clamp(p, a.cfg.MinPeriod, a.cfg.MaxPeriod)
				fixed[i] = true
				clampedMore = true
			} else {
				periods[i] = p
			}
		}
		if !clampedMore {
			break
		}
	}
	return periods
}

// reviewPlacement asks the Placer for the replica set and applies the
// difference: promote tables it adds (snapshot first), demote tables it
// drops. Called without the agent lock held — the Placer may plan.
func (a *Agent) reviewPlacement() {
	current := a.Tables()
	rec, err := a.cfg.Placer.Recommend(current)
	if err != nil || len(rec) == 0 {
		return
	}
	target := make(map[core.TableID]bool, len(rec))
	for _, id := range rec {
		target[id] = true
	}

	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	now := a.cfg.Clock.Now()
	var demote []core.TableID
	for _, id := range a.tablesLocked() {
		if !target[id] {
			demote = append(demote, id)
		}
	}
	var promote []core.TableID
	for id := range target {
		if _, ok := a.tables[id]; !ok {
			promote = append(promote, id)
		}
	}
	sort.Slice(promote, func(i, j int) bool { return promote[i] < promote[j] })

	for _, id := range demote {
		ts := a.tables[id]
		ts.gen = a.nextGenLocked() // orphan any armed timer
		a.fmu.Lock()
		delete(a.tables, id)
		a.fmu.Unlock()
		delete(a.losses, id)
		a.cfg.Apply.Drop(id)
		a.stats.Counter("replicas_demoted_total").Inc()
	}
	period := clamp(float64(len(a.tables)+len(promote))/a.rateBudget,
		a.cfg.MinPeriod, a.cfg.MaxPeriod)
	for _, id := range promote {
		ts := &tableState{id: id, period: period, lastSync: -1, nextAt: -1, gen: a.nextGenLocked()}
		a.fmu.Lock()
		a.tables[id] = ts
		a.fmu.Unlock()
		a.armLocked(ts, now, 0) // first cycle (a snapshot) right away
		a.stats.Counter("replicas_promoted_total").Inc()
	}
	a.mu.Unlock()
}

// nextGenLocked issues a fresh timer generation.
func (a *Agent) nextGenLocked() uint64 {
	a.genSeq++
	return a.genSeq
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
