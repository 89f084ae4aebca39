// Package costmodel provides implementations of core.CostModel — the
// computational-latency estimators the IVQP planner consumes.
//
// Two estimators cover the paper's needs:
//
//   - CountModel: processing cost depends on how many base tables execute
//     remotely, matching the worked example in Figure 4 of the paper
//     (2 time units for an all-replica plan, +2 per remote base table),
//     plus a per-site coordination overhead that reproduces the fan-out
//     effect of Figure 8.
//   - CalibratedModel: a lookup table of measured costs keyed by query and
//     data-source configuration, following the paper's observation that a
//     query only needs to be compiled once per table-version configuration
//     and that this can be done in advance.
package costmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"ivdss/internal/core"
)

// CountModel estimates cost from the number of remote base tables and the
// number of distinct remote sites involved.
type CountModel struct {
	// LocalProcess is the processing time of an all-replica plan, before
	// the per-query weight is applied.
	LocalProcess core.Duration
	// PerBaseTable is the processing time added per remote base table.
	PerBaseTable core.Duration
	// PerExtraSite is the coordination overhead added for each distinct
	// remote site beyond the first. This is what makes wide fan-out
	// expensive in the uniform-placement experiment (Figure 8b).
	PerExtraSite core.Duration
	// TransmitFlat is the result-transmission time paid once if any remote
	// site participates. The paper measures transmission "only for the
	// queries running at remote servers".
	TransmitFlat core.Duration
	// QueryWeights optionally scales processing per query ID (default 1),
	// so a workload can mix cheap and expensive queries.
	QueryWeights map[string]float64
}

var _ core.CostModel = (*CountModel)(nil)

// Estimate implements core.CostModel.
func (m *CountModel) Estimate(q core.Query, access []core.TableAccess, _ core.Time) core.CostEstimate {
	fp := sourceFootprint(access)
	bases, sites := fp.Bases, fp.Sites
	w := 1.0
	if m.QueryWeights != nil {
		if qw, ok := m.QueryWeights[q.ID]; ok {
			w = qw
		}
	}
	// A plan answered entirely from materialized views reads an answer
	// that is pre-joined and pre-aggregated, so serving it skips local
	// evaluation: it is priced as a free lookup.
	local := m.LocalProcess
	if fp.AllViews() {
		local = 0
	}
	est := core.CostEstimate{
		Process: w * (local + m.PerBaseTable*core.Duration(bases) + m.PerExtraSite*core.Duration(max(0, sites-1))),
	}
	if bases > 0 {
		est.Transmit = m.TransmitFlat
	}
	return est
}

// CalibratedModel serves measured costs recorded per (query, data-source)
// configuration, falling back to another model for configurations
// not yet calibrated. It is safe for concurrent use.
type CalibratedModel struct {
	mu       sync.RWMutex
	entries  map[string]core.CostEstimate
	fallback core.CostModel
}

var _ core.CostModel = (*CalibratedModel)(nil)

// NewCalibratedModel returns an empty calibration cache backed by fallback,
// which must be non-nil.
func NewCalibratedModel(fallback core.CostModel) (*CalibratedModel, error) {
	if fallback == nil {
		return nil, fmt.Errorf("costmodel: calibrated model needs a fallback")
	}
	return &CalibratedModel{
		entries:  make(map[string]core.CostEstimate),
		fallback: fallback,
	}, nil
}

// Len returns the number of calibrated configurations.
func (m *CalibratedModel) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Estimate implements core.CostModel: calibration hit first, else fallback.
// The key is built in a stack buffer and looked up without being
// converted to a string, so a hit allocates nothing.
func (m *CalibratedModel) Estimate(q core.Query, access []core.TableAccess, start core.Time) core.CostEstimate {
	var buf [128]byte
	key := appendConfigKey(buf[:0], q.ID, access)
	m.mu.RLock()
	est, ok := m.entries[string(key)]
	m.mu.RUnlock()
	if ok {
		return est
	}
	return m.fallback.Estimate(q, access, start)
}

// ConfigKeyForAccess canonically names the data-source configuration of an
// access set: remote base tables by name plus materialized views under
// their namespaced unit ("view:<id>"). Replica reads don't enter the key —
// a replica answers like its base table, only staler. For plans without
// views the key is "<query>|<sorted base tables>", the format calibration
// snapshots were first keyed by, so existing snapshots keep matching.
func ConfigKeyForAccess(queryID string, access []core.TableAccess) string {
	return string(appendConfigKey(nil, queryID, access))
}

// appendConfigKey appends ConfigKeyForAccess(queryID, access) to dst. It
// allocates nothing when dst has room and the set names at most 16 base
// tables and no view.
func appendConfigKey(dst []byte, queryID string, access []core.TableAccess) []byte {
	var buf [16]string
	names := buf[:0]
	for _, a := range access {
		switch a.Kind {
		case core.AccessBase:
			names = append(names, string(a.Table))
		case core.AccessView:
			names = append(names, string(core.ViewUnit(a.View)))
		case core.AccessReplica:
			// Local replica read: same plan shape as all-replica.
		}
	}
	slices.Sort(names)
	dst = append(append(dst, queryID...), '|')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, n...)
	}
	return dst
}

// RecordAccess stores a measured cost under the access set's configuration
// key, the write-side twin of the Estimate lookup. It refuses, and
// reports false for, an estimate that is no cost: a negative or
// non-finite component would hand the planner a plan finishing before it
// starts.
func (m *CalibratedModel) RecordAccess(queryID string, access []core.TableAccess, est core.CostEstimate) bool {
	if !isCost(est) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[ConfigKeyForAccess(queryID, access)] = est
	return true
}

// isCost reports whether every component of est is finite and ≥ 0.
func isCost(est core.CostEstimate) bool {
	return min(est.Queue, est.Process, est.Transmit) >= 0 && !math.IsInf(est.Total(), 1)
}

// Footprint summarizes the data sources of one access set.
type Footprint struct {
	Bases int // remote base-table reads
	Sites int // distinct remote sites
	Local int // local replica reads
	Views int // materialized-view reads
}

// AllViews reports whether every access is served from a materialized
// view (and there is at least one).
func (f Footprint) AllViews() bool {
	return f.Views > 0 && f.Bases == 0 && f.Local == 0
}

// sourceFootprint counts each access by its data-source kind.
func sourceFootprint(access []core.TableAccess) Footprint {
	var fp Footprint
	for i, a := range access {
		switch a.Kind {
		case core.AccessBase:
			fp.Bases++
			if !slices.ContainsFunc(access[:i], func(b core.TableAccess) bool { return b.Kind == core.AccessBase && b.Site == a.Site }) {
				fp.Sites++
			}
		case core.AccessReplica:
			fp.Local++
		case core.AccessView:
			fp.Views++
		}
	}
	return fp
}

// calibrationFile is the JSON shape calibration snapshots serialize to.
type calibrationFile struct {
	Entries map[string]core.CostEstimate `json:"entries"`
}

// WriteJSON snapshots the calibration cache so a restarted server keeps
// its learned costs.
func (m *CalibratedModel) WriteJSON(w io.Writer) error {
	m.mu.RLock()
	snapshot := make(map[string]core.CostEstimate, len(m.entries))
	for k, v := range m.entries {
		snapshot[k] = v
	}
	m.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(calibrationFile{Entries: snapshot}); err != nil {
		return fmt.Errorf("costmodel: write calibration: %w", err)
	}
	return nil
}

// ReadJSON merges a calibration snapshot into the cache (existing entries
// with the same key are overwritten).
func (m *CalibratedModel) ReadJSON(r io.Reader) error {
	var file calibrationFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return fmt.Errorf("costmodel: read calibration: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Validate in sorted order so the reported offender is deterministic.
	keys := make([]string, 0, len(file.Entries))
	for k := range file.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := file.Entries[k]
		if !isCost(v) {
			return fmt.Errorf("costmodel: calibration entry %q has negative components", k)
		}
		m.entries[k] = v
	}
	return nil
}
