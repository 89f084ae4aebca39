// Package federation models the hybrid architecture of the paper: a local
// DSS/federation server (site 0) communicating with N remote servers that
// hold the base tables, with a subset of tables replicated locally.
//
// It provides table placement (uniform and the paper's skewed 1/2, 1/4,
// 1/8 ... distribution), the catalog the planner consumes (placement +
// replication state) and the registry of materialized views. Plans run on
// the live DSS server (internal/server), the one executor.
package federation

import (
	"fmt"
	"slices"
	"sort"

	"ivdss/internal/core"
	"ivdss/internal/stats"
)

// Placement maps every base table to its remote site.
type Placement struct {
	siteOf map[core.TableID]core.SiteID
	nSites int
}

// NewPlacement builds a placement from an explicit assignment. Sites must
// be remote (>= 1).
func NewPlacement(siteOf map[core.TableID]core.SiteID) (*Placement, error) {
	// Validate in sorted order so the reported offender is deterministic.
	ids := make([]core.TableID, 0, len(siteOf))
	for id := range siteOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	maxSite := core.SiteID(0)
	cp := make(map[core.TableID]core.SiteID, len(siteOf))
	for _, id := range ids {
		s := siteOf[id]
		if s < 1 {
			return nil, fmt.Errorf("federation: table %s placed on non-remote site %d", id, s)
		}
		maxSite = max(maxSite, s)
		cp[id] = s
	}
	return &Placement{siteOf: cp, nSites: int(maxSite)}, nil
}

// UniformPlacement spreads tables across sites 1..nSites round-robin after
// a seeded shuffle — the paper's "uniform" distribution.
func UniformPlacement(tables []core.TableID, nSites int, seed int64) (*Placement, error) {
	if nSites < 1 {
		return nil, fmt.Errorf("federation: need at least one remote site, got %d", nSites)
	}
	src := stats.NewSource(seed)
	order := src.Perm(len(tables))
	siteOf := make(map[core.TableID]core.SiteID, len(tables))
	for i, idx := range order {
		siteOf[tables[idx]] = core.SiteID(1 + i%nSites)
	}
	return &Placement{siteOf: siteOf, nSites: nSites}, nil
}

// SkewedPlacement implements the paper's skew: half the tables on site 1,
// a quarter on site 2, an eighth on site 3, ..., with the geometric tail
// landing on the last site.
func SkewedPlacement(tables []core.TableID, nSites int, seed int64) (*Placement, error) {
	if nSites < 1 {
		return nil, fmt.Errorf("federation: need at least one remote site, got %d", nSites)
	}
	src := stats.NewSource(seed)
	order := src.Perm(len(tables))
	siteOf := make(map[core.TableID]core.SiteID, len(tables))
	// Quota per site s (1-based): ceil(n / 2^s), remainder to the last site.
	idx := 0
	remaining := len(tables)
	for s := 1; s <= nSites && remaining > 0; s++ {
		quota := (remaining + 1) / 2
		if s == nSites {
			quota = remaining
		}
		for q := 0; q < quota; q++ {
			siteOf[tables[order[idx]]] = core.SiteID(s)
			idx++
		}
		remaining -= quota
	}
	return &Placement{siteOf: siteOf, nSites: nSites}, nil
}

// SiteOf returns the remote site holding the table's base data.
func (p *Placement) SiteOf(id core.TableID) (core.SiteID, error) {
	s, ok := p.siteOf[id]
	if !ok {
		return 0, fmt.Errorf("federation: table %s not placed", id)
	}
	return s, nil
}

// NumSites returns the number of remote sites.
func (p *Placement) NumSites() int { return p.nSites }

// Tables returns all placed tables, sorted.
func (p *Placement) Tables() []core.TableID {
	ids := make([]core.TableID, 0, len(p.siteOf))
	for id := range p.siteOf {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TablesAt returns the tables placed on one site, sorted.
func (p *Placement) TablesAt(site core.SiteID) []core.TableID {
	var ids []core.TableID
	for id, s := range p.siteOf {
		if s == site {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ChooseReplicas picks k tables (seeded, without replacement) to replicate
// locally — the paper "randomly select[s] 5 out of 12 tables into the
// replication plan" and "randomly select[s] 50 replications to local site".
func ChooseReplicas(tables []core.TableID, k int, seed int64) ([]core.TableID, error) {
	if k < 0 || k > len(tables) {
		return nil, fmt.Errorf("federation: cannot choose %d replicas from %d tables", k, len(tables))
	}
	sorted := make([]core.TableID, len(tables))
	copy(sorted, tables)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	src := stats.NewSource(seed)
	picked := src.PickN(len(sorted), k)
	out := make([]core.TableID, k)
	for i, idx := range picked {
		out[i] = sorted[idx]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
