package cluster

import (
	"slices"

	"ivdss/internal/core"
)

// StealConfig parameterizes work-stealing hand-offs.
type StealConfig struct {
	// HighWater is the local queue depth at or beyond which arrivals are
	// offered to peers instead of queued. Zero disables stealing.
	HighWater int
	// MaxAge discards peer views older than this (experiment minutes):
	// a silent peer's last gossiped depth stops being a steal target.
	// Zero accepts any age.
	MaxAge core.Duration
}

// ChooseTarget picks the hand-off destination for a backed-up shard: the
// least-loaded live peer whose gossiped replica set covers every table in
// the footprint and whose queue is strictly shorter than both the local
// one and the high-water mark (never dump work on another saturated
// shard). Ties break to the lowest shard ID, so concurrent deciders with
// the same view agree. ok=false means keep the work local.
func ChooseTarget(t *Table, localDepth int, footprint []core.TableID, now core.Time, cfg StealConfig) (ShardID, bool) {
	if cfg.HighWater <= 0 || localDepth < cfg.HighWater {
		return 0, false
	}
	best := ShardID(0)
	bestDepth := 0
	found := false
	for _, pv := range t.Peers() {
		if cfg.MaxAge > 0 && now-pv.ReceivedAt > cfg.MaxAge {
			continue
		}
		if pv.QueueDepth >= localDepth || pv.QueueDepth >= cfg.HighWater {
			continue
		}
		if !covers(pv.Digest, footprint) {
			continue
		}
		if !found || pv.QueueDepth < bestDepth {
			best, bestDepth, found = pv.Node, pv.QueueDepth, true
		}
	}
	return best, found
}

// covers reports whether the peer's gossiped replica set holds every table
// in the footprint.
func covers(d Digest, footprint []core.TableID) bool {
	if len(footprint) == 0 {
		return false
	}
	for _, tid := range footprint {
		if !slices.Contains(d.Replicas, tid) {
			return false
		}
	}
	return true
}
