package cluster

import (
	"slices"
	"sort"
	"sync"

	"ivdss/internal/core"
)

// Digest is one shard's gossiped state summary: what a peer reads to
// decide a work-steal without a central registry. Digests are versioned
// per node — a higher Version supersedes, so merges are idempotent and
// order-free (the anti-entropy property).
type Digest struct {
	Node ShardID
	// Version is the sender's per-node monotone counter; stale versions
	// lose every merge.
	Version uint64
	// QueueDepth is the shard's admission queue length (waiting, not
	// executing); the work-stealing load signal.
	QueueDepth int
	// Replicas lists, sorted, the tables the shard holds a local replica
	// of: the coverage set work-stealing checks before handing a
	// footprint over.
	Replicas []core.TableID
}

// PeerView is a merged digest plus when this node received it.
type PeerView struct {
	Digest
	ReceivedAt core.Time
}

// Table is the per-node gossip state: the freshest digest seen from every
// peer. It is safe for concurrent use.
type Table struct {
	mu    sync.RWMutex
	self  ShardID
	peers map[ShardID]PeerView
}

// NewTable returns an empty peer table for one node.
func NewTable(self ShardID) *Table {
	return &Table{self: self, peers: make(map[ShardID]PeerView)}
}

// Merge folds a received digest into the table. Digests about this node
// itself and versions at or below the one already held are ignored. It
// reports whether the table changed.
func (t *Table) Merge(d Digest, now core.Time) bool {
	if d.Node == t.self {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if held, ok := t.peers[d.Node]; ok && d.Version <= held.Version {
		return false
	}
	d.Replicas = slices.Clone(d.Replicas) // never alias the sender's state
	t.peers[d.Node] = PeerView{Digest: d, ReceivedAt: now}
	return true
}

// Peer returns the held view of one peer.
func (t *Table) Peer(id ShardID) (PeerView, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.peers[id]
	return v, ok
}

// Peers lists every held peer view, sorted by shard ID for determinism.
func (t *Table) Peers() []PeerView {
	t.mu.RLock()
	out := make([]PeerView, 0, len(t.peers))
	for _, v := range t.peers {
		out = append(out, v)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Len returns how many peers the table has heard from.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.peers)
}
