package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/metrics"
	"ivdss/internal/scheduler"
)

// directTransport delivers exchanges straight to the peer's handler, like
// the DES transport in internal/bench.
type directTransport struct {
	peers map[ShardID]*Gossiper
}

func (t *directTransport) Exchange(peer ShardID, d Digest) (Digest, error) {
	g, ok := t.peers[peer]
	if !ok {
		return Digest{}, fmt.Errorf("no peer %d", peer)
	}
	return g.Handle(d), nil
}

func TestGossiperValidation(t *testing.T) {
	clock := &scheduler.ManualClock{}
	tr := &directTransport{}
	state := func() Digest { return Digest{} }
	bad := []GossipConfig{
		{Transport: tr, State: state, Interval: 1},                          // no clock
		{Clock: clock, State: state, Interval: 1},                           // no transport
		{Clock: clock, Transport: tr, Interval: 1},                          // no state
		{Clock: clock, Transport: tr, State: state},                         // zero interval
		{Clock: clock, Transport: tr, State: state, Interval: 1, Jitter: 1}, // jitter out of range
	}
	for i, cfg := range bad {
		if _, err := NewGossiper(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestGossipConvergesOnManualClock runs three gossipers to a bounded
// horizon on a hand-stepped clock: every node must hold fresh views of
// both peers, and the Until bound must drain the callback queue — the
// property that keeps the DES from spinning forever.
func TestGossipConvergesOnManualClock(t *testing.T) {
	clock := &scheduler.ManualClock{}
	tr := &directTransport{peers: map[ShardID]*Gossiper{}}
	reg := metrics.NewRegistry()
	const n = 3
	versions := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		var peers []ShardID
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, ShardID(j))
			}
		}
		g, err := NewGossiper(GossipConfig{
			Self:      ShardID(i),
			Peers:     peers,
			Clock:     clock,
			Transport: tr,
			State: func() Digest {
				versions[i]++
				return Digest{Node: ShardID(i), Version: versions[i], QueueDepth: i}
			},
			Interval: 1,
			Seed:     7,
			Until:    40,
			Stats:    reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.peers[ShardID(i)] = g
	}
	for _, g := range tr.peers {
		g.Start()
	}
	clock.Run()
	if clock.Pending() != 0 {
		t.Fatalf("Until bound left %d callbacks queued — the DES event queue would never drain", clock.Pending())
	}
	for id, g := range tr.peers {
		if got := g.Table().Len(); got != n-1 {
			t.Errorf("node %d heard from %d peers, want %d", id, got, n-1)
		}
		for _, pv := range g.Table().Peers() {
			if pv.Version == 0 {
				t.Errorf("node %d holds an unversioned view of %d", id, pv.Node)
			}
			if pv.QueueDepth != int(pv.Node) {
				t.Errorf("node %d sees depth %d for %d, want the peer's own state", id, pv.QueueDepth, pv.Node)
			}
		}
	}
	flat := reg.Flatten()
	if flat["gossip_rounds_total"] < float64(n) {
		t.Errorf("gossip_rounds_total = %v, want at least one round per node", flat["gossip_rounds_total"])
	}
	if flat["gossip_merges_total"] == 0 {
		t.Error("no merges counted across a converged run")
	}
	if flat["gossip_failures_total"] != 0 {
		t.Errorf("gossip_failures_total = %v on a lossless transport", flat["gossip_failures_total"])
	}
}

// partitionedNet is a concurrency-safe in-memory transport with a cut set:
// any exchange touching a cut node fails, modelling a network partition.
type partitionedNet struct {
	mu    sync.Mutex
	peers map[ShardID]*Gossiper
	cut   map[ShardID]bool
}

func (n *partitionedNet) isCut(id ShardID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cut[id]
}

func (n *partitionedNet) heal(id ShardID) {
	n.mu.Lock()
	delete(n.cut, id)
	n.mu.Unlock()
}

// nodeTransport is one node's view of the net, so the cut applies to both
// ends of an exchange.
type nodeTransport struct {
	net  *partitionedNet
	self ShardID
}

func (t nodeTransport) Exchange(peer ShardID, d Digest) (Digest, error) {
	if t.net.isCut(t.self) || t.net.isCut(peer) {
		return Digest{}, fmt.Errorf("partitioned: %d↔%d", t.self, peer)
	}
	t.net.mu.Lock()
	g := t.net.peers[peer]
	t.net.mu.Unlock()
	return g.Handle(d), nil
}

// TestGossipConvergenceUnderPartition drives four live gossipers on a
// fast-scaled wall clock with one node cut off, then heals the partition
// and requires every node (including the healed one) to converge on fresh
// views of all peers. Run under -race this also exercises the Table and
// Gossiper locking from concurrent rounds and handlers.
func TestGossipConvergenceUnderPartition(t *testing.T) {
	const n = 4
	const cutNode = ShardID(3)
	// 300 experiment minutes per wall second: interval-1 rounds every ~3ms.
	clock := scheduler.NewWallClock(300)
	net := &partitionedNet{peers: map[ShardID]*Gossiper{}, cut: map[ShardID]bool{cutNode: true}}
	versions := make([]atomic.Uint64, n)
	for i := 0; i < n; i++ {
		i := i
		var peers []ShardID
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, ShardID(j))
			}
		}
		g, err := NewGossiper(GossipConfig{
			Self:      ShardID(i),
			Peers:     peers,
			Clock:     clock,
			Transport: nodeTransport{net: net, self: ShardID(i)},
			State: func() Digest {
				return Digest{
					Node:     ShardID(i),
					Version:  versions[i].Add(1),
					Replicas: []core.TableID{"orders"},
				}
			},
			Interval: 1,
			Seed:     int64(11 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		net.peers[ShardID(i)] = g
	}
	for _, g := range net.peers {
		g.Start()
	}
	defer func() {
		for _, g := range net.peers {
			g.Stop()
		}
	}()

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The connected majority converges among itself...
	waitFor("majority convergence", func() bool {
		for i := ShardID(0); i < cutNode; i++ {
			tab := net.peers[i].Table()
			for j := ShardID(0); j < cutNode; j++ {
				if i == j {
					continue
				}
				if _, ok := tab.Peer(j); !ok {
					return false
				}
			}
		}
		return true
	})
	// ...while no exchange with the cut node can have succeeded.
	for i := ShardID(0); i < n; i++ {
		if _, ok := net.peers[i].Table().Peer(cutNode); ok {
			t.Fatalf("node %d holds a view of the partitioned node", i)
		}
	}
	if got := net.peers[cutNode].Table().Len(); got != 0 {
		t.Fatalf("partitioned node heard from %d peers", got)
	}

	net.heal(cutNode)
	waitFor("post-heal convergence", func() bool {
		for i := ShardID(0); i < n; i++ {
			if net.peers[i].Table().Len() != n-1 {
				return false
			}
		}
		return true
	})
}
