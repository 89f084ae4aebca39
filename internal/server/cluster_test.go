package server

import (
	"net"
	"slices"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
)

// freeAddr reserves a loopback address for a server that must know its
// peers' addresses before any of them has started listening.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startShard builds one clustered DSS front-end against the shared remote.
func startShard(t *testing.T, remoteAddr string, id int, addr string, peers map[int]string, highWater int) *DSSServer {
	t.Helper()
	dss, err := NewDSSServer(DSSConfig{
		Remotes:        map[core.SiteID]string{1: remoteAddr},
		Replicate:      map[core.TableID]time.Duration{"accounts": 200 * time.Millisecond},
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		TimeScale:      10,
		MaxDelay:       time.Second,
		ShardID:        id,
		Peers:          peers,
		GossipInterval: 50 * time.Millisecond,
		StealHighWater: highWater,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dss.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	return dss
}

// TestClusterGossipOverWire: two live shards exchange digests over
// netproto KindGossip until each holds a fresh view of the other, with the
// replicated tables visible as steal coverage.
func TestClusterGossipOverWire(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	addr0, addr1 := freeAddr(t), freeAddr(t)
	s0 := startShard(t, remoteAddr, 0, addr0, map[int]string{1: addr1}, 0)
	s1 := startShard(t, remoteAddr, 1, addr1, map[int]string{0: addr0}, 0)

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, ok0 := s0.gossiper.Table().Peer(1)
		_, ok1 := s1.gossiper.Table().Peer(0)
		if ok0 && ok1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never converged: s0 sees s1 %v, s1 sees s0 %v", ok0, ok1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	view, _ := s0.gossiper.Table().Peer(1)
	if view.Version == 0 {
		t.Error("peer view carries no version")
	}
	if !slices.Contains(view.Replicas, "accounts") {
		t.Errorf("peer replicas %v do not cover the replicated table", view.Replicas)
	}
	if v := s0.stats.Flatten()["gossip_rounds_total"]; v == 0 {
		t.Error("no gossip rounds counted")
	}
}

// TestClusterGossipHandlerAnswersDigest: the KindGossip wire handler
// merges the caller's digest and answers with this shard's own.
func TestClusterGossipHandlerAnswersDigest(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	addr0 := freeAddr(t)
	// The peer never starts: only the handler side is under test.
	s0 := startShard(t, remoteAddr, 0, addr0, map[int]string{1: freeAddr(t)}, 0)

	resp, err := netproto.Call(addr0, &netproto.Request{
		Kind: netproto.KindGossip,
		Gossip: &netproto.GossipDigest{
			Node:       1,
			Version:    41,
			QueueDepth: 6,
			Replicas:   []string{"accounts"},
		},
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp.Gossip == nil || resp.Gossip.Node != 0 || resp.Gossip.Version == 0 {
		t.Fatalf("reply digest = %+v, want shard 0's own state", resp.Gossip)
	}
	view, ok := s0.gossiper.Table().Peer(1)
	if !ok || view.Version != 41 || view.QueueDepth != 6 {
		t.Fatalf("handler did not merge the caller's digest: %+v ok=%v", view, ok)
	}
	// A non-clustered server refuses the kind instead of crashing.
	_, standaloneAddr := startRemote(t, accountsTable(t))
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: standaloneAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	plainAddr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	resp, err = netproto.Call(plainAddr, &netproto.Request{Kind: netproto.KindGossip, Gossip: &netproto.GossipDigest{Node: 1, Version: 1}}, 2*time.Second)
	if err == nil && resp.Err == "" {
		t.Error("non-clustered server answered a gossip exchange")
	}
}

// TestForwardedRequestServedLocally: a stolen (Forwarded) request must be
// admitted by the receiver no matter its own steal settings — one hop,
// never a chain — and counted as a steal-in.
func TestForwardedRequestServedLocally(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	addr0 := freeAddr(t)
	// StealHighWater 1 with an unreachable peer: if the Forwarded guard
	// failed, the request would try to bounce and fail.
	s0 := startShard(t, remoteAddr, 0, addr0, map[int]string{1: freeAddr(t)}, 1)

	resp, err := netproto.Call(addr0, &netproto.Request{
		Kind:          netproto.KindExec,
		SQL:           `SELECT a_id, a_balance FROM accounts ORDER BY a_id`,
		BusinessValue: 1,
		Forwarded:     true,
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp.Result.NumRows() != 2 {
		t.Fatalf("rows = %d", resp.Result.NumRows())
	}
	flat := s0.stats.Flatten()
	if flat["steals_in_total"] != 1 {
		t.Errorf("steals_in_total = %v, want 1", flat["steals_in_total"])
	}
	if flat["steals_out_total"] != 0 {
		t.Errorf("steals_out_total = %v, want 0 — a forwarded request must never re-steal", flat["steals_out_total"])
	}
}
