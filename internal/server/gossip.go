package server

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/netproto"
)

// Cluster front-end wiring: when DSSConfig.Peers names other shards, the
// server joins the anti-entropy gossip ring (exchanging queue depth and
// the replicated tables over netproto KindGossip) and, with
// StealHighWater set, hands whole Exec/Batch requests to the least-loaded
// peer whose replica set covers the footprint once its own admission queue
// backs up. Routing queries TO shards is the client's job (ivqp-workload
// builds the same cluster.ShardMap); this file only keeps shards honest
// about each other's load and coverage.

// shardDigest cuts this server's current gossip state. It is the
// cluster.GossipConfig.State provider: called once per outgoing round and
// once per answered exchange.
func (s *DSSServer) shardDigest() cluster.Digest {
	s.mu.RLock()
	replicas := sortedKeys(s.replicas)
	s.mu.RUnlock()
	return cluster.Digest{
		Node:       cluster.ShardID(s.cfg.ShardID),
		Version:    s.shardVersion.Add(1),
		QueueDepth: s.engine.QueueLen(),
		Replicas:   replicas,
	}
}

// digestToWire converts a gossip digest to its netproto form.
func digestToWire(d cluster.Digest) *netproto.GossipDigest {
	g := &netproto.GossipDigest{Node: int(d.Node), Version: d.Version, QueueDepth: d.QueueDepth}
	for _, id := range d.Replicas {
		g.Replicas = append(g.Replicas, string(id))
	}
	return g
}

// digestFromWire converts a netproto digest back to the cluster form.
func digestFromWire(g *netproto.GossipDigest) cluster.Digest {
	d := cluster.Digest{Node: cluster.ShardID(g.Node), Version: g.Version, QueueDepth: g.QueueDepth}
	for _, id := range g.Replicas {
		d.Replicas = append(d.Replicas, core.TableID(id))
	}
	return d
}

// netTransport carries gossip exchanges over netproto. It runs on the
// gossiper's round goroutine, outside every server lock.
type netTransport struct{ s *DSSServer }

var _ cluster.Transport = netTransport{}

// Exchange implements cluster.Transport.
func (t netTransport) Exchange(peer cluster.ShardID, d cluster.Digest) (cluster.Digest, error) {
	addr, ok := t.s.cfg.Peers[int(peer)]
	if !ok {
		return cluster.Digest{}, fmt.Errorf("server: no address for peer shard %d", peer)
	}
	ctx, cancel := context.WithTimeout(t.s.baseCtx, t.s.cfg.DialTimeout)
	defer cancel()
	resp, err := netproto.CallContext(ctx, addr, &netproto.Request{
		Kind:   netproto.KindGossip,
		Gossip: digestToWire(d),
	}, t.s.cfg.DialTimeout)
	if err != nil {
		return cluster.Digest{}, err
	}
	if err := resp.ErrOrNil(); err != nil {
		return cluster.Digest{}, err
	}
	if resp.Gossip == nil {
		return cluster.Digest{}, fmt.Errorf("server: gossip reply from shard %d carried no digest", peer)
	}
	return digestFromWire(resp.Gossip), nil
}

// newGossiper assembles the gossip layer from the config's peer set; nil
// when the server is not clustered.
func (s *DSSServer) newGossiper() (*cluster.Gossiper, error) {
	if len(s.cfg.Peers) == 0 {
		return nil, nil
	}
	var peers []cluster.ShardID
	for id := range s.cfg.Peers {
		if id != s.cfg.ShardID {
			peers = append(peers, cluster.ShardID(id))
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return cluster.NewGossiper(cluster.GossipConfig{
		Self:      cluster.ShardID(s.cfg.ShardID),
		Peers:     peers,
		Clock:     s.clock,
		Transport: netTransport{s},
		State:     s.shardDigest,
		Interval:  core.Duration(s.cfg.GossipInterval.Seconds() * s.cfg.TimeScale),
		Seed:      s.cfg.GossipSeed,
		Stats:     s.stats,
	})
}

// handleGossip answers an incoming anti-entropy exchange.
func (s *DSSServer) handleGossip(req *netproto.Request) *netproto.Response {
	if s.gossiper == nil {
		return &netproto.Response{Err: "server is not clustered"}
	}
	if req.Gossip == nil {
		return &netproto.Response{Err: "gossip request without digest"}
	}
	reply := s.gossiper.Handle(digestFromWire(req.Gossip))
	return &netproto.Response{Gossip: digestToWire(reply)}
}

// requestFootprint derives the lowercased table footprint of an Exec or
// Batch request from its compiled statements, without touching the
// catalog; parse failures yield nil (the local path will produce the real
// error).
func (s *DSSServer) requestFootprint(req *netproto.Request) []core.TableID {
	seen := make(map[core.TableID]bool)
	var out []core.TableID
	add := func(sql string) {
		st, err := s.execCache.Statement(sql)
		if err != nil {
			return
		}
		for _, name := range st.Tables {
			id := core.TableID(name)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	if req.Kind == netproto.KindBatch {
		for _, m := range req.Batch {
			add(m.SQL)
		}
	} else {
		add(req.SQL)
	}
	return out
}

// maybeSteal hands a whole request to the least-loaded covering peer when
// this shard's admission queue has backed up past StealHighWater. The
// forwarded request carries Forwarded so the receiver serves it locally —
// one hop, never a steal chain. Any forwarding failure falls back to local
// admission: stealing is an optimization, not a correctness path.
func (s *DSSServer) maybeSteal(req *netproto.Request) (*netproto.Response, bool) {
	if s.gossiper == nil || s.cfg.StealHighWater <= 0 || req.Forwarded {
		return nil, false
	}
	depth := s.engine.QueueLen()
	if depth < s.cfg.StealHighWater {
		return nil, false
	}
	footprint := s.requestFootprint(req)
	maxAge := core.Duration(5 * s.cfg.GossipInterval.Seconds() * s.cfg.TimeScale)
	target, ok := cluster.ChooseTarget(s.gossiper.Table(), depth, footprint, s.now(),
		cluster.StealConfig{HighWater: s.cfg.StealHighWater, MaxAge: maxAge})
	if !ok {
		return nil, false
	}
	addr, ok := s.cfg.Peers[int(target)]
	if !ok {
		return nil, false
	}
	fwd := *req
	fwd.Forwarded = true
	// The wire wait is bounded by the request's value horizon: past it the
	// report is worthless anyway, so there is no point waiting longer for a
	// peer than we would work locally.
	timeout := s.cfg.DialTimeout
	if h := s.requestHorizon(&fwd); h > 0 && !math.IsInf(float64(h), 1) {
		if w := s.wallDelay(h); w > timeout {
			timeout = w
		}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	resp, err := netproto.CallContext(ctx, addr, &fwd, timeout)
	if err != nil {
		s.stats.Counter("steal_forward_failures_total").Inc()
		return nil, false
	}
	s.stats.Counter("steals_out_total").Inc()
	return resp, true
}
