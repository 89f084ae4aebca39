package server

import (
	"strings"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// Every TPC-H template, sent three times through a DSS that replicates
// nation and region, runs at the DSS (a plan reading a replica), at the
// fact site or at the dimension site, and each server prepares a text
// once per set of table schemas it binds the text to: a remote's texts
// (pushdowns, shipped statements) bind one set each, and the DSS binds a
// template to one set per distinct choice of replica or pushdown for its
// tables. Every answer is the plain run's.
func TestStatementCachePlansPerServer(t *testing.T) {
	f := startTemplateFederationWith(t, map[core.TableID]time.Duration{"nation": time.Hour, "region": time.Hour})
	conn, err := netproto.Dial(f.dssAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// local holds, per template, the access shapes of the plans the DSS
	// ran itself: each is one schema set.
	local := make(map[string]map[string]bool)
	for round := 0; round < 3; round++ {
		for _, q := range tpch.Queries() {
			resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindExec, SQL: q.SQL, BusinessValue: 1})
			if err == nil {
				err = resp.ErrOrNil()
			}
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, q.ID, err)
			}
			if round == 0 {
				want, err := sqlmini.Run(q.SQL, sqlmini.MapCatalog(f.tables))
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				sameCells(t, q.ID, want, resp.Result)
			}
			if shape := accessShape(resp.Meta.PlanSignature); strings.Contains(shape, "=replica") {
				if local[q.SQL] == nil {
					local[q.SQL] = make(map[string]bool)
				}
				local[q.SQL][shape] = true
			}
		}
	}
	if len(local) == 0 {
		t.Fatal("no plan ran at the DSS")
	}
	t.Logf("the DSS ran %d templates itself", len(local))
	for _, q := range tpch.Queries() {
		if got, want := f.dss.execCache.Plans(q.SQL), len(local[q.SQL]); got != want {
			t.Errorf("%s: the DSS keeps %d plans, want %d (%v)", q.ID, got, want, local[q.SQL])
		}
	}
	for i, r := range f.relays {
		texts := make(map[string]int)
		for _, req := range tableReads(r, 0) {
			switch req.Kind {
			case netproto.KindExec:
				texts[req.SQL]++
			case netproto.KindBatch:
				for _, m := range req.Batch {
					texts[m.SQL]++
				}
			}
		}
		if len(texts) == 0 {
			t.Fatalf("site %d ran no SQL", i+1)
		}
		t.Logf("site %d ran %d texts", i+1, len(texts))
		for sql, n := range texts {
			if got := f.remotes[i].execCache.Plans(sql); got != 1 {
				t.Errorf("site %d ran %q %d times and keeps %d plans, want 1", i+1, sql, n, got)
			}
		}
	}
}

// accessShape is a plan signature without its freshness stamps and start
// time: which tables a plan reads from a replica and which from base.
func accessShape(sig string) string {
	var parts []string
	for _, p := range strings.Fields(sig) {
		if strings.HasPrefix(p, "start=") {
			continue
		}
		p, _, _ = strings.Cut(p, "@")
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}
