package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ivdss/internal/core"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// template is one TPC-H query prepared for the clients and the oracle.
type template struct {
	ID     string
	SQL    string
	Stmt   *sqlmini.SelectStmt
	Tables []core.TableID
	// ReadsLineitem marks answers that move while the writer runs.
	ReadsLineitem bool
}

func loadTemplates(ids []string) ([]template, error) {
	var queries []tpch.Query
	if ids == nil {
		queries = tpch.Queries()
	} else {
		for _, id := range ids {
			q, err := tpch.QueryByID(id)
			if err != nil {
				return nil, err
			}
			queries = append(queries, q)
		}
	}
	out := make([]template, len(queries))
	for i, q := range queries {
		stmt, err := sqlmini.Parse(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", q.ID, err)
		}
		t := template{ID: q.ID, SQL: q.SQL, Stmt: stmt}
		for _, name := range stmt.TableNames() {
			id := core.TableID(strings.ToLower(name))
			t.Tables = append(t.Tables, id)
			if id == tpch.LineItem {
				t.ReadsLineitem = true
			}
		}
		out[i] = t
	}
	return out, nil
}

// member is one query of an operation: a template pick and its business
// value.
type member struct {
	Template int
	BV       float64
}

// op is one client operation: a single query, or a batch of members.
type op []member

// opsPerClient is how many operations each client pre-draws. A client that
// exhausts them wraps around; the longest window at the fastest observed
// rate uses under a third.
const opsPerClient = 1 << 14

// clientRand is the one place a seed becomes randomness: client c of a run
// seeded s always draws the same stream.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

// drawOps pre-draws a client's operation sequence. Template picks come
// from shuffled decks — every template once per deck — so the mix of any
// long prefix is uniform whatever the seed, and only the order (and so
// what shares the machine with what) varies between seeds.
func drawOps(seed int64, client, nTemplates, batch int) []op {
	rng := clientRand(seed, client)
	var deck []int
	next := func() int {
		if len(deck) == 0 {
			deck = rng.Perm(nTemplates)
		}
		t := deck[0]
		deck = deck[1:]
		return t
	}
	ops := make([]op, opsPerClient/max(batch, 1))
	for i := range ops {
		if batch == 0 {
			ops[i] = op{{Template: next(), BV: 1}}
			continue
		}
		o := make(op, batch)
		for j := range o {
			o[j] = member{Template: next(), BV: 1 + 4*rng.Float64()}
		}
		ops[i] = o
	}
	return ops
}

// drawWriterRows pre-draws the writer's inserts: each is writerRows rows
// re-sampled from the generated lineitem table.
func drawWriterRows(seed int64, lineitem *relation.Table, inserts int) [][]relation.Row {
	rng := clientRand(seed, clients) // the writer is the client after the readers
	out := make([][]relation.Row, inserts)
	for i := range out {
		rows := make([]relation.Row, writerRows)
		for j := range rows {
			rows[j] = lineitem.Rows[rng.Intn(len(lineitem.Rows))].Clone()
		}
		out[i] = rows
	}
	return out
}
