package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// Every remote read runs over a snapshot taken under the read lock and
// executes with no lock held, so a write never waits for a running query.

// An insert sent while a long pushdown runs is answered before the
// pushdown is.
func TestRemoteInsertDoesNotWaitForARunningExec(t *testing.T) {
	_, addr := startRemote(t, eventsTable(2000), accountsTable(t))
	// A 2,000 × 2,000 cross join whose WHERE runs after the join: millions
	// of rows through the VM.
	const long = "SELECT count(*) AS n FROM events a, events b WHERE a.e_amount < b.e_amount"
	type done struct {
		at  time.Time
		err error
	}
	execDone := make(chan done, 1)
	start := time.Now()
	go func() {
		_, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindExec, SQL: long}, time.Minute)
		execDone <- done{time.Now(), err}
	}()
	time.Sleep(50 * time.Millisecond) // the exec has parsed and taken its snapshot
	sent := time.Now()
	_, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindInsert, Table: "accounts",
		Rows: []relation.Row{{relation.IntVal(3), relation.FloatVal(10)}}}, time.Minute)
	inserted := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	exec := <-execDone
	if exec.err != nil {
		t.Fatal(exec.err)
	}
	if !inserted.Before(exec.at) {
		t.Fatalf("the insert was answered %v after it was sent, %v after the exec that started %v before it",
			inserted.Sub(sent), inserted.Sub(exec.at), sent.Sub(start))
	}
	if wait, run := inserted.Sub(sent), exec.at.Sub(start); wait > run/4 {
		t.Errorf("the insert took %v against the exec's %v: it waited for the exec", wait, run)
	}
}

// A view pull's SQL reads its Table alone (versions and cursors count
// that table's rows), and it is refused before any rows are read: the
// answer carries no version.
func TestRemoteRefusesAPullSQLOverOtherTables(t *testing.T) {
	remote, _ := startRemote(t, accountsTable(t), tradesTable(t))
	for _, tc := range []struct {
		kind netproto.RequestKind
		sql  string
		want string
	}{
		{netproto.KindSnapshot, "SELECT a.a_id FROM accounts a, trades t WHERE a.a_id = t.t_account",
			`pull SQL reads [accounts trades]; a pull of "accounts" reads only that table`},
		{netproto.KindDelta, "SELECT t_account FROM trades",
			`pull SQL reads [trades]; a pull of "accounts" reads only that table`},
		{netproto.KindDelta, "SELECT a_id FROM", "sqlmini: "},
	} {
		req := &netproto.Request{Kind: tc.kind, Table: "accounts", SQL: tc.sql}
		if tc.kind == netproto.KindDelta {
			req.Cursor = 1
		}
		resp := remote.handle(req)
		if !strings.HasPrefix(resp.Err, tc.want) || resp.Version != 0 || resp.Result != nil || resp.DeltaRows != nil {
			t.Errorf("kind %d %q: err %q, version %d, want the error %q and no rows read", tc.kind, tc.sql, resp.Err, resp.Version, tc.want)
		}
	}
}

// A view pull runs its SELECT over the candidate rows. What a delta tail
// cached is forgotten; a snapshot's image is the live table's, and stays.
func TestRemoteViewPullRunsItsSQL(t *testing.T) {
	accounts := accountsTable(t)
	remote, _ := startRemote(t, accounts)
	const sql = "SELECT a_id FROM accounts WHERE a_balance > 150"
	snap := remote.handle(&netproto.Request{Kind: netproto.KindSnapshot, Table: "accounts", SQL: sql})
	if snap.Err != "" || snap.Version != 2 || snap.Result.NumRows() != 1 || snap.Result.Schema.Arity() != 1 {
		t.Fatalf("snapshot: %q, version %d, %v", snap.Err, snap.Version, snap.Result)
	}
	if !remote.execCache.Holds(accounts) {
		t.Error("a snapshot pull cached nothing for the live table")
	}
	remote.handle(&netproto.Request{Kind: netproto.KindInsert, Table: "accounts", Rows: []relation.Row{
		{relation.IntVal(3), relation.FloatVal(300)}, {relation.IntVal(4), relation.FloatVal(100)},
	}})
	delta := remote.handle(&netproto.Request{Kind: netproto.KindDelta, Table: "accounts", SQL: sql, Cursor: 2})
	if delta.Err != "" || delta.Version != 4 || len(delta.DeltaRows) != 1 || delta.DeltaRows[0][0].I != 3 {
		t.Fatalf("delta: %q, version %d, rows %v", delta.Err, delta.Version, delta.DeltaRows)
	}
	if tail := (&relation.Table{Name: "accounts", Schema: accounts.Schema, Rows: accounts.Rows[2:4]}); remote.execCache.Holds(tail) {
		t.Error("the remote's cache still holds the delta tail after the pull")
	}
	if plans := remote.execCache.Plans(sql); plans != 1 {
		t.Errorf("the pull SQL has %d plans, want 1: compiled once for both pulls", plans)
	}
}

// Under -race: one writer appends three rows at a time while readers run
// pushdowns, batches and view delta pulls. Every count is a version the
// table had, every delta is exactly its rows, and afterwards a repeated
// text over the unchanged rows finds them cached under the live table.
func TestRemoteReadsOffTheLockUnderWrites(t *testing.T) {
	const base, chunks, chunk = 200, 100, 3
	events := eventsTable(base)
	remote, _ := startRemote(t, events)
	version := func(n int64) bool { return n >= base && n <= base+chunks*chunk && (n-base)%chunk == 0 }
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	// run calls step until the writer is done or a step reports a failure.
	run := func(step func() string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if msg := step(); msg != "" {
					t.Error(msg)
					stop()
				}
			}
		}()
	}

	added := eventsTable(base + chunks*chunk).Rows[base:]
	inserts := 0
	run(func() string {
		if inserts == chunks {
			stop()
			return ""
		}
		resp := remote.handle(&netproto.Request{Kind: netproto.KindInsert, Table: "events", Rows: added[inserts*chunk : (inserts+1)*chunk]})
		inserts++
		time.Sleep(100 * time.Microsecond) // let the readers in between writes
		return resp.Err
	})
	const count = "SELECT count(*) AS n FROM events"
	const join = "SELECT count(*) AS n FROM events a, events b WHERE a.e_id = b.e_id"
	const view = "SELECT e_id, e_amount FROM events WHERE e_kind = 'debit'"
	run(func() string {
		resp := remote.handle(&netproto.Request{Kind: netproto.KindExec, SQL: count})
		if resp.Err != "" || !version(resp.Result.Rows[0][0].I) {
			return fmt.Sprintf("exec: %q, %v", resp.Err, resp.Result)
		}
		return ""
	})
	run(func() string {
		resp := remote.handle(&netproto.Request{Kind: netproto.KindBatch, Batch: []netproto.BatchQuery{{SQL: count}, {SQL: join}}})
		for i, it := range resp.Batch {
			if it.Err != "" || !version(it.Result.Rows[0][0].I) {
				return fmt.Sprintf("batch item %d: %q, %v", i, it.Err, it.Result)
			}
		}
		return ""
	})
	run(func() string {
		const cursor = base - 10
		resp := remote.handle(&netproto.Request{Kind: netproto.KindDelta, Table: "events", SQL: view, Cursor: cursor})
		if resp.Err != "" || !version(int64(resp.Version)) {
			return fmt.Sprintf("delta: %q, version %d", resp.Err, resp.Version)
		}
		var ids []int64
		for _, r := range resp.DeltaRows {
			ids = append(ids, r[0].I)
		}
		var want []int64
		for id := int64(cursor); id < int64(resp.Version); id += 2 { // even ids are debits
			want = append(want, id)
		}
		if fmt.Sprint(ids) != fmt.Sprint(want) {
			return fmt.Sprintf("delta of version %d: e_ids %v, want %v", resp.Version, ids, want)
		}
		return ""
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	if inserts != chunks {
		t.Fatalf("the writer stopped after %d of %d inserts", inserts, chunks)
	}

	for i := 0; i < 2; i++ {
		resp := remote.handle(&netproto.Request{Kind: netproto.KindExec, SQL: join})
		if resp.Err != "" || resp.Result.Rows[0][0].I != base+chunks*chunk {
			t.Fatalf("join after the writes: %q, %v", resp.Err, resp.Result)
		}
	}
	if !remote.execCache.Holds(events) {
		t.Error("a repeated text over unchanged rows left nothing cached under the live table")
	}
}
