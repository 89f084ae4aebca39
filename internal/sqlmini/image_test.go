package sqlmini

import (
	"context"
	"net"
	"testing"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// overTheWire ships a table as a remote site would and returns what the
// caller's end decodes.
func overTheWire(t *testing.T, table *relation.Table) *relation.Table {
	t.Helper()
	a, b := net.Pipe()
	server, client := netproto.NewConn(a), netproto.NewConn(b)
	defer server.Close()
	defer client.Close()
	sent := make(chan error, 1)
	go func() { sent <- server.WriteResponse(&netproto.Response{Result: table}) }()
	resp, err := client.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := resp.ErrOrNil(); err != nil {
		t.Fatal(err)
	}
	return resp.Result
}

// A fetched table reaches the VM as the vectors it was decoded into:
// relation.Columnar is never run over it and nothing is cached for it.
func TestDecodedTableReachesTheVMAsItsImage(t *testing.T) {
	decoded := overTheWire(t, testCatalog(t)["orders"])
	image := decoded.Image()
	if image == nil {
		t.Fatal("decoded table has no image")
	}
	cache := NewExecCache()
	for _, c := range []*ExecCache{nil, cache} {
		got, err := c.columnar(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if got != image {
			t.Errorf("the VM was handed %p, the table's image is %p", got, image)
		}
	}
	if len(cache.cols) != 0 {
		t.Errorf("%d columnar images cached for a table that carries its own", len(cache.cols))
	}
	// Once the rows no longer match the image, conversion and caching are
	// back: a table without a usable image is any other table.
	decoded.Rows = append(decoded.Rows, decoded.Rows[0])
	got, err := cache.columnar(decoded)
	if err != nil || got == image || got.N != len(decoded.Rows) || len(cache.cols) != 1 {
		t.Errorf("after an append: image reused %v, N %d, cached %d, err %v", got == image, got.N, len(cache.cols), err)
	}
}

// The image hazard: a decoded table mutated in place must be answered
// from its rows as they now are, never from the vectors it arrived as.
func TestMutatedDecodedTableIsAnsweredFromItsRows(t *testing.T) {
	ctx := context.Background()
	q := "SELECT o_id, o_total FROM orders WHERE o_total > 15"
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*relation.Table){
		"sorted in place": func(tb *relation.Table) {
			if err := relation.Sort(tb, []relation.SortKey{{Col: 2, Desc: true}}); err != nil {
				t.Fatal(err)
			}
		},
		"appended to": func(tb *relation.Table) {
			tb.MustInsert(relation.Row{relation.IntVal(105), relation.IntVal(2), relation.FloatVal(99), relation.DateOf(2020, 6, 1)})
		},
		"appended to past Insert": func(tb *relation.Table) {
			tb.Rows = append(tb.Rows, relation.Row{relation.IntVal(106), relation.IntVal(2), relation.FloatVal(98), relation.DateOf(2020, 6, 2)})
		},
		"limited": func(tb *relation.Table) {
			if err := relation.Limit(tb, 2); err != nil {
				t.Fatal(err)
			}
		},
		"deduplicated, then refilled to the arrival count": func(tb *relation.Table) {
			dedupeRows(tb, len(tb.Schema.Cols))
			tb.Rows = append(tb.Rows, relation.Row{relation.IntVal(107), relation.IntVal(3), relation.FloatVal(97), relation.DateOf(2020, 6, 3)})
		},
	} {
		t.Run(name, func(t *testing.T) {
			orders := testCatalog(t)["orders"]
			orders.MustInsert(orders.Rows[0]) // a duplicate, so deduplication has something to remove
			decoded := overTheWire(t, orders)
			cache := NewExecCache()
			cat := MapCatalog{"orders": decoded}
			if _, err := ExecuteWith(ctx, stmt, cat, Options{Cache: cache}); err != nil {
				t.Fatal(err)
			}
			mutate(decoded)
			oracle, err := ExecuteWith(ctx, stmt, cat, Options{Engine: EngineTreeWalk})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExecuteWith(ctx, stmt, cat, Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, q, oracle, got)
		})
	}
}

// The result tail builds rows as views of one slab: the number of objects
// an execution allocates must not grow with the rows it returns.
func TestExecuteAllocationsDoNotGrowWithOutputRows(t *testing.T) {
	ctx := context.Background()
	q := "SELECT i_id, i_price, i_tag, i_id + 1 AS next FROM items WHERE i_price >= 0"
	allocs := func(rows int) float64 {
		cat := bigCatalog(t, rows)
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := Prepare(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewExecCache()
		var out *relation.Table
		n := testing.AllocsPerRun(10, func() {
			if out, err = prep.ExecuteContext(ctx, cat, cache); err != nil {
				t.Fatal(err)
			}
		})
		if out.NumRows() != rows {
			t.Fatalf("%d output rows, want %d", out.NumRows(), rows)
		}
		return n
	}
	small, large := allocs(2000), allocs(8000)
	t.Logf("allocs per execution: %v for 2000 rows, %v for 8000", small, large)
	if large-small > 16 {
		t.Errorf("execution allocates %v objects for 2000 output rows and %v for 8000: a per-row term is back", small, large)
	}
}

// The cache names a table's contents by the storage of its rows: a fresh
// header over the same rows, as a remote takes one per request, is handed
// the image and join build an earlier header earned; an append costs one
// rebuild; and a header that declares other column types is never handed
// the image of the types it does not have.
func TestExecCacheKeysByRowStorage(t *testing.T) {
	ctx := context.Background()
	cache := NewExecCache()
	live := testCatalog(t)
	header := func(tbl *relation.Table) *relation.Table {
		n := len(tbl.Rows)
		return &relation.Table{Name: tbl.Name, Schema: tbl.Schema, Rows: tbl.Rows[:n:n]}
	}
	first, err := cache.columnar(header(live["orders"]))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := cache.columnar(header(live["orders"])); err != nil || again != first || len(cache.cols) != 1 {
		t.Fatalf("a second header over the same rows: same image %v, %d cached, err %v", again == first, len(cache.cols), err)
	}

	q := "SELECT c_name, o_total FROM customers, orders WHERE c_id = o_cust"
	run := func() {
		t.Helper()
		snap := MapCatalog{"customers": header(live["customers"]), "orders": header(live["orders"])}
		if _, err := RunWith(ctx, q, snap, Options{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	run() // the first join over these rows leaves a mark
	run() // the second earns the build
	key := buildKey{rows: rowsKey(live["orders"]), sig: "1"}
	built := cache.builds[key]
	if built == nil {
		t.Fatal("two joins over fresh headers of the same rows earned no build")
	}
	run()
	if cache.builds[key] != built || len(cache.builds) != 1 {
		t.Errorf("a third header rebuilt the join: %d builds", len(cache.builds))
	}

	live["orders"].MustInsert(relation.Row{relation.IntVal(105), relation.IntVal(2), relation.FloatVal(5), relation.DateOf(2020, 6, 1)})
	grown, err := cache.columnar(header(live["orders"]))
	if err != nil || grown == first || grown.N != 6 {
		t.Fatalf("after an append: old image reused %v, N %d, err %v", grown == first, grown.N, err)
	}
	if again, _ := cache.columnar(header(live["orders"])); again != grown {
		t.Error("the rebuilt image is not reused by the next header")
	}

	retyped := header(live["orders"])
	retyped.Schema = relation.MustSchema(
		relation.Column{Name: "o_id", Type: relation.Int},
		relation.Column{Name: "o_cust", Type: relation.Int},
		relation.Column{Name: "o_total", Type: relation.Int},
		relation.Column{Name: "o_date", Type: relation.Date},
	)
	if img, err := cache.columnar(retyped); err == nil {
		t.Errorf("a header declaring o_total an int was handed an image with column types %v", img.Cols[2].T)
	}
}
