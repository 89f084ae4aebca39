package sqlmini_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
)

// cancelAfter is a context whose Err turns to Canceled after n checks, so
// an execution is cut off at the nth checkpoint, wherever that falls.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFrameAliasing runs the 22 templates over one shared ExecCache from
// several goroutines at once, so executions take turns on its scratch
// frames. Every answer must deep-equal the template's solo run without a
// cache; an answer taken before all that reuse must be unchanged after
// it; and an execution cut off at any checkpoint must hand its frame back
// clean. Run it under -race as well.
func TestFrameAliasing(t *testing.T) {
	cat, cache, queries, preps := tpchPrepared(t)
	ctx := context.Background()
	solo := make([]*relation.Table, len(preps))
	held := make([]*relation.Table, len(preps))
	for i, prep := range preps {
		var err error
		if solo[i], err = prep.ExecuteContext(ctx, cat, nil); err != nil {
			t.Fatalf("%s: %v", queries[i].ID, err)
		}
		if held[i], err = prep.ExecuteContext(ctx, cat, cache); err != nil {
			t.Fatalf("%s: %v", queries[i].ID, err)
		}
	}
	check := func(when string, i int, got *relation.Table) {
		if !reflect.DeepEqual(got, solo[i]) {
			t.Errorf("%s: %s answers %v, solo run %v", when, queries[i].ID, got.Rows, solo[i].Rows)
		}
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range preps {
					i := (k*(g+1) + r) % len(preps) // each goroutine its own order
					got, err := preps[i].ExecuteContext(ctx, cat, cache)
					if err != nil {
						t.Errorf("%s: %v", queries[i].ID, err)
						return
					}
					check("concurrent", i, got)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range held {
		check("held across reuse", i, held[i])
	}

	idle := sqlmini.IdleFrames(cache)
	if idle == 0 {
		t.Fatal("no frame came back to the cache")
	}
	cancelled := 0
	for i, prep := range preps {
		for _, checks := range []int64{0, 1, 2, 3, 5, 8} {
			cctx := &cancelAfter{Context: ctx}
			cctx.n.Store(checks)
			got, err := prep.ExecuteContext(cctx, cat, cache)
			switch {
			case errors.Is(err, context.Canceled):
				cancelled++
			case err != nil:
				t.Fatalf("%s cut after %d checks: %v", queries[i].ID, checks, err)
			default:
				check("uncut", i, got)
			}
			if n := sqlmini.IdleFrames(cache); n != idle {
				t.Fatalf("%s cut after %d checks: %d idle frames, want %d", queries[i].ID, checks, n, idle)
			}
		}
		got, err := prep.ExecuteContext(ctx, cat, cache)
		if err != nil {
			t.Fatalf("%s: %v", queries[i].ID, err)
		}
		check("after cut executions", i, got)
	}
	if cancelled < len(preps) {
		t.Fatalf("only %d executions were cut off", cancelled)
	}
}
