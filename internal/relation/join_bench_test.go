package relation_test

import (
	"context"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

// BenchmarkJoinIndex times the VM's hash-join kernel on the lineitem ⋈
// orders shape at tpch scale 1: build on orders by o_orderkey, probe every
// lineitem row by l_orderkey. One op is one build plus one probe.
func BenchmarkJoinIndex(b *testing.B) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	orders, err := relation.Columnar(tables["orders"])
	if err != nil {
		b.Fatal(err)
	}
	lineitem, err := relation.Columnar(tables["lineitem"])
	if err != nil {
		b.Fatal(err)
	}
	bkeys := orders.Refs([]int{orders.Schema.ColIndex("o_orderkey")})
	pkeys := lineitem.Refs([]int{lineitem.Schema.ColIndex("l_orderkey")})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := relation.BuildJoinIndex(ctx, bkeys, orders.N)
		if err != nil {
			b.Fatal(err)
		}
		build, _, err := idx.Probe(ctx, pkeys, lineitem.N, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(build) != lineitem.N {
			b.Fatalf("%d pairs, want one per lineitem row (%d)", len(build), lineitem.N)
		}
	}
}
