package sqlmini

import (
	"math/bits"

	"ivdss/internal/relation"
)

// frame is one execution's scratch memory. ExecuteContext draws it from
// the ExecCache's free list and hands it back on every exit; what it lent
// (register files, selections, filter survivors, row-id vectors, join
// pair lists, the derive stage's columns) comes back with it and is lent
// again only to a later execution. Nothing that outlives the execution is
// drawn from a frame: not the result table or its image, not a cached
// image or join build. A nil frame allocates every buffer afresh.
type frame struct {
	ints   stock[int64]
	floats stock[float64]
	strs   stock[string]
	ids    stock[int32]
	regs   []*progRegs // register files, lent in order
	nregs  int
}

// frameMaxClass is the largest size class a frame keeps: vectors of up to
// 1<<17 values. A longer one is allocated and left to the collector.
const frameMaxClass = 17

// frameMaxBytes bounds what an idle frame keeps: a frame whose vectors
// add up to more is dropped on release rather than kept for the next
// execution.
const frameMaxBytes = 16 << 20

// stock is a frame's vectors of one element type, by size class: a
// request for n values is served from capacity 1<<bits.Len(n-1).
type stock[T any] struct {
	free [frameMaxClass + 1][][]T
	lent [][]T
	made int // values in the vectors the stock has made
}

// get lends a vector of length n, never nil.
func (s *stock[T]) get(n int) []T {
	if n == 0 {
		return []T{}
	}
	c := bits.Len(uint(n - 1))
	if c > frameMaxClass {
		return make([]T, n)
	}
	var b []T
	if k := len(s.free[c]); k > 0 {
		b, s.free[c] = s.free[c][k-1], s.free[c][:k-1]
	} else {
		b = make([]T, 1<<c)
		s.made += 1 << c
	}
	s.lent = append(s.lent, b)
	return b[:n]
}

// reset takes every lent vector back.
func (s *stock[T]) reset() {
	for _, b := range s.lent {
		c := bits.Len(uint(cap(b) - 1))
		s.free[c] = append(s.free[c], b)
	}
	s.lent = s.lent[:0]
}

// bytes is the size of the vectors f keeps.
func (f *frame) bytes() int {
	return 8*(f.ints.made+f.floats.made) + 16*f.strs.made + 4*f.ids.made
}

// release takes back everything f lent. String vectors and register
// files are cleared, so an idle frame pins no replica's cells.
func (f *frame) release() {
	for _, b := range f.strs.lent {
		clear(b)
	}
	f.ints.reset()
	f.floats.reset()
	f.strs.reset()
	f.ids.reset()
	for _, rf := range f.regs[:f.nregs] {
		clear(rf.ints)
		clear(rf.floats)
		clear(rf.strs)
		clear(rf.sels)
		clear(rf.selBuf)
	}
	f.nregs = 0
}

func (f *frame) int64s(n int) []int64 {
	if f == nil {
		return make([]int64, n)
	}
	return f.ints.get(n)
}

func (f *frame) float64s(n int) []float64 {
	if f == nil {
		return make([]float64, n)
	}
	return f.floats.get(n)
}

func (f *frame) strings(n int) []string {
	if f == nil {
		return make([]string, n)
	}
	return f.strs.get(n)
}

func (f *frame) int32s(n int) []int32 {
	if f == nil {
		return make([]int32, n)
	}
	return f.ids.get(n)
}

// vector lends an empty column of type t with room for n values.
func (f *frame) vector(t relation.Type, n int) relation.Vector {
	if f == nil {
		return relation.NewVector(t, n)
	}
	v := relation.Vector{T: t}
	switch t {
	case relation.Float:
		v.Floats = f.float64s(n)[:0]
	case relation.Str:
		v.Strs = f.strings(n)[:0]
	default: // Int, Date
		v.Ints = f.int64s(n)[:0]
	}
	return v
}

// regFile lends a register file of nd data and ns selection registers,
// none of them bound yet.
func (f *frame) regFile(nd, ns int) *progRegs {
	if f == nil {
		return &progRegs{
			ints:   make([][]int64, nd),
			floats: make([][]float64, nd),
			strs:   make([][]string, nd),
			sels:   make([][]int32, ns),
			selBuf: make([][]int32, ns),
		}
	}
	if f.nregs == len(f.regs) {
		f.regs = append(f.regs, &progRegs{})
	}
	rf := f.regs[f.nregs]
	f.nregs++
	rf.ints, rf.floats, rf.strs = resize(rf.ints, nd), resize(rf.floats, nd), resize(rf.strs, nd)
	rf.sels, rf.selBuf = resize(rf.sels, ns), resize(rf.selBuf, ns)
	return rf
}

// resize returns s as n zero values, reusing its array when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
