package sqlmini

import (
	"fmt"
	"slices"
	"strings"

	"ivdss/internal/relation"
)

// This file compiles expressions to flat bytecode for the register VM in
// vm.go. Compilation mirrors the tree-walk evaluator's semantics exactly,
// but hoists everything row-invariant out of the row loop: name
// resolution, type dispatch, date-literal parsing, LIKE-pattern
// splitting. What remains per row is a handful of typed vector loops.
//
// Two compilation modes exist, matching eval/evalBool:
//
//   - value mode produces a data register (typed vector), evaluated at
//     the positions of a governing selection register;
//   - predicate mode produces a selection register — the subset of the
//     incoming selection satisfying the predicate. AND narrows the
//     selection between its operands and OR evaluates its right side
//     only where the left was false, so per-row short-circuiting (and
//     therefore which rows can raise runtime errors) is preserved.
//
// Type errors the tree-walk evaluator raises per row (arithmetic over
// strings, comparing int with date, aggregates in WHERE, unknown
// columns) compile to opError instructions guarded by the selection:
// they fire only if at least one row actually reaches them, exactly like
// a row loop that never runs can't raise.

type opcode uint8

const (
	opLoadCol opcode = iota // dst ← view of column aux (gathered if behind row-ids)
	opConst                 // dst ← broadcast consts[aux]
	opI2F                   // dst.f ← float64(a.i) over sel
	opAddI                  // dst.i ← a.i + b.i over sel
	opSubI
	opMulI
	opAddF // dst.f ← a.f + b.f over sel
	opSubF
	opMulF
	opDivF        // dst.f ← a.f / b.f over sel; division by zero errors
	opParseDate   // dst.i ← ParseDate(a.s) over sel; malformed errors
	opCmpF        // dst(sel) ← {i ∈ sel : a.f[i] <aux-op> b.f[i]}
	opCmpI        // …int64 payloads (dates)
	opCmpS        // …strings
	opSelNonZeroI // dst(sel) ← {i ∈ sel : a.i[i] != 0}
	opSelNonZeroF
	opLike        // dst(sel) ← {i ∈ sel : likeMatchParts(a.s[i], pats[aux])}
	opSelDiff     // dst(sel) ← a \ b
	opSelUnion    // dst(sel) ← a ∪ b (disjoint sorted merge)
	opSelInter    // dst(sel) ← a ∩ b
	opBoolFromSel // dst.i[i] ← 1 if i ∈ selB else 0, for i ∈ selA
	opError       // if sel non-empty: fail with errs[aux]
)

// cmp aux codes for opCmpF/opCmpI/opCmpS.
const (
	cmpEQ = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

func cmpCode(op string) int32 {
	switch op {
	case "=":
		return cmpEQ
	case "<>":
		return cmpNE
	case "<":
		return cmpLT
	case "<=":
		return cmpLE
	case ">":
		return cmpGT
	default:
		return cmpGE
	}
}

type instr struct {
	op   opcode
	dst  uint16
	a, b uint16
	sel  uint16 // governing selection register
	aux  int32  // column / const / error / pattern index, or cmp code
}

// prog is one compiled expression program: flat instructions over a
// register file. Data registers are typed vectors; selection registers
// are sorted row-position lists. Selection register 0 is the program
// input, provided by the operator driving the batch.
type prog struct {
	ins    []instr
	consts []relation.Value
	errs   []string
	pats   [][]string // pre-split LIKE patterns

	dataTypes []relation.Type // per data register
	viewCol   []int           // column a view register rebinds to per batch; -1: owned buffer
	nsel      int             // selection registers (0 is the input)

	outs   []int // value outputs, in stage order
	outSel int   // predicate output, -1 for value programs
}

// compiler builds a prog against one schema-resolved environment.
type compiler struct {
	en env
	p  *prog
	// constOf tracks which data registers hold a known constant, enabling
	// compile-time date coercion of string literals.
	constOf []int // index into consts, or -1
	// loaded maps a column to the register already viewing it: programs
	// are straight-line, so one load (one gather, behind row-ids) serves
	// every later reference.
	loaded map[int]int
}

func newCompiler(en env) *compiler {
	return &compiler{
		en:     en,
		p:      &prog{outSel: -1, nsel: 1},
		loaded: make(map[int]int),
	}
}

// compilePredProg compiles a predicate over the env's schema: output is
// the surviving subset of the input selection.
func compilePredProg(en env, pred Expr) *prog {
	c := newCompiler(en)
	c.p.outSel = c.compilePred(pred, 0)
	return c.p
}

// compileValueProg compiles a list of value expressions evaluated over
// the full input selection, one output register each.
func compileValueProg(en env, exprs []Expr) (*prog, []relation.Type) {
	c := newCompiler(en)
	types := make([]relation.Type, len(exprs))
	for i, e := range exprs {
		r, t := c.compileValue(e, 0)
		c.p.outs = append(c.p.outs, r)
		types[i] = t
	}
	return c.p, types
}

// fallible reports whether the program can fail on a row it is given: an
// error op, a division, or a date parse.
func (p *prog) fallible() bool {
	return slices.ContainsFunc(p.ins, func(in instr) bool { return in.op == opError || in.op == opDivF || in.op == opParseDate })
}

func (c *compiler) dataReg(t relation.Type) int {
	c.p.dataTypes = append(c.p.dataTypes, t)
	c.p.viewCol = append(c.p.viewCol, -1)
	c.constOf = append(c.constOf, -1)
	return len(c.p.dataTypes) - 1
}

func (c *compiler) selReg() int {
	c.p.nsel++
	return c.p.nsel - 1
}

func (c *compiler) emit(in instr) { c.p.ins = append(c.p.ins, in) }

func (c *compiler) loadCol(col int) int {
	if r, ok := c.loaded[col]; ok {
		return r
	}
	r := c.dataReg(c.en.schema.Cols[col].Type)
	c.loaded[col] = r
	c.p.viewCol[r] = col
	c.emit(instr{op: opLoadCol, dst: uint16(r), aux: int32(col)})
	return r
}

func (c *compiler) emitConst(v relation.Value) int {
	r := c.dataReg(v.T)
	c.p.consts = append(c.p.consts, v)
	c.constOf[r] = len(c.p.consts) - 1
	c.emit(instr{op: opConst, dst: uint16(r), aux: int32(len(c.p.consts) - 1)})
	return r
}

// emitError schedules a runtime failure that fires only if a row is
// actually selected when execution reaches it.
func (c *compiler) emitError(sel int, msg string) {
	c.p.errs = append(c.p.errs, msg)
	c.emit(instr{op: opError, sel: uint16(sel), aux: int32(len(c.p.errs) - 1)})
}

// emptySel returns a selection register that is always empty.
func (c *compiler) emptySel(sel int) int {
	ns := c.selReg()
	c.emit(instr{op: opSelDiff, dst: uint16(ns), a: uint16(sel), b: uint16(sel)})
	return ns
}

// valueError emits an error op and a placeholder register typed the way
// inferType would report the expression, mirroring the tree-walk schema
// for results that error (or are empty) at run time.
func (c *compiler) valueError(e Expr, sel int, msg string) (int, relation.Type) {
	c.emitError(sel, msg)
	t := inferType(e, c.en)
	return c.dataReg(t), t
}

// toFloat promotes an Int register to Float; Float registers pass through.
func (c *compiler) toFloat(r int, t relation.Type, sel int) int {
	if t == relation.Float {
		return r
	}
	nr := c.dataReg(relation.Float)
	c.emit(instr{op: opI2F, dst: uint16(nr), a: uint16(r), sel: uint16(sel)})
	return nr
}

// boolFromSel materializes a predicate result as Int 1/0 over selIn.
func (c *compiler) boolFromSel(selIn, selTrue int) int {
	r := c.dataReg(relation.Int)
	c.emit(instr{op: opBoolFromSel, dst: uint16(r), a: uint16(selIn), b: uint16(selTrue)})
	return r
}

func (c *compiler) selOp(op opcode, a, b int) int {
	ns := c.selReg()
	c.emit(instr{op: op, dst: uint16(ns), a: uint16(a), b: uint16(b)})
	return ns
}

// truthiness converts a value register to a selection, mirroring
// evalBool: numeric non-zero is true, strings and dates error.
func (c *compiler) truthiness(r int, t relation.Type, sel int) int {
	switch t {
	case relation.Int:
		ns := c.selReg()
		c.emit(instr{op: opSelNonZeroI, dst: uint16(ns), a: uint16(r), sel: uint16(sel)})
		return ns
	case relation.Float:
		ns := c.selReg()
		c.emit(instr{op: opSelNonZeroF, dst: uint16(ns), a: uint16(r), sel: uint16(sel)})
		return ns
	default:
		c.emitError(sel, fmt.Sprintf("sqlmini: non-boolean %s value in predicate", t))
		return c.emptySel(sel)
	}
}

// compileValue compiles e in value mode under the governing selection.
func (c *compiler) compileValue(e Expr, sel int) (int, relation.Type) {
	// Derived columns (materialized aggregates, group keys) shadow
	// structural compilation, exactly as eval checks lookupDerived first.
	if _, ok := e.(*ColumnRef); !ok {
		if i, ok := c.en.lookupDerived(e); ok {
			return c.loadCol(i), c.en.schema.Cols[i].Type
		}
	}
	switch x := e.(type) {
	case *Literal:
		return c.emitConst(x.Val), x.Val.T
	case *ColumnRef:
		i, err := c.en.resolve(x)
		if err != nil {
			return c.valueError(e, sel, err.Error())
		}
		return c.loadCol(i), c.en.schema.Cols[i].Type
	case *BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return c.compileArith(x, sel)
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return c.boolFromSel(sel, c.compilePred(e, sel)), relation.Int
		default:
			return c.valueError(e, sel, fmt.Sprintf("sqlmini: unknown operator %q", x.Op))
		}
	case *NotExpr, *BetweenExpr, *InExpr, *LikeExpr:
		return c.boolFromSel(sel, c.compilePred(e, sel)), relation.Int
	case *AggExpr:
		return c.valueError(e, sel, fmt.Sprintf("sqlmini: aggregate %s not allowed here", x))
	default:
		return c.valueError(e, sel, fmt.Sprintf("sqlmini: cannot evaluate %T", e))
	}
}

func (c *compiler) compileArith(x *BinaryExpr, sel int) (int, relation.Type) {
	lr, lt := c.compileValue(x.Left, sel)
	rr, rt := c.compileValue(x.Right, sel)
	numeric := func(t relation.Type) bool { return t == relation.Int || t == relation.Float }
	if !numeric(lt) || !numeric(rt) {
		return c.valueError(x, sel, fmt.Sprintf("sqlmini: arithmetic %q over %s and %s", x.Op, lt, rt))
	}
	if x.Op == "/" {
		lf, rf := c.toFloat(lr, lt, sel), c.toFloat(rr, rt, sel)
		dst := c.dataReg(relation.Float)
		c.emit(instr{op: opDivF, dst: uint16(dst), a: uint16(lf), b: uint16(rf), sel: uint16(sel)})
		return dst, relation.Float
	}
	if lt == relation.Int && rt == relation.Int {
		var op opcode
		switch x.Op {
		case "+":
			op = opAddI
		case "-":
			op = opSubI
		default:
			op = opMulI
		}
		dst := c.dataReg(relation.Int)
		c.emit(instr{op: op, dst: uint16(dst), a: uint16(lr), b: uint16(rr), sel: uint16(sel)})
		return dst, relation.Int
	}
	lf, rf := c.toFloat(lr, lt, sel), c.toFloat(rr, rt, sel)
	var op opcode
	switch x.Op {
	case "+":
		op = opAddF
	case "-":
		op = opSubF
	default:
		op = opMulF
	}
	dst := c.dataReg(relation.Float)
	c.emit(instr{op: op, dst: uint16(dst), a: uint16(lf), b: uint16(rf), sel: uint16(sel)})
	return dst, relation.Float
}

// compilePred compiles e in predicate mode: the result selection is the
// subset of sel where e is true.
func (c *compiler) compilePred(e Expr, sel int) int {
	// A whole predicate expression can name a derived column (group keys
	// are named by their rendered text); eval resolves those before any
	// structural evaluation, so the compiler must too.
	if _, ok := e.(*ColumnRef); !ok {
		if i, ok := c.en.lookupDerived(e); ok {
			return c.truthiness(c.loadCol(i), c.en.schema.Cols[i].Type, sel)
		}
	}
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			// Narrow left-to-right: the right side only ever evaluates
			// (and can only error) on rows where the left was true.
			return c.compilePred(x.Right, c.compilePred(x.Left, sel))
		case "OR":
			s1 := c.compilePred(x.Left, sel)
			rest := c.selOp(opSelDiff, sel, s1)
			s2 := c.compilePred(x.Right, rest)
			return c.selOp(opSelUnion, s1, s2)
		case "=", "<>", "<", "<=", ">", ">=":
			lr, lt := c.compileValue(x.Left, sel)
			rr, rt := c.compileValue(x.Right, sel)
			return c.compileCompare(x.Op, lr, lt, rr, rt, sel)
		default:
			r, t := c.compileValue(e, sel)
			return c.truthiness(r, t, sel)
		}
	case *NotExpr:
		return c.selOp(opSelDiff, sel, c.compilePred(x.Inner, sel))
	case *BetweenExpr:
		sr, st := c.compileValue(x.Subject, sel)
		lr, lt := c.compileValue(x.Lo, sel)
		hr, ht := c.compileValue(x.Hi, sel)
		// Both bounds compare over the incoming selection: eval computes
		// both comparisons before combining, with no short-circuit.
		sLo := c.compileCompare(">=", sr, st, lr, lt, sel)
		sHi := c.compileCompare("<=", sr, st, hr, ht, sel)
		return c.selOp(opSelInter, sLo, sHi)
	case *InExpr:
		sr, st := c.compileValue(x.Subject, sel)
		if len(x.Options) == 0 {
			return c.emptySel(sel)
		}
		// Row-wise short-circuit across options: each option is compared
		// only on rows no earlier option matched, mirroring eval's
		// first-match return.
		matched := -1
		remaining := sel
		for _, opt := range x.Options {
			or, ot := c.compileValue(opt, remaining)
			m := c.compileCompare("=", sr, st, or, ot, remaining)
			if matched < 0 {
				matched = m
			} else {
				matched = c.selOp(opSelUnion, matched, m)
			}
			remaining = c.selOp(opSelDiff, remaining, m)
		}
		return matched
	case *LikeExpr:
		sr, st := c.compileValue(x.Subject, sel)
		if st != relation.Str {
			c.emitError(sel, fmt.Sprintf("sqlmini: LIKE over non-string %s", st))
			return c.emptySel(sel)
		}
		c.p.pats = append(c.p.pats, strings.Split(x.Pattern, "%"))
		ns := c.selReg()
		c.emit(instr{op: opLike, dst: uint16(ns), a: uint16(sr), sel: uint16(sel), aux: int32(len(c.p.pats) - 1)})
		return ns
	default: // ColumnRef, Literal, AggExpr
		r, t := c.compileValue(e, sel)
		return c.truthiness(r, t, sel)
	}
}

// compileCompare emits a typed comparison, mirroring compareCoerced:
// numerics compare as float64, strings and dates with themselves, and a
// Str operand against a Date coerces the string side (a constant parses
// once at compile time; a column parses per selected row).
func (c *compiler) compileCompare(op string, lr int, lt relation.Type, rr int, rt relation.Type, sel int) int {
	numeric := func(t relation.Type) bool { return t == relation.Int || t == relation.Float }
	emitCmp := func(oc opcode, a, b int) int {
		ns := c.selReg()
		c.emit(instr{op: oc, dst: uint16(ns), a: uint16(a), b: uint16(b), sel: uint16(sel), aux: cmpCode(op)})
		return ns
	}
	switch {
	case numeric(lt) && numeric(rt):
		return emitCmp(opCmpF, c.toFloat(lr, lt, sel), c.toFloat(rr, rt, sel))
	case lt == relation.Str && rt == relation.Str:
		return emitCmp(opCmpS, lr, rr)
	case lt == relation.Date && rt == relation.Date:
		return emitCmp(opCmpI, lr, rr)
	case lt == relation.Date && rt == relation.Str:
		cr, ok := c.coerceDate(rr, sel)
		if !ok {
			return c.emptySel(sel)
		}
		return emitCmp(opCmpI, lr, cr)
	case lt == relation.Str && rt == relation.Date:
		cl, ok := c.coerceDate(lr, sel)
		if !ok {
			return c.emptySel(sel)
		}
		return emitCmp(opCmpI, cl, rr)
	default:
		c.emitError(sel, fmt.Sprintf("relation: cannot compare %s with %s", lt, rt))
		return c.emptySel(sel)
	}
}

// coerceDate converts a Str register to a Date register. A known string
// constant parses once here; a malformed constant (which the tree walk
// re-parses and rejects per row) becomes a selection-guarded error, so it
// still only fires when a row is actually compared.
func (c *compiler) coerceDate(r int, sel int) (int, bool) {
	if ci := c.constOf[r]; ci >= 0 {
		parsed, err := relation.ParseDate(c.p.consts[ci].S)
		if err != nil {
			c.emitError(sel, err.Error())
			return 0, false
		}
		return c.emitConst(parsed), true
	}
	nr := c.dataReg(relation.Date)
	c.emit(instr{op: opParseDate, dst: uint16(nr), a: uint16(r), sel: uint16(sel)})
	return nr, true
}

// likeMatchParts is likeMatch over a pre-split pattern.
func likeMatchParts(s string, parts []string) bool {
	if len(parts) == 1 {
		return s == parts[0]
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return strings.HasSuffix(s, last)
}
