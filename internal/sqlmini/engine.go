package sqlmini

import (
	"context"
	"strconv"
	"sync"

	"ivdss/internal/relation"
)

// Engine selects the execution strategy. The zero value is the bytecode
// VM, so every existing caller gets compiled execution without changes;
// the tree-walking interpreter stays available as the reference oracle.
type Engine int

const (
	// EngineVM compiles the statement to a typed plan and flat bytecode,
	// then executes it over columnar batches. The default.
	EngineVM Engine = iota
	// EngineTreeWalk is the original row-at-a-time AST interpreter.
	EngineTreeWalk
)

// Options tunes one execution. The zero value runs the VM without a
// cache, matching ExecuteContext.
type Options struct {
	Engine Engine
	// Cache, when set, lets VM executions reuse columnar table images and
	// hash-join builds across a micro-batch workload, and RunWith reuse
	// parsed statements and plans. Safe to share between goroutines.
	Cache *ExecCache
}

// ExecuteWith evaluates a parsed statement with explicit engine options.
// It prepares the statement for this one execution; RunWith with a Cache
// reuses plans instead.
func ExecuteWith(ctx context.Context, stmt *SelectStmt, cat Catalog, opts Options) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if opts.Engine == EngineTreeWalk {
		return executeTree(ctx, stmt, cat)
	}
	cat = &onceCatalog{cat: cat}
	p, err := Prepare(stmt, cat)
	if err != nil {
		return nil, err
	}
	return p.ExecuteContext(ctx, cat, opts.Cache)
}

// RunWith is ExecuteWith over query text. With a Cache, the VM runs the
// cache's Statement for the text: parsed once, and prepared once per set
// of table schemas it is bound to.
func RunWith(ctx context.Context, query string, cat Catalog, opts Options) (*relation.Table, error) {
	if opts.Cache != nil && opts.Engine == EngineVM {
		st, err := opts.Cache.Statement(query)
		if err != nil {
			return nil, err
		}
		return st.Execute(ctx, cat, opts.Cache)
	}
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecuteWith(ctx, stmt, cat, opts)
}

// onceCatalog memoizes successful lookups for an execution that prepares:
// Prepare and then ExecuteContext each look every table up, and the memo
// makes both bind one table even under a catalog that could answer
// differently in between (MapCatalog, the module's one Catalog, cannot).
// An execution that reuses a kept plan (Statement.Execute) looks each
// table up once, with no memo.
type onceCatalog struct {
	cat Catalog
	m   map[string]*relation.Table
}

func (c *onceCatalog) Table(name string) (*relation.Table, error) {
	if t, ok := c.m[name]; ok {
		return t, nil
	}
	t, err := c.cat.Table(name)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = make(map[string]*relation.Table)
	}
	c.m[name] = t
	return t, nil
}

// execCacheCap bounds each cache map; when a map fills (entries for rows
// no table holds any more just accumulate), the whole map is dropped and
// re-warms from the live working set.
const execCacheCap = 128

// ExecCache holds columnar images of row-major tables that carry none of
// their own and hash-join build indexes, keyed by the storage of the
// table's rows (rowsKey). A row is never written once a table holds it
// (replicas swap copy-on-write, base tables only append), so every header
// over unchanged rows, such as a remote's per-request snapshot, hits; a
// row-count and column-type check makes an append cost one rebuild. A
// micro-batch workload that scans and joins the same rows repeatedly pays
// the conversion and the build once. A nil build marks a pair joined
// without one (buildsRight).
//
// It also owns the executions' scratch frames: each execution borrows one
// for its whole run, and what the frame lent is reused only after the
// execution has returned it. And it keeps a Statement per SQL text run
// through it (Statement, RunWith), at most stmtCacheCap of them.
type ExecCache struct {
	mu     sync.Mutex
	cols   map[*relation.Row]*relation.ColTable
	builds map[buildKey]*relation.JoinIndex
	frames []*frame
	stmts  map[string]*Statement
}

type buildKey struct {
	rows *relation.Row // rowsKey of the build side
	sig  string        // key column positions, e.g. "3,7"
}

// rowsKey names t's contents by their storage, the address of its first
// row; the key also keeps that storage from being reused while cached. A
// table with no rows (or none at all) has no key and is never cached.
func rowsKey(t *relation.Table) *relation.Row {
	if t == nil || len(t.Rows) == 0 {
		return nil
	}
	return &t.Rows[0]
}

// NewExecCache returns an empty cache.
func NewExecCache() *ExecCache {
	return &ExecCache{}
}

// columnar returns the columnar image of t: the one t was built from
// when it has one (a decoded or VM-produced table), else the cached one,
// converting on miss (always, on a nil cache or for a table with no
// rows). Conversion runs outside the lock; concurrent misses may
// duplicate work but never block each other on it.
func (c *ExecCache) columnar(t *relation.Table) (*relation.ColTable, error) {
	if img := t.Image(); img != nil {
		return img, nil
	}
	key := rowsKey(t)
	if c == nil || key == nil {
		return relation.Columnar(t)
	}
	c.mu.Lock()
	if ct, ok := c.cols[key]; ok && ct.Describes(t) {
		c.mu.Unlock()
		return ct, nil
	}
	c.mu.Unlock()
	ct, err := relation.Columnar(t)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.cols == nil || len(c.cols) >= execCacheCap {
		c.cols = make(map[*relation.Row]*relation.ColTable)
	}
	c.cols[key] = ct
	c.mu.Unlock()
	return ct, nil
}

// frame lends an execution a scratch frame: an idle one, or a new one
// when all are out. A nil cache lends none.
func (c *ExecCache) frame() *frame {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := len(c.frames); k > 0 {
		f := c.frames[k-1]
		c.frames = c.frames[:k-1]
		return f
	}
	return &frame{}
}

// release takes back what f lent and keeps f for a later execution,
// unless it has grown past frameMaxBytes. A frame is made only when none
// is idle, so c never keeps more frames than the most executions that
// have run on it at once: a DSS's Workers slots, a remote's concurrent
// requests.
func (c *ExecCache) release(f *frame) {
	if f == nil {
		return
	}
	f.release()
	if f.bytes() > frameMaxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, f)
}

// buildsRight picks a join's build side, which moves cost, never order:
// the right load t (keys sig, n rows) when its build is cached, when it
// is no bigger than the working relation (wn rows), or when the pair was
// joined before. A first join leaves a mark, so a replica snapshot joined
// twice earns a cached build and a one-shot fetch never pays for one.
func (c *ExecCache) buildsRight(t *relation.Table, sig string, n, wn int) bool {
	if n <= wn {
		return true
	}
	key := buildKey{rows: rowsKey(t), sig: sig}
	if c == nil || key.rows == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, seen := c.builds[key]; seen {
		return true
	}
	c.putBuild(key, nil)
	return false
}

// joinIndex returns the cached build index over the n rows of t's columnar
// image, keyed by the identity key columns keys (rendered as sig), building
// on miss (always, on a nil cache or for a table with no rows).
func (c *ExecCache) joinIndex(ctx context.Context, t *relation.Table, keys []relation.ColRef, n int, sig string) (*relation.JoinIndex, error) {
	key := buildKey{rows: rowsKey(t), sig: sig}
	if c == nil || key.rows == nil {
		return relation.BuildJoinIndex(ctx, keys, n)
	}
	c.mu.Lock()
	if idx := c.builds[key]; idx != nil && idx.N == n {
		c.mu.Unlock()
		return idx, nil
	}
	c.mu.Unlock()
	idx, err := relation.BuildJoinIndex(ctx, keys, n)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.putBuild(key, idx)
	c.mu.Unlock()
	return idx, nil
}

// putBuild stores a build, or a mark (nil); the caller holds mu.
func (c *ExecCache) putBuild(key buildKey, idx *relation.JoinIndex) {
	if c.builds == nil || len(c.builds) >= execCacheCap {
		c.builds = make(map[buildKey]*relation.JoinIndex)
	}
	c.builds[key] = idx
}

// Forget drops everything cached for t's rows. The key pins the rows, so
// rows their owner will never execute against again (a one-shot remote
// fetch or delta tail, unlike a replica snapshot) would otherwise stay
// pinned, together with their columnar image, join builds and marks,
// until the map fills.
func (c *ExecCache) Forget(t *relation.Table) {
	if c == nil {
		return
	}
	key := rowsKey(t) // nil for no rows: never stored, so nothing matches
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cols, key)
	for k := range c.builds {
		if k.rows == key {
			delete(c.builds, k)
		}
	}
}

// Holds reports whether c keeps anything for t's rows: a columnar image,
// a join build or a mark. It is how a table's owner checks that Forget
// ran, or that headers over unchanged rows share one entry.
func (c *ExecCache) Holds(t *relation.Table) bool {
	key := rowsKey(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cols[key]; ok {
		return true
	}
	for k := range c.builds {
		if k.rows == key {
			return true
		}
	}
	return false
}

// keySig renders key column positions ("3,7"); Prepare calls it once per
// join step, for the right side's keys.
func keySig(keys []int) string {
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(k), 10)
	}
	return string(b)
}
