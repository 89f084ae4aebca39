package sqlmini

import "testing"

// TestFrameRelease: within an execution every vector a frame lends is its
// own; after release the same arrays are lent again, with every string
// and register cleared, so an idle frame pins no replica; a vector above
// the largest size class is never kept.
func TestFrameRelease(t *testing.T) {
	f := &frame{}
	a, b := f.strings(3), f.strings(3)
	if &a[0] == &b[0] {
		t.Fatal("one execution was lent the same string vector twice")
	}
	a[0], b[2] = "x", "y"
	rf := f.regFile(1, 1)
	rf.strs[0], rf.sels[0] = a, f.int32s(2)
	huge := f.int64s(1<<frameMaxClass + 1)
	f.release()

	if c := f.strings(4); &c[0] != &b[0] && &c[0] != &a[0] || c[0] != "" || c[2] != "" {
		t.Fatalf("after release the string vector %q was not reused cleared", c)
	}
	if rf.strs[0] != nil || rf.sels[0] != nil {
		t.Fatal("release left a register bound")
	}
	if again := f.int64s(1<<frameMaxClass + 1); &again[0] == &huge[0] {
		t.Fatal("a vector above the largest size class was kept")
	}
}

// TestCacheKeepsFrames: the cache keeps every frame handed back, so it
// holds as many as have been out at once, except one whose vectors have
// grown past frameMaxBytes, which it drops.
func TestCacheKeepsFrames(t *testing.T) {
	c := NewExecCache()
	a, b := c.frame(), c.frame()
	if a == b {
		t.Fatal("two executions were lent one frame")
	}
	c.release(a)
	c.release(b)
	if len(c.frames) != 2 {
		t.Fatalf("%d idle frames after two executions ended, want 2", len(c.frames))
	}
	f := c.frame()
	for f.bytes() <= frameMaxBytes {
		f.float64s(1 << frameMaxClass)
	}
	c.release(f)
	if len(c.frames) != 1 {
		t.Fatalf("%d idle frames, want 1: a frame past frameMaxBytes was kept", len(c.frames))
	}
}
