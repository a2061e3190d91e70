package arena

import (
	"sync"
	"testing"
)

func TestAllocZeroedAndSized(t *testing.T) {
	a := New()
	xs := a.Int64s(100)
	if len(xs) != 100 || cap(xs) != 100 {
		t.Fatalf("len=%d cap=%d, want 100/100", len(xs), cap(xs))
	}
	for i := range xs {
		if xs[i] != 0 {
			t.Fatalf("xs[%d] = %d, want 0", i, xs[i])
		}
		xs[i] = int64(i)
	}
	ys := a.Int64s(100)
	for i := range ys {
		if ys[i] != 0 {
			t.Fatalf("ys[%d] = %d, want 0 (second carve must be distinct)", i, ys[i])
		}
	}
	if a.Ints(0) != nil || a.Bools(0) != nil || a.Strings(0) != nil {
		t.Fatal("n==0 must return nil, matching the old append-to-nil behavior")
	}
}

func TestRecycledSlabsAreZeroed(t *testing.T) {
	p := NewPool()
	a := p.Get()
	xs := a.Int64s(1000)
	for i := range xs {
		xs[i] = -1
	}
	ss := a.Strings(10)
	ss[0] = "pinned"
	p.Put(a)

	b := p.Get()
	if b != a {
		t.Fatal("expected the pooled arena back")
	}
	ys := b.Int64s(1000)
	for i := range ys {
		if ys[i] != 0 {
			t.Fatalf("recycled carve not zeroed at %d: %d", i, ys[i])
		}
	}
	ts := b.Strings(10)
	for i := range ts {
		if ts[i] != "" {
			t.Fatalf("recycled string carve not cleared at %d: %q", i, ts[i])
		}
	}
}

// TestForOverwriteSkipsOnlyItsOwnClear: an overwrite carve of a
// recycled slab keeps the old values (that is the clear it spares), a
// zeroed carve after it on the same slab is still zeroed, and both are
// sized like make().
func TestForOverwriteSkipsOnlyItsOwnClear(t *testing.T) {
	p := NewPool()
	a := p.Get()
	xs := a.Int64s(200)
	for i := range xs {
		xs[i] = -1
	}
	p.Put(a)

	b := p.Get()
	raw := b.Int64sForOverwrite(100)
	if len(raw) != 100 || cap(raw) != 100 {
		t.Fatalf("len=%d cap=%d, want 100/100", len(raw), cap(raw))
	}
	if raw[0] != -1 {
		t.Fatalf("overwrite carve of a recycled slab was cleared: %d", raw[0])
	}
	for i, v := range b.Int64s(100) {
		if v != 0 {
			t.Fatalf("zeroed carve after an overwrite carve not zeroed at %d: %d", i, v)
		}
	}
	if b.Int64sForOverwrite(0) != nil || b.Float64sForOverwrite(0) != nil || b.BoolsForOverwrite(0) != nil || b.Uint32sForOverwrite(0) != nil {
		t.Fatal("n==0 must return nil")
	}
}

func TestLargeAllocSpansSlab(t *testing.T) {
	a := New()
	n := (minSlabBytes / 8) * 3 // larger than the first slab
	xs := a.Int64s(n)
	if len(xs) != n {
		t.Fatalf("len=%d want %d", len(xs), n)
	}
	if a.Bytes() < int64(n*8) {
		t.Fatalf("bytes=%d, want >= %d", a.Bytes(), n*8)
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool()
	a := p.Get()
	a.Int64s(10)
	p.Put(a)
	st := p.Stats()
	if st.Idle != 1 || st.BytesRetained == 0 {
		t.Fatalf("after put: %+v", st)
	}
	b := p.Get()
	st = p.Stats()
	if st.Recycled != 1 || st.Idle != 0 || st.BytesRetained != 0 {
		t.Fatalf("after recycled get: %+v", st)
	}
	b.Release()
	if got := p.Stats().Idle; got != 1 {
		t.Fatalf("Release should return to pool, idle=%d", got)
	}
}

func TestPoolTrimsOversized(t *testing.T) {
	p := &Pool{maxIdle: 8, maxArenaBytes: 1024}
	a := p.Get()
	a.Int64s(100000)
	a.Strings(64)
	p.Put(a)
	st := p.Stats()
	if st.Idle != 1 {
		t.Fatalf("oversized arena should be trimmed and retained, not dropped: %+v", st)
	}
	if st.BytesRetained > 1024 {
		t.Fatalf("trim left %d retained bytes, cap 1024", st.BytesRetained)
	}
	// The trimmed arena still serves queries and regrows on demand.
	b := p.Get()
	if p.Stats().Recycled != 1 {
		t.Fatalf("trimmed arena was not recycled: %+v", p.Stats())
	}
	xs := b.Int64s(4096)
	for i, x := range xs {
		if x != 0 {
			t.Fatalf("regrown slab not zeroed at %d", i)
		}
	}
}

func TestConcurrentAlloc(t *testing.T) {
	a := New()
	var wg sync.WaitGroup
	const workers = 8
	out := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				xs := a.Int64s(37)
				for j := range xs {
					xs[j] = int64(w)
				}
				out[w] = xs
			}
		}(w)
	}
	wg.Wait()
	for w, xs := range out {
		for j := range xs {
			if xs[j] != int64(w) {
				t.Fatalf("worker %d region overwritten: %d", w, xs[j])
			}
		}
	}
}
