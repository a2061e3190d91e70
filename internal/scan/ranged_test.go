package scan

import (
	"errors"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/vector"
)

// sumA sums column a of a read's selected rows.
func sumA(t *testing.T, sel vector.Selection) int64 {
	t.Helper()
	b, err := vector.FilterConcatWith(vector.Mem{}, []vector.Selection{sel})
	if err != nil {
		t.Fatal(err)
	}
	var s int64
	for _, v := range b.Column("a").Decode().Ints {
		s += v
	}
	return s
}

// TestRangedReadFetchesOnlyDecodedChunks: a mapped file is read by
// range — the chunks of the wanted columns, in the row groups the
// predicates do not rule out — and a read of no column makes no
// request at all.
func TestRangedReadFetchesOnlyDecodedChunks(t *testing.T) {
	w := newWideWorld(t)
	f, _ := w.writeWide(t, "t/day=7/w.blk")
	rd := w.reader("scan")
	gets, bytes := w.reg.Get("objstore.get.count"), w.reg.Get("objstore.get.bytes")
	// a >= 90 rules out the first row group: a and s of the second are
	// fetched, b between them is not.
	sel, _, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("a", "s"), nil,
		[]colfmt.Predicate{{Column: "a", Op: vector.GE, Value: vector.IntValue(90)}})
	if err != nil || sel.N != 10 || sumA(t, sel) != 945 {
		t.Fatalf("read: %d rows err %v", sel.N, err)
	}
	g1 := f.Layout.RowGroups[1].Chunks
	if got, gotBytes := w.reg.Get("objstore.get.count")-gets, w.reg.Get("objstore.get.bytes")-bytes; got != 2 || gotBytes != g1[0].Length+g1[2].Length {
		t.Fatalf("read cost %d GETs of %d bytes, want 2 of %d", got, gotBytes, g1[0].Length+g1[2].Length)
	}
	// a and b of one group touch: they are one range.
	gets = w.reg.Get("objstore.get.count")
	if _, _, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("a", "b"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := w.reg.Get("objstore.get.count") - gets; got != 2 {
		t.Fatalf("a, b over two row groups cost %d GETs, want 2", got)
	}
	gets = w.reg.Get("objstore.get.count")
	if sel, _, err := rd.ReadBatch(w.clock, &w.src, f, w.cols(), nil, nil); err != nil || sel.N != 100 {
		t.Fatalf("row count: %d rows err %v", sel.N, err)
	}
	if got := w.reg.Get("objstore.get.count") - gets; got != 0 {
		t.Fatalf("a read of no column made %d GETs", got)
	}
}

// TestRangedReadContainment walks the containment loop over ranged
// reads. Damage to one range's response — a flipped bit, a truncated
// body, the superseded generation — is detected and healed by the
// refetch; a stored bit flipped inside a fetched chunk quarantines the
// file; one flipped in a chunk the read does not fetch goes unseen by
// it, and the scrubber's whole-file walk finds it.
func TestRangedReadContainment(t *testing.T) {
	healed := map[string]bool{}
	for seed := uint64(1); seed <= 200 && len(healed) < 3; seed++ {
		w := newWideWorld(t)
		w.writeWide(t, "t/day=7/w.blk")
		f, _ := w.writeWide(t, "t/day=7/w.blk") // the first is the stale copy
		w.store.InjectFaults(objstore.FaultProfile{Seed: seed, CorruptRate: 0.25})
		sel, out, err := w.reader("scan").ReadBatch(w.clock, &w.src, f, w.cols("a", "s"), nil, nil)
		if err != nil {
			if !errors.Is(err, integrity.ErrCorrupt) || !out.Quarantined {
				t.Fatalf("seed %d: failed read not typed and contained: outcome %+v err %v", seed, out, err)
			}
			continue
		}
		if sumA(t, sel) != 4950 {
			t.Fatalf("seed %d: read returned wrong rows", seed)
		}
		snap := w.reg.Snapshot()
		if !out.Refetched || snap.Counters["integrity.detected.scan"] != 1 {
			continue
		}
		for _, kind := range []string{"bitflip", "truncate", "stale"} {
			if snap.Counters["integrity.injected."+kind] == 1 {
				healed[kind] = true
			}
		}
	}
	if len(healed) != 3 {
		t.Fatalf("healed single-range damage of kinds %v, want bitflip, truncate and stale", healed)
	}

	w := newWideWorld(t)
	const key = "t/day=7/w.blk"
	f, data := w.writeWide(t, key)
	w.flipChunk(t, key, data, "b")
	sel, out, err := w.reader("scan").ReadBatch(w.clock, &w.src, f, w.cols("a", "s"), nil, nil)
	if err != nil || out.Refetched || sumA(t, sel) != 4950 {
		t.Fatalf("read around an unfetched damaged chunk: outcome %+v err %v", out, err)
	}
	if _, _, err := w.reader("scrub").Verify(w.clock, &w.src, f); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("scrub of the damaged file: err = %v", err)
	}

	w = newWideWorld(t)
	f, data = w.writeWide(t, key)
	w.flipChunk(t, key, data, "s")
	_, out, err = w.reader("scan").ReadBatch(w.clock, &w.src, f, w.cols("a", "s"), nil, nil)
	var ie *integrity.Error
	if !errors.As(err, &ie) || ie.Source != "colfmt.chunk" || ie.Block != "s" || !out.Refetched || !out.Quarantined {
		t.Fatalf("read of a damaged fetched chunk: outcome %+v err %v", out, err)
	}
	if _, ok := w.log.IsQuarantined("ds.t", key); !ok {
		t.Fatal("file not quarantined")
	}
}
