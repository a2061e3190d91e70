package engine

import (
	"errors"
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// This file is the scan path's integrity pipeline: verify every fetch,
// never retry bad bytes against the same source blindly, and contain
// durable damage by quarantining the file in the transaction log.
//
// Per file the flow is:
//
//  1. quarantine gate — a marked file fails fast with a typed error
//     naming table/file, or is skipped with a warning under the
//     explicit Options.SkipQuarantined opt-in;
//  2. fetch + verify — the GET's response is checked for truncation
//     (body shorter than the object's size) and staleness (generation
//     differs from the snapshot's pinned generation), and the decode
//     verifies every colfmt chunk and footer CRC; a failed decode
//     never populates the scan cache;
//  3. alternate-source re-fetch — on corruption, all cached
//     generations of the object are evicted and ONE fresh fetch runs;
//     in-flight corruption (a sick response) heals here;
//  4. quarantine — corruption that survives the re-fetch means the
//     stored copy itself is damaged: the file is quarantined via a
//     sealed commit and the query degrades per policy.

// verifyFetched checks response-level integrity of one completed GET:
// stale-generation substitution and truncation. Checksums can't catch
// either — a stale object's checksums are self-consistent, and a
// truncated body may cut cleanly between chunks — so the scan pins the
// snapshot's generation and the reported object size instead.
func verifyFetched(f bigmeta.FileEntry, data []byte, info objstore.ObjectInfo) error {
	if f.Generation > 0 && info.Generation != f.Generation {
		return &integrity.Error{Source: "objstore.stale", Bucket: f.Bucket, Key: f.Key,
			Detail: fmt.Sprintf("got generation %d, snapshot pinned %d", info.Generation, f.Generation)}
	}
	if int64(len(data)) != info.Size {
		return &integrity.Error{Source: "objstore.truncated", Bucket: f.Bucket, Key: f.Key,
			Detail: fmt.Sprintf("got %d bytes, object reports %d", len(data), info.Size)}
	}
	return nil
}

// recordDetection counts one detected corruption under
// "integrity.detected.*" (total and per verification site) and logs it
// to the "integrity.detections" event stream, so tests can reconcile
// detected counts against the harness's "integrity.injected.*".
func (e *Engine) recordDetection(err error) {
	var ie *integrity.Error
	source := "unknown"
	if errors.As(err, &ie) {
		source = ie.Source
	}
	e.Obs.Counter("integrity.detected.scan").Add(1)
	e.Obs.Counter("integrity.detected." + source).Add(1)
	e.Obs.Event("integrity.detections", err.Error())
}

// containCorrupt handles corruption that survived the alternate-source
// re-fetch: the durable copy is damaged. The file is quarantined
// through a sealed log commit; under SkipQuarantined the scan then
// proceeds without it (skipped=true), otherwise the typed corruption
// error surfaces to the query.
func (e *Engine) containCorrupt(ctx *QueryContext, t catalog.Table, f bigmeta.FileEntry, cause error) (skipped bool, err error) {
	var ie *integrity.Error
	source := "engine.scan"
	if errors.As(cause, &ie) {
		source = ie.Source
	}
	if e.Log != nil {
		_, qerr := e.Log.QuarantineFile(string(ctx.Principal), t.FullName(), bigmeta.QuarantineMark{
			Key:    f.Key,
			Source: source,
			Reason: cause.Error(),
			Time:   e.Clock.Now(),
		})
		if qerr == nil {
			e.Obs.Counter("integrity.quarantines").Add(1)
			e.Obs.Event("integrity.warnings",
				fmt.Sprintf("quarantined %s/%s (table %s): %v", f.Bucket, f.Key, t.FullName(), cause))
			if e.Opts.SkipQuarantined {
				return true, nil
			}
		}
	}
	return false, cause
}

// fileRead is one worker's outcome for a single file.
type fileRead struct {
	sel       vector.Selection
	hit, miss bool
}

// readFileOnce performs one verified fetch-and-decode of a file:
// GET (with response verification inside the hedged attempt, so a
// corrupt response is never blindly retried in place), then cache
// lookup by the *actual* generation, then decode with CRC
// verification. A decode that fails verification never populates the
// scan cache.
func (e *Engine) readFileOnce(ctx *QueryContext, tr sim.Charger, fsp *obs.Span, store *objstore.Store, cred objstore.Credential, t catalog.Table, f bigmeta.FileEntry, filePreds []colfmt.Predicate) (fileRead, error) {
	var rd fileRead
	var data []byte
	var info objstore.ObjectInfo
	err := e.Res.HedgedDo(tr, ctx.Budget, "GET "+f.Bucket+"/"+f.Key, func(ch sim.Charger) error {
		d, oi, ge := store.GetOn(ch, cred, f.Bucket, f.Key)
		if ge != nil {
			return ge
		}
		if verr := verifyFetched(f, d, oi); verr != nil {
			return integrity.Annotate(verr, t.FullName(), f.Bucket, f.Key)
		}
		data, info = d, oi
		return nil
	})
	if err != nil {
		return rd, err
	}

	if e.scanCache != nil {
		// The file-entry generation may be unknown (0): the GET just
		// told us the real one, so the decode may still be reusable —
		// or worth caching for the next query.
		cacheKey := scanCacheKey{Cloud: t.Cloud, Bucket: f.Bucket, Key: f.Key, Generation: info.Generation}
		if full, ok := e.scanCache.get(cacheKey); ok {
			rd.hit = true
			fsp.SetStr("cache", "hit")
			rd.sel, err = finishDecoded(ctx.mem.Al, full, filePreds, f, t)
			return rd, err
		}
		rd.miss = true
		fsp.SetStr("cache", "miss")
		full, err := decodeFile(data, nil)
		if err != nil {
			// Poisoning guard: the failed decode is not cached.
			return rd, integrity.Annotate(fmt.Errorf("engine: %s/%s: %w", f.Bucket, f.Key, err), t.FullName(), f.Bucket, f.Key)
		}
		e.scanCache.put(cacheKey, full)
		rd.sel, err = finishDecoded(ctx.mem.Al, full, filePreds, f, t)
		return rd, err
	}

	b, err := decodeFile(data, filePreds)
	if err != nil {
		return rd, integrity.Annotate(fmt.Errorf("engine: %s/%s: %w", f.Bucket, f.Key, err), t.FullName(), f.Bucket, f.Key)
	}
	b, err = injectPartitionColumns(b, f.Partition, t)
	if err != nil {
		return rd, err
	}
	rd.sel = vector.Selection{Batch: b, N: b.N}
	return rd, nil
}
