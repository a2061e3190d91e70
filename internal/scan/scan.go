// Package scan owns a table read at both levels. Plan (plan.go) is the
// table: table → source → files → columns → governed batch, resolved
// once, with the engine's scans and the Storage Read API's sessions as
// its two callers. Reader is the file, the one verified data-file
// reader: everything that reads a table's data files — those two
// through their plan, DML and Optimize rewrites, the scrubber, Repair's
// re-verify — fetches, verifies, decodes and contains through it, so
// the zero-trust boundary and the write path get the same integrity
// guarantees as a query by construction.
//
// Per file the flow is:
//
//  1. quarantine gate — a marked file fails fast with a typed error
//     naming table and file, or is skipped with a warning under the
//     explicit Reader.SkipQuarantined opt-in;
//  2. fetch + verify — a hedged GET whose response is checked, inside
//     the attempt, for truncation (body shorter than the object's
//     size) and staleness (generation differs from the snapshot's
//     pinned generation); the caller's use of the bytes then verifies
//     every colfmt chunk and footer CRC it touches, and a failed
//     decode never populates the decoded-file cache;
//  3. alternate-source re-fetch — on corruption, all cached
//     generations of the object are evicted and ONE fresh fetch runs;
//     in-flight corruption (a sick response) heals here;
//  4. quarantine — corruption that survives the re-fetch means the
//     stored copy itself is damaged: the file is quarantined via a
//     sealed log commit and the read degrades per policy.
package scan

import (
	"errors"
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/sim"
)

// Reader holds what a deployment's reads share. It is a handful of
// pointers: callers build one from their current fields where they
// read, so a swapped policy or registry is never out of date.
type Reader struct {
	// Res retries and hedges the GET. Corruption is classified Corrupt
	// and never retried in place. Nil behaves like resilience.NoRetry.
	Res *resilience.Policy
	// Log is consulted by the quarantine gate and receives quarantine
	// commits. Nil disables both.
	Log *bigmeta.Log
	// Obs receives the integrity.* counters and events and Res's
	// resilience.* counters (nil-safe).
	Obs *obs.Registry
	// Cache, when set, serves and keeps verified full decodes.
	Cache *Cache
	// Site says who is reading: "scan" for query, Read API and DML
	// reads, "scrub" for the scrubber. Detections count under
	// integrity.detected.<Site>.
	Site string
	// SkipQuarantined leaves a quarantined file out with a warning
	// instead of failing the read. Rewrites (DML, Optimize) must leave
	// it false whatever the deployment's option says: a file skipped
	// in a rewrite is data loss.
	SkipQuarantined bool
}

// Source is the table being read and the access the read runs under.
type Source struct {
	Table catalog.Table
	Store *objstore.Store
	Cred  objstore.Credential
	// Budget is the retry allowance and deadline (nil = unbounded).
	Budget *resilience.Budget
	// Principal signs a quarantine commit.
	Principal string
}

// Outcome reports what the integrity pipeline did for one file.
type Outcome struct {
	// Skipped: the file is quarantined and was left out under
	// SkipQuarantined. Nothing was read.
	Skipped bool
	// Refetched: corruption was detected and one fresh fetch ran.
	Refetched bool
	// Quarantined: the fresh fetch was corrupt too and this read
	// quarantined the file.
	Quarantined bool
	// CacheHit / CacheMiss: ReadBatch served the decode from the
	// Cache, or decoded and inserted it.
	CacheHit, CacheMiss bool
}

// Fetch is the verified fetch of the whole object: one hedged GET with
// the response-level checks inside the attempt, so the policy
// classifies a bad response as Corrupt and surfaces it instead of
// blindly retrying the same source. It neither gates nor contains; Read
// does.
func (r *Reader) Fetch(ch sim.Charger, src *Source, f bigmeta.FileEntry) ([]byte, objstore.ObjectInfo, error) {
	var data []byte
	var info objstore.ObjectInfo
	err := r.Res.Counting(r.Obs).HedgedDo(ch, src.Budget, "GET "+f.Bucket+"/"+f.Key, func(hch sim.Charger) error {
		d, oi, err := src.Store.GetOn(hch, src.Cred, f.Bucket, f.Key)
		if err != nil {
			return err
		}
		if err := checkResponse(src, f, d, oi, oi.Size); err != nil {
			return err
		}
		data, info = d, oi
		return nil
	})
	return data, info, err
}

// fetchRanges is the verified fetch of part of an object: one hedged
// ranged GET per range, each checked like Fetch's response and for
// exactly the length asked. The ranges are requested together, so ch is
// charged the slowest of them, retries included, not their sum. No
// range is no request.
func (r *Reader) fetchRanges(ch sim.Charger, src *Source, f bigmeta.FileEntry, ranges []colfmt.Range) (colfmt.Extents, error) {
	res := r.Res.Counting(r.Obs)
	at := src.Store.Clock().Now()
	if ts, ok := ch.(interface{ Now() time.Duration }); ok {
		at = ts.Now()
	}
	var slowest time.Duration
	defer func() { ch.Charge(slowest) }()
	out := make(colfmt.Extents, len(ranges))
	for i, rg := range ranges {
		ln := &lane{at: at}
		err := res.HedgedDo(ln, src.Budget, "GET "+f.Bucket+"/"+f.Key, func(hch sim.Charger) error {
			d, oi, err := src.Store.GetRangeOn(hch, src.Cred, f.Bucket, f.Key, rg.Offset, rg.Length)
			if err != nil {
				return err
			}
			if err := checkResponse(src, f, d, oi, rg.Length); err != nil {
				return err
			}
			out[i] = colfmt.Extent{Offset: rg.Offset, Data: d}
			return nil
		})
		slowest = max(slowest, ln.spent)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lane is one of a file's concurrent ranged GETs in simulated time: it
// starts where the read stands and accumulates what its request costs,
// so deadline checks see its own frontier.
type lane struct {
	at, spent time.Duration
}

func (l *lane) Charge(d time.Duration) { l.spent += max(d, 0) }
func (l *lane) Now() time.Duration     { return l.at + l.spent }

// checkResponse checks response-level integrity of one completed GET:
// stale-generation substitution and truncation. Checksums can't catch
// either — a stale object's checksums are self-consistent, and a
// truncated body may cut cleanly between chunks — so the read pins the
// snapshot's generation and the length it asked for (the object's size
// for a whole GET) instead.
func checkResponse(src *Source, f bigmeta.FileEntry, data []byte, info objstore.ObjectInfo, want int64) error {
	if f.Generation > 0 && info.Generation != f.Generation {
		return &integrity.Error{Source: "objstore.stale", Table: src.Table.FullName(), Bucket: f.Bucket, Key: f.Key,
			Detail: fmt.Sprintf("got generation %d, snapshot pinned %d", info.Generation, f.Generation)}
	}
	if int64(len(data)) != want {
		return &integrity.Error{Source: "objstore.truncated", Table: src.Table.FullName(), Bucket: f.Bucket, Key: f.Key,
			Detail: fmt.Sprintf("got %d bytes, want %d", len(data), want)}
	}
	return nil
}

// Gate is the containment gate: a quarantined file fails fast with a
// typed error naming table and file, or is skipped with a warning
// under SkipQuarantined.
func (r *Reader) Gate(src *Source, f bigmeta.FileEntry) (skip bool, err error) {
	if r.Log == nil {
		return false, nil
	}
	m, ok := r.Log.IsQuarantined(src.Table.FullName(), f.Key)
	if !ok {
		return false, nil
	}
	if r.SkipQuarantined {
		r.Obs.Counter("integrity.quarantine_skips").Add(1)
		r.Obs.Event("integrity.warnings",
			fmt.Sprintf("skipping quarantined file %s/%s of table %s: %s", f.Bucket, f.Key, src.Table.FullName(), m.Reason))
		return true, nil
	}
	return false, &integrity.Error{Source: "engine.quarantine", Table: src.Table.FullName(),
		Bucket: f.Bucket, Key: f.Key, Detail: "file is quarantined: " + m.Reason}
}

// Read is the contained read of the whole object: gate, verified
// fetch, then use of the bytes. use returns an error matching
// integrity.ErrCorrupt when the bytes fail a check (every colfmt decode
// and Verify does). use must publish its result only on success.
func (r *Reader) Read(ch sim.Charger, src *Source, f bigmeta.FileEntry, use func(data []byte, info objstore.ObjectInfo) error) (Outcome, error) {
	return r.contain(src, f, func() error {
		data, info, err := r.Fetch(ch, src, f)
		if err != nil {
			return err
		}
		return annotate(src, f, use(data, info))
	})
}

// annotate names the table and file in an error their bytes raised.
func annotate(src *Source, f bigmeta.FileEntry, err error) error {
	if err == nil {
		return nil
	}
	return integrity.Annotate(fmt.Errorf("scan: %s/%s: %w", f.Bucket, f.Key, err), src.Table.FullName(), f.Bucket, f.Key)
}

// contain runs one read attempt — fetch and use — inside the gate and
// the containment loop: an attempt that fails corrupt is evicted and
// run once more, and the file is quarantined when that fails the same
// way. Any other error ends the read.
func (r *Reader) contain(src *Source, f bigmeta.FileEntry, attempt func() error) (Outcome, error) {
	var out Outcome
	skip, err := r.Gate(src, f)
	if skip || err != nil {
		out.Skipped = skip
		return out, err
	}
	err = attempt()
	if !errors.Is(err, integrity.ErrCorrupt) {
		return out, err
	}
	// A sick *response* heals on the fresh fetch; a sick *stored copy*
	// fails again and is quarantined.
	r.detected(src, f, err)
	out.Refetched = true
	err = attempt()
	switch {
	case err == nil:
		r.Obs.Counter("integrity.recovered.refetch").Add(1)
	case errors.Is(err, integrity.ErrCorrupt):
		r.detected(src, f, err)
		out.Quarantined, err = r.quarantine(src, f, err)
		if out.Quarantined && r.SkipQuarantined {
			r.Obs.Counter("integrity.quarantine_skips").Add(1)
			out.Skipped, err = true, nil
		}
	}
	return out, err
}

// sourceOf names the verification site that raised err.
func sourceOf(err error) string {
	var ie *integrity.Error
	if errors.As(err, &ie) {
		return ie.Source
	}
	return "unknown"
}

// detected counts one detected corruption under "integrity.detected.*"
// (per reader site and per verification site) and logs it to the
// "integrity.detections" event stream, so tests can reconcile detected
// counts against the store's "integrity.injected.*". No cached
// generation of the object is trusted afterwards.
func (r *Reader) detected(src *Source, f bigmeta.FileEntry, err error) {
	r.Obs.Counter("integrity.detected." + r.Site).Add(1)
	r.Obs.Counter("integrity.detected." + sourceOf(err)).Add(1)
	r.Obs.Event("integrity.detections", err.Error())
	if r.Cache != nil {
		r.Cache.evictObject(src.Table.Cloud, f.Bucket, f.Key)
	}
}

// quarantine handles corruption that survived the alternate-source
// re-fetch: the durable copy is damaged, so the file is quarantined
// through a sealed log commit. The typed corruption error comes back
// either way; ok reports that the mark is in place.
func (r *Reader) quarantine(src *Source, f bigmeta.FileEntry, cause error) (ok bool, err error) {
	if r.Log == nil {
		return false, cause
	}
	// A query-path mark names the check that failed; the scrubber's
	// names the scrubber, so an operator can tell who found the damage.
	source := sourceOf(cause)
	if r.Site != "scan" {
		source = r.Site
	}
	if _, qerr := r.Log.QuarantineFile(src.Principal, src.Table.FullName(), bigmeta.QuarantineMark{
		Key:    f.Key,
		Source: source,
		Reason: cause.Error(),
		Time:   src.Store.Clock().Now(),
	}); qerr != nil {
		return false, errors.Join(cause, fmt.Errorf("scan: quarantine %s/%s: %w", f.Bucket, f.Key, qerr))
	}
	r.Obs.Counter("integrity.quarantines").Add(1)
	r.Obs.Event("integrity.warnings",
		fmt.Sprintf("%s quarantined %s/%s (table %s): %v", r.Site, f.Bucket, f.Key, src.Table.FullName(), cause))
	return true, cause
}
