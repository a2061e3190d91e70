// Package scrub implements the background integrity scrubber: a
// service that walks the live file set of tables, re-reads each object,
// and verifies it end to end — generation against the snapshot's pinned
// generation, length against the object's reported size, and every
// colfmt chunk and footer CRC. Corruption that survives one fresh
// re-fetch is durable damage, so the scrubber quarantines the file in
// the transaction log for the repair path (blmt.Repair) to restore.
//
// Scrubbing competes with foreground queries for object-store I/O, so
// each pass runs under a byte budget: a pass that exhausts its budget
// stops and remembers where it was, and the next pass resumes there,
// so successive budgeted passes still cover the whole corpus.
package scrub

import (
	"sort"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sim"
)

// Scrubber verifies stored table data against its checksums.
type Scrubber struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Stores  map[string]*objstore.Store

	// Res retries transient fetch failures; corruption is classified
	// Corrupt and never blindly retried. Nil behaves like NoRetry.
	Res *resilience.Policy
	// Obs receives integrity.scrub.* counters and detection events
	// (nil-safe).
	Obs *obs.Registry
	// Principal signs quarantine commits.
	Principal string
	// BytesPerPass caps how many object bytes one Pass may read
	// (0 = unlimited). A pass over budget stops mid-walk and the next
	// pass resumes at the same table and key.
	BytesPerPass int64

	// Resume cursor: the pass stopped just before (cursorTable,
	// cursorKey). Empty = start from the beginning.
	cursorTable, cursorKey string
}

// Report summarizes one scrub pass.
type Report struct {
	TablesVisited int
	FilesVerified int
	BytesVerified int64
	// FilesSkipped counts files already quarantined (not re-read).
	FilesSkipped int
	// CorruptFound counts files whose stored copy failed verification
	// (after the one fresh re-fetch); each is quarantined.
	CorruptFound int
	Quarantined  int
	// Recovered counts fetches that verified clean on the re-fetch:
	// the corruption was in flight, not at rest.
	Recovered int
	// Exhausted reports the pass stopped on its byte budget; the next
	// Pass resumes where this one stopped.
	Exhausted bool
}

// Pass scrubs the named tables' current snapshots under the byte
// budget. Tables are visited in sorted order so budgeted passes
// resume deterministically.
func (s *Scrubber) Pass(tables []string) (Report, error) {
	var rep Report
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	s.Obs.Counter("integrity.scrub.passes").Add(1)

	// Rotate the walk so it starts at the resume cursor.
	start := 0
	if s.cursorTable != "" {
		for i, tn := range sorted {
			if tn >= s.cursorTable {
				start = i
				break
			}
		}
	}
	for off := range sorted {
		tableName := sorted[(start+off)%len(sorted)]
		t, err := s.Catalog.Table(tableName)
		if err != nil {
			return rep, err
		}
		store, cred, err := scan.Access{Auth: s.Auth, Stores: s.Stores}.Resolve(t)
		if err != nil {
			return rep, err
		}
		rd := scan.Reader{Res: s.Res, Log: s.Log, Obs: s.Obs, Site: "scrub"}
		src := scan.Source{Table: t, Store: store, Cred: cred, Principal: s.Principal}
		files, _, err := s.Log.Snapshot(tableName, -1)
		if err != nil {
			return rep, err
		}
		sort.Slice(files, func(i, j int) bool { return files[i].Key < files[j].Key })
		rep.TablesVisited++
		for _, f := range files {
			if off == 0 && tableName == s.cursorTable && f.Key < s.cursorKey {
				continue // already covered by the previous pass
			}
			if _, qok := s.Log.IsQuarantined(tableName, f.Key); qok {
				rep.FilesSkipped++
				continue
			}
			if s.BytesPerPass > 0 && rep.BytesVerified+f.Size > s.BytesPerPass && rep.FilesVerified > 0 {
				s.cursorTable, s.cursorKey = tableName, f.Key
				rep.Exhausted = true
				s.Obs.Counter("integrity.scrub.budget_stops").Add(1)
				return rep, nil
			}
			// The verified reader does the work: fetch, generation and
			// length checks, the whole-file CRC walk, one fresh re-fetch
			// on corruption, quarantine when that confirms it.
			n, oc, verr := rd.Verify(s.Clock, &src, f)
			rep.BytesVerified += n
			s.Obs.Counter("integrity.scrub.bytes").Add(n)
			if oc.Quarantined {
				// Quarantined, not verified: continue with the next file.
				rep.CorruptFound++
				rep.Quarantined++
				continue
			}
			if verr != nil {
				return rep, verr
			}
			if oc.Refetched {
				rep.Recovered++
			}
			rep.FilesVerified++
			s.Obs.Counter("integrity.scrub.files").Add(1)
		}
	}
	// Full walk completed: clear the cursor so the next pass starts over.
	s.cursorTable, s.cursorKey = "", ""
	return rep, nil
}
