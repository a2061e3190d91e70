// Package bigmeta implements the repository's version of Big Metadata
// (Edara & Pasumansky, VLDB'21), the scalable physical-metadata system
// BigLake reuses for two roles:
//
//   - the metadata cache of §3.3: a columnar-grained cache of file
//     names, partitioning information, sizes, row counts and per-file
//     column statistics, refreshed in the background with the table's
//     delegated connection, letting queries avoid object-store LIST
//     calls and footer peeks entirely while enabling partition and
//     file pruning; and
//
//   - the BLMT transaction log of §3.5: a stateful service that holds
//     the tail of each table's commit log in memory and periodically
//     converts it to columnar baselines, supporting commit rates far
//     beyond object-store-committed table formats, multi-table
//     transactions and a tamper-proof audit history.
package bigmeta

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Errors returned by bigmeta.
var (
	ErrNotCached  = errors.New("bigmeta: table not in metadata cache")
	ErrNoSnapshot = errors.New("bigmeta: no snapshot at requested version")
)

// FileEntry is the cached physical metadata for one object — the unit
// the §3.3 cache tracks, "at a finer granularity than systems like the
// Hive Metastore".
type FileEntry struct {
	Bucket      string
	Key         string
	Size        int64
	RowCount    int64
	Partition   map[string]string
	ColumnStats map[string]colfmt.ColumnStats
	ContentType string
	Created     time.Duration
	Updated     time.Duration
	Generation  int64
	Custom      map[string]string
	// Layout is the file's verified footer — its chunk map: every row
	// group's rows and every chunk's offset, length, CRC and statistics
	// — for the generation the entry pins, so a read fetches exactly the
	// chunks it decodes and parses no footer. It is filled wherever the
	// footer is already in hand (commit, refresh, a listed plan's peek),
	// shared and never modified, and held in memory only: an entry
	// replayed from the journal has none and is read whole.
	Layout *colfmt.Footer `json:"-"`
}

// NewFileEntry describes a data file just written: where the PUT
// landed it (size and generation from the store's reply) and what its
// footer says it holds.
func NewFileEntry(bucket, key string, info objstore.ObjectInfo, footer *colfmt.Footer) FileEntry {
	e := FileEntry{Bucket: bucket, Key: key, Size: info.Size, Generation: info.Generation}
	e.Describe(footer, info.Generation)
	return e
}

// Describe records what a file's footer says of it: its row count and
// column statistics, and its chunk map (Layout) when the footer was
// read from the generation the entry pins. A footer of another
// generation — the object changed between listing and peek — maps
// other bytes.
func (e *FileEntry) Describe(footer *colfmt.Footer, generation int64) {
	e.RowCount, e.ColumnStats = footer.Rows, footer.Stats()
	if generation == e.Generation {
		e.Layout = footer
	}
}

// PartitionOf parses hive-style partition components out of an object
// key relative to a table prefix: "p/date=2024-01-01/f.blk" yields
// {"date": "2024-01-01"}.
func PartitionOf(prefix, key string) map[string]string {
	rel := strings.TrimPrefix(key, prefix)
	parts := strings.Split(rel, "/")
	var out map[string]string
	for _, p := range parts[:max(0, len(parts)-1)] {
		if i := strings.IndexByte(p, '='); i > 0 {
			if out == nil {
				out = make(map[string]string)
			}
			out[p[:i]] = p[i+1:]
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RefreshWorkers is the parallelism of the background refresh
// pipeline that collects footer statistics.
const RefreshWorkers = 16

// Cache is the metadata cache for BigLake and Object tables.
type Cache struct {
	clock *sim.Clock
	// cc is the registry UseObs installed last and its
	// "bigmeta.cache_refreshes" counter.
	cc atomic.Pointer[cacheCounters]

	// Res is the retry policy for the store operations a refresh
	// issues; a refresh that hits a transient LIST/GET fault retries
	// rather than leaving the cache unbuilt. Nil means no retries.
	Res *resilience.Policy

	mu        sync.RWMutex
	indexes   map[string]*Index
	refreshed map[string]time.Duration
}

type cacheCounters struct {
	reg       *obs.Registry
	refreshes *obs.Counter
}

// NewCache returns an empty cache charging background work to clock
// and counting into a private registry until UseObs points it at a
// shared one.
func NewCache(clock *sim.Clock) *Cache {
	c := &Cache{
		clock:     clock,
		Res:       resilience.DefaultPolicy(),
		indexes:   make(map[string]*Index),
		refreshed: make(map[string]time.Duration),
	}
	c.UseObs(obs.NewRegistry())
	return c
}

// UseObs points the cache's refresh counter ("bigmeta.*") and its
// refresh retry counters ("resilience.*") at a shared registry in one
// atomic store, so it is safe with refreshes in flight.
func (c *Cache) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	c.cc.Store(&cacheCounters{reg: r, refreshes: r.Counter("bigmeta.cache_refreshes")})
}

// RefreshOptions configures one refresh pass.
type RefreshOptions struct {
	// WithFileStats reads each data file's footer to collect row
	// counts and column statistics (BigLake tables). Object tables
	// refresh with this disabled: object attributes suffice.
	WithFileStats bool
	// Background runs the refresh on a clock of its own, modelling
	// asynchronous cache maintenance. When false the caller waits for
	// the refresh.
	Background bool
}

// Refresh (re)builds the cache for table from the object store using
// the table's delegated connection credential — the maintenance
// operation of §3.1 that must run outside any user query context.
func (c *Cache) Refresh(table string, store *objstore.Store, cred objstore.Credential, bucket, prefix string, opts RefreshOptions) (int, error) {
	// The LIST is sequential pagination; the footer reads fan out, file
	// i on lane i % RefreshWorkers. A foreground refresh charges both to
	// the cache's clock. A background one charges them to a clock that
	// starts now and that nothing joins, keeping maintenance off the
	// query critical path.
	clock := c.clock
	if opts.Background {
		clock = sim.NewClock()
		clock.AdvanceTo(c.clock.Now())
	}
	// Each refresh gets its own retry budget, seeded by the table name
	// so fault sequences reproduce.
	bud := resilience.NewBudget(clock, refreshRetryBudget, resilience.Seed64(table))
	cc := c.cc.Load()
	res := c.Res.Counting(cc.reg)
	infos, err := resilience.ListAll(res, clock, bud, store, cred, bucket, prefix)
	if err != nil {
		return 0, err
	}

	entries := make([]FileEntry, len(infos))
	for i, info := range infos {
		entries[i] = FileEntry{
			Bucket:      bucket,
			Key:         info.Key,
			Size:        info.Size,
			Partition:   PartitionOf(prefix, info.Key),
			ContentType: info.ContentType,
			Created:     info.Created,
			Updated:     info.Updated,
			Generation:  info.Generation,
			Custom:      info.Custom,
		}
	}
	if opts.WithFileStats {
		err := clock.OnTracks(RefreshWorkers, len(entries), func(i int, tracks []*sim.Track) error {
			footer, gen, err := ReadFooterStats(res, bud, store, cred, bucket, entries[i].Key, tracks[i%RefreshWorkers])
			if err == nil {
				entries[i].Describe(footer, gen)
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	x := NewIndex(entries)

	c.mu.Lock()
	c.indexes[table] = x
	c.refreshed[table] = c.clock.Now()
	c.mu.Unlock()
	cc.refreshes.Add(1)
	return len(entries), nil
}

// refreshRetryBudget bounds the retries one refresh pass may spend
// across its LIST pages and footer reads.
const refreshRetryBudget = 64

// ReadFooterStats reads a file's footer the way a real engine does:
// HEAD for the size, a ranged read of the tail, and a full read only
// when the footer outgrows the tail guess. It returns the verified
// footer and the generation it was read from. The cache refresh runs it
// in the background; an engine without the cache pays it on the query
// path (§3.3). Remote calls retry under res; the reads are hedged.
func ReadFooterStats(res resilience.Counted, bud *resilience.Budget, store *objstore.Store, cred objstore.Credential, bucket, key string, tr *sim.Track) (*colfmt.Footer, int64, error) {
	var info objstore.ObjectInfo
	if err := res.Do(tr, bud, "HEAD "+bucket+"/"+key, func() error {
		var e error
		info, e = store.HeadOn(tr, cred, bucket, key)
		return e
	}); err != nil {
		return nil, 0, err
	}
	var tail []byte
	if err := res.HedgedDo(tr, bud, "GET "+bucket+"/"+key, func(ch sim.Charger) error {
		d, oi, e := store.GetRangeOn(ch, cred, bucket, key, max64(0, info.Size-64*1024), -1)
		if e != nil {
			return e
		}
		tail, info = d, oi
		return nil
	}); err != nil {
		return nil, 0, err
	}
	footer, err := colfmt.ReadFooter(tail)
	if err != nil {
		// Footer larger than our 64KB guess: fall back to full read.
		var full []byte
		if err2 := res.HedgedDo(tr, bud, "GET "+bucket+"/"+key, func(ch sim.Charger) error {
			d, oi, e := store.GetOn(ch, cred, bucket, key)
			if e != nil {
				return e
			}
			full, info = d, oi
			return nil
		}); err2 != nil {
			return nil, 0, err2
		}
		footer, err = colfmt.ReadFooter(full)
		if err != nil {
			return nil, 0, fmt.Errorf("bigmeta: %s/%s: %w", bucket, key, err)
		}
	}
	return footer, info.Generation, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Files returns a copy of the cached entries for a table.
func (c *Cache) Files(table string) ([]FileEntry, error) {
	x, err := c.Index(table)
	if err != nil {
		return nil, err
	}
	return append([]FileEntry(nil), x.files...), nil
}

// Index returns the prune index of a table's cached entries, built at
// its last refresh. It is immutable: a refresh replaces it.
func (c *Cache) Index(table string) (*Index, error) {
	c.mu.RLock()
	x, ok := c.indexes[table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotCached, table)
	}
	return x, nil
}

// RefreshedAt reports when the table's cache was last rebuilt.
func (c *Cache) RefreshedAt(table string) (time.Duration, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.refreshed[table]
	return ts, ok
}

// Invalidate drops a table's cached metadata.
func (c *Cache) Invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.indexes, table)
	delete(c.refreshed, table)
}

// PruneGranularity selects how much of the cached metadata pruning may
// use (ablation A1).
type PruneGranularity int

// Pruning granularities.
const (
	// PrunePartitionsOnly uses only hive partition values, like a
	// Hive-metastore-backed engine.
	PrunePartitionsOnly PruneGranularity = iota
	// PruneFiles additionally applies per-file column statistics —
	// the finer granularity Big Metadata tracks.
	PruneFiles
)

// Prune returns the cached files that could contain rows matching all
// predicates, using partition values and (at PruneFiles granularity)
// per-file column statistics: the table's Index pruned on the heap. It
// never touches the object store.
func (c *Cache) Prune(table string, preds []colfmt.Predicate, g PruneGranularity) ([]FileEntry, error) {
	x, err := c.Index(table)
	if err != nil {
		return nil, err
	}
	return x.Prune(nil, preds, g), nil
}

// FileCanMatch reports whether a file's metadata admits rows matching
// every predicate — the prune kernel over a one-file list. For each
// predicate:
//   - a file with the predicate's column as a hive partition key is
//     decided by the value, parsed as the literal's type (one that does
//     not parse prunes nothing);
//   - otherwise, at PruneFiles granularity, by the file's statistics on
//     the column (colfmt.Predicate.StatsCanSatisfy's rules; no
//     statistics prune nothing).
//
// Integers compare exactly, everything else as Value.Compare orders it.
func FileCanMatch(e FileEntry, preds []colfmt.Predicate, g PruneGranularity) bool {
	return len(PruneList(nil, []FileEntry{e}, preds, g)) == 1
}

// ParsePartitionValue reads a hive partition value (the text after
// "name=" in an object key) as type t: what pruning compares with a
// predicate and what a read injects as the partition column. A number
// that does not parse is NULL.
func ParsePartitionValue(s string, t vector.Type) vector.Value {
	switch t {
	case vector.Int64, vector.Timestamp:
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
			return vector.NullValue
		}
		return vector.Value{Type: t, I: v}
	case vector.Float64:
		var v float64
		if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
			return vector.NullValue
		}
		return vector.FloatValue(v)
	case vector.Bool:
		return vector.BoolValue(s == "true")
	default:
		return vector.StringValue(s)
	}
}

// TableStats aggregates cached stats for planner use (§3.4: the Read
// API returns these to external engines).
type TableStats struct {
	Files       int64
	Rows        int64
	TotalBytes  int64
	ColumnStats map[string]colfmt.ColumnStats
}

// Stats merges all file entries into table-level statistics.
func (c *Cache) Stats(table string) (TableStats, error) {
	x, err := c.Index(table)
	if err != nil {
		return TableStats{}, err
	}
	return MergeStats(x.files), nil
}

// MergeStats folds file entries into table-level statistics.
func MergeStats(entries []FileEntry) TableStats {
	ts := TableStats{ColumnStats: make(map[string]colfmt.ColumnStats)}
	for _, e := range entries {
		ts.Files++
		ts.Rows += e.RowCount
		ts.TotalBytes += e.Size
		for col, st := range e.ColumnStats {
			if cur, ok := ts.ColumnStats[col]; ok {
				st = cur.Merge(st)
			}
			ts.ColumnStats[col] = st
		}
	}
	return ts
}
