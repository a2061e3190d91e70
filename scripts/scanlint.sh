#!/bin/sh
# scanlint: one owner per data-file path, read side and write side.
#
# Rule "scan": one verified data-file reader. Fails if a colfmt reader
# — over file bytes, or over a footer already in hand (ReaderFor,
# RowReaderFor) — or colfmt.Verify is opened outside internal/scan: a
# second fetch -> verify -> decode path is how the Read API and the DML
# rewrites came to skip the generation check, the quarantine gate and
# the refetch that queries had.
#
# Rule "commit": one commit protocol. Fails if a journal intent or abort
# is appended, CommitTxIf is called, or a FileEntry is minted for a
# just-PUT data file (bigmeta.NewFileEntry) outside internal/bigmeta
# (bigmeta.CommitFiles / PutDataFile): a second intent -> PUT -> seal
# sequence is how five of six committers came to seal without
# validation, without an abort record or without an intent at all.
#
# Rule "project": one decode, of the columns asked for. Fails if
# ReadBatch or Resident is called with a literal nil column list — every
# column of the file — outside the rewrites (DML, Optimize), which must
# carry whole rows: a whole-file decode on a query path is how a scan
# came to decode sixteen columns to sum one.
#
# Rule "plan": one scan plan. Fails if file pruning — the prune kernel
# over a table's columnar index (bigmeta.Index.Prune, and its wrappers
# Cache.Prune, bigmeta.PruneList, bigmeta.FileCanMatch) — or a
# principal's row filters (RowFilterFor) are consulted outside
# internal/scan, internal/bigmeta and internal/security: which files can
# hold a match, and which predicates
# may be put to stored values at all, is decided once per table read, in
# scan.Plan — a second enumerate -> prune -> column-set path is how the
# Read API came to ignore the staleness bound and both paths to prune on
# the stored values of a column the reader sees masked.
#
# Rule "codec": one column codec. Fails if a byte-reader decode
# (bytes.Reader, binary.ReadUvarint / ReadVarint) appears in a non-test
# file of internal/vector: wire.go walks the input slice, and the
# byte-reader codec it replaced is kept only as the parity reference in
# wire_test.go — a second decoder beside the first is how column chunks
# and Read API payloads would come to accept different bytes.
#
# Rule "assemble": one assembly. Fails if engine.New,
# storageapi.NewServer, blmt.New, txn.NewManager or bigmeta.NewCache is
# called in a non-test file outside internal/core: a lakehouse is built
# by core.New, a second engine over it by Lakehouse.NewEngine and a
# restarted one by Lakehouse.Recover — hand-wired harness worlds are how
# the experiments came to run without the journal production runs with,
# and the crash sweeps to restart through a path no deployment takes.
#
# Rule "fanout": one simulated-parallel stage. Fails if a sim track is
# opened (.StartTrack) in a non-test file outside internal/sim: parallel
# work runs through sim.Clock.OnTracks, which bounds the workers, folds
# every lane into the clock even when an item fails and joins every
# error in item order — hand-rolled pools are how a failing Big Metadata
# refresh or ML.DECODE_IMAGE came to charge nothing and to report
# whichever error arrived first.
#
# Rule "footer": one chunk map. Fails if colfmt.ReadFooter is called in
# a non-test file outside internal/colfmt, internal/bigmeta and
# internal/scan: a file's footer is learned where it is committed,
# refreshed or peeked, kept as bigmeta.FileEntry.Layout, and read
# through by scan.Reader — a second footer parse beside the map is how
# every cold read came to GET the whole object and decode its footer
# JSON again.
#
# Rule "job": one job-row builder. Fails if a systables.JobRecord
# literal is written in a non-test file outside internal/systables and
# internal/engine: every system.jobs row — serve's done, failed and
# shed statements, an Omni job — is built by engine.JobRecord from the
# statement's QueryContext; hand-built rows are how a row came to miss
# its SQL text, its state or its error class depending on the door the
# statement came through.
#
# Rule "record": one recorder per door. Fails if Provider.RecordJob is
# called in a non-test file outside internal/systables, internal/serve
# and internal/omni: a statement is recorded by the door it came
# through, and the engine only executes — a second recorder is how the
# jobs ring came to count an experiment's seed loader as a tenant and
# to time every served DML statement at zero.
#
# Rule "parse": one parse per statement. Fails if sqlparse.Parse or
# sqlparse.Lex is called outside internal/sqlparse and internal/engine:
# every door parses through the engine's statement cache (Engine.Parse),
# so a statement is lexed once and bound to its shape's template or
# parsed once — a second parse in a front door is how Lakehouse.Query
# came to parse every statement twice.
#
# Rule "concat": one copy point in the engine. Fails if
# vector.FilterConcatWorkers or FilterConcatWith is called in a non-test
# file of internal/engine other than rel.go, whose materialize is the
# engine's one concatenation: a scan hands its surviving rows on as
# selections, and an operator that needs a contiguous batch asks
# materialize for it — a second copy point is how every scan came to
# copy every surviving row of every column before any operator ran.
# This rule takes no allowlist entries.
#
# Allowed files are listed per rule, with reasons, in
# scripts/scanlint.allow; tests are exempt. An entry that excuses no
# line fails the sweep too.
set -eu
cd "$(dirname "$0")/.."

# check <rule> <regex> <owner-dirs> <advice>
check() {
    allow=$(grep -v '^#' scripts/scanlint.allow | awk -v r="$1" '$1 == r { print $2 }')
    owners=
    for dir in $3; do owners="$owners --exclude-dir=$dir"; done
    # shellcheck disable=SC2086 # owners is a list of flags
    hits=$(grep -rnE "$2" --include='*.go' --exclude='*_test.go' $owners . | sed 's|^\./||')
    bad=$(printf '%s\n' "$hits" | while IFS= read -r line; do
        [ -n "$line" ] || continue
        ok=
        for prefix in $allow; do
            case "$line" in "$prefix"*) ok=1 ;; esac
        done
        [ -n "$ok" ] || printf '%s\n' "$line"
    done)
    if [ -n "$bad" ]; then
        echo "scanlint($1): $4:" >&2
        printf '%s\n' "$bad" >&2
        echo "or add the file to scripts/scanlint.allow under rule '$1' with a reason" >&2
        exit 1
    fi
    # An exception that excuses no line would silently excuse the next
    # one written there.
    for prefix in $allow; do
        if ! printf '%s\n' "$hits" | awk -v p="$prefix" 'index($0, p) == 1 { found = 1 } END { exit !found }'; then
            echo "scanlint($1): stale allowlist entry '$1 $prefix' excuses no line; delete it from scripts/scanlint.allow" >&2
            exit 1
        fi
    done
}

check scan 'colfmt\.(NewVectorizedReader|NewRowReader|ReaderFor|RowReaderFor|Verify)\(' scan \
    'data-file bytes decoded or verified outside internal/scan; read through scan.Reader (Fetch / Read / ReadBatch / Verify)'
check commit '\.(AppendIntent|AppendAbort|CommitTxIf|NewFileEntry)\(' bigmeta \
    'commit protocol step outside internal/bigmeta; commit data files through bigmeta.CommitFiles (PutDataFile for a loader outside a journal)'
check project '\.(ReadBatch\([^,]+,[^,]+,[^,]+|Resident\([^,]+,[^,]+), *nil *[,)]' scan \
    'whole-file decode (nil column list) outside a rewrite; pass the scan.Columns the caller reads (scan.ColumnsOf, or a scan.Plan'"'"'s)'
check plan '(\.Prune|\.PruneList|FileCanMatch|RowFilterFor)\(' 'scan bigmeta security' \
    'file pruning or row-filter lookup outside internal/scan; build a scan.Plan (Planner.Plan) and read its Files / Columns / Pushed'
check assemble '(engine\.New|storageapi\.NewServer|blmt\.New|txn\.NewManager|bigmeta\.NewCache)\(' core \
    'lakehouse service wired outside internal/core; build the deployment with core.New, another engine with Lakehouse.NewEngine, a restart with Lakehouse.Recover'
check fanout '\.StartTrack\(' sim \
    'simulated worker track opened outside internal/sim; run the parallel stage through sim.Clock.OnTracks'
check footer 'colfmt\.ReadFooter\(' 'colfmt bigmeta scan' \
    'footer parsed outside internal/colfmt, internal/bigmeta and internal/scan; read the chunk map Big Metadata holds (bigmeta.FileEntry.Layout) through scan.Reader'
check job 'systables\.JobRecord\{' 'systables engine' \
    'system.jobs row built outside internal/engine; build it with engine.JobRecord over the statement'"'"'s QueryContext'
check record '\.RecordJob\(' 'systables serve omni' \
    'system.jobs row recorded outside a door; record it in serve (cursor close, failure, shed) or Omni (SubmitWith), never in the engine'
check parse 'sqlparse\.(Parse|Lex)\(' 'sqlparse engine' \
    'SQL parsed outside the engine'"'"'s statement cache; parse through Engine.Parse'
if bad=$(grep -nE 'FilterConcat(Workers|With)\(' internal/engine/*.go | grep -v '_test\.go:' | grep -v '^internal/engine/rel\.go:'); then
    echo "scanlint(concat): a surviving-row copy in internal/engine outside materialize (rel.go); hand the rows on as a rel and call Engine.materialize where a batch is needed:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi
if bad=$(grep -nE 'bytes\.(New)?Reader|binary\.Read(Uv|V)arint' internal/vector/*.go | grep -v '_test\.go:'); then
    echo "scanlint(codec): byte-reader decode in internal/vector; decode through wire.go's cursor (wireReader):" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi
echo "scanlint: ok"
