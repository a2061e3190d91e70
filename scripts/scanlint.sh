#!/bin/sh
# scanlint: one verified data-file reader. Fails if a colfmt reader or
# colfmt.Verify is applied to object bytes outside internal/scan: a
# second fetch -> verify -> decode path is how the Read API and the DML
# rewrites came to skip the generation check, the quarantine gate and
# the refetch that queries had. Allowed files are listed, with reasons,
# in scripts/scanlint.allow; tests are exempt.
set -eu
cd "$(dirname "$0")/.."

allow=$(grep -v '^#' scripts/scanlint.allow | grep -v '^$')
bad=$(grep -rnE 'colfmt\.(NewVectorizedReader|NewRowReader|Verify)\(' --include='*.go' \
    --exclude='*_test.go' --exclude-dir=scan . | sed 's|^\./||' | while IFS= read -r line; do
    ok=
    for prefix in $allow; do
        case "$line" in "$prefix"*) ok=1 ;; esac
    done
    [ -n "$ok" ] || printf '%s\n' "$line"
done)
if [ -n "$bad" ]; then
    echo "scanlint: data-file bytes decoded or verified outside internal/scan:" >&2
    printf '%s\n' "$bad" >&2
    echo "read through scan.Reader (Fetch / Read / ReadBatch / Verify), or add the file to scripts/scanlint.allow with a reason" >&2
    exit 1
fi
echo "scanlint: ok"
