#!/bin/sh
# gatecheck: every `go test ... -run '<pattern>' <package>` recipe line
# in the Makefile must still select at least one test. A test that is
# renamed or moves to another package otherwise empties its gate
# silently: `go test -run` over zero tests prints "ok".
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

empty=$(grep -E "^	.*-run '[^']+'" Makefile | grep -vF "'^\$\$'" | while IFS= read -r line; do
    pat=$(printf '%s\n' "$line" | sed -E "s/.*-run '([^']+)'.*/\1/")
    pkg=$(printf '%s\n' "$line" | grep -oE '\./[A-Za-z0-9_./]+' | tail -1)
    tags=$(printf '%s\n' "$line" | grep -oE '\-tags [A-Za-z0-9_,]+' || true)
    # shellcheck disable=SC2086
    if ! $GO test $tags -list "$pat" "$pkg" | grep -q '^Test'; then
        printf "  -run '%s' %s\n" "$pat" "$pkg"
    fi
done)
if [ -n "$empty" ]; then
    echo "gatecheck: Makefile gate(s) that match no test:" >&2
    printf '%s\n' "$empty" >&2
    exit 1
fi
echo "gatecheck: ok"
