#!/bin/sh
# obslint: keep metrics in the registry. Flags new bespoke counter
# fields (int64 struct fields named like counters) declared outside
# internal/obs — new metrics belong in the obs.Registry behind dotted
# names, not ad-hoc struct fields with hand-rolled accessors.
#
# Pre-existing fields (engine.ExecStats etc.) are grandfathered in
# scripts/obslint.allow; add a line there ONLY with a reason in the
# commit message.
set -eu
cd "$(dirname "$0")/.."

pattern='^[[:space:]]+[A-Z][A-Za-z]*(Count|Counts|Hits|Misses|Calls|Retries|Faults|Errors|Injected|Scanned|Replays)[[:space:]]+int64'

matches=$(grep -rnE "$pattern" --include='*.go' \
    --exclude-dir=obs --exclude='*_test.go' internal/ cmd/ 2>/dev/null \
    | sed 's/:[0-9]*:/: /' | awk '{print $1, $2}' | sort -u) || true

new=$(printf '%s\n' "$matches" | comm -13 scripts/obslint.allow - || true)
if [ -n "$new" ]; then
    echo "obslint: new raw counter field(s) outside internal/obs:" >&2
    printf '%s\n' "$new" >&2
    echo "route them through the obs.Registry (see DESIGN.md Observability)" >&2
    exit 1
fi

# Second pass: every literal metric name registered on the obs.Registry
# — resolved to a handle or counted by name with Add — must be
# documented (backticked) in DESIGN.md, so the system.metrics table
# stays self-describing. The trailing [,)] in the pattern limits this to
# literal names; dynamically composed names (the
# serve.tenant.<principal>.* family) are exempt by construction.
undocumented=
for name in $(grep -rhoE '\.(Counter|Gauge|Histogram|Add)\("[a-z0-9_.]+"[,)]' \
    --include='*.go' --exclude-dir=obs --exclude='*_test.go' internal/ cmd/ 2>/dev/null \
    | sed -E 's/.*\("([a-z0-9_.]+)".*/\1/' | sort -u); do
    if ! grep -q "\`$name\`" DESIGN.md; then
        undocumented="$undocumented $name"
    fi
done
if [ -n "$undocumented" ]; then
    echo "obslint: registered metric name(s) missing from DESIGN.md:" >&2
    for name in $undocumented; do echo "  $name" >&2; done
    echo "add them to the metric name reference (DESIGN.md, Queryable telemetry & SLOs)" >&2
    exit 1
fi
# Third pass: a counter name is dotted, "<component>.<what>". A bare
# short name ("retries") is the legacy sim.Meter convention growing
# back: it would collide across components in the one shared registry.
short=$(grep -rnE '\.Add\("[a-z0-9_]+",' --include='*.go' \
    --exclude-dir=obs --exclude='*_test.go' internal/ cmd/ examples/ ./*.go 2>/dev/null) || true
if [ -n "$short" ]; then
    echo "obslint: counter name(s) without a component prefix:" >&2
    printf '%s\n' "$short" >&2
    echo "name them <component>.<what> (see DESIGN.md, Metric naming)" >&2
    exit 1
fi
echo "obslint: ok"
