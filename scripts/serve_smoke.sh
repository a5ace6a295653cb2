#!/bin/sh
# serve-smoke: the fitsd end-to-end CI gate. Boots the daemon on an
# ephemeral port, submits a generated example firmware image twice through
# fitsctl/the client package, and asserts:
#   - both jobs return HTTP 200 results and the result JSON is byte-identical
#   - every analysis alert names its binary
#   - the second run hit the shared model cache (visible in /metrics)
#   - a diff of two different images completes, reuses some but not all
#     functions, and repeats byte-identically
#   - a diff round-trip (image against itself) completes, reports full
#     function reuse and no appeared alert (an empty [] list, not null),
#     repeats byte-identically, and shows up in /metrics
#   - a corpus round-trip (fwgen -multibin tree through fitsctl corpus)
#     completes, repeats byte-identically, and counts in fitsd_corpus_*
#   - /metrics is non-empty and counts the completions
#   - SIGTERM drains the daemon cleanly within the deadline
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=""

# Every exit path — success, fail(), set -e, or a delivered signal — must
# run through cleanup, or an aborted smoke leaks a fitsd listener that
# breaks the next `make ci`. The daemon gets a grace period to drain and
# release its socket before the hard kill, and is reaped so no zombie
# outlives the script.
cleanup() {
    status=$?
    if [ -n "${pid:-}" ] && kill -0 "$pid" 2>/dev/null; then
        kill -TERM "$pid" 2>/dev/null || true
        i=0
        while kill -0 "$pid" 2>/dev/null && [ "$i" -lt 20 ]; do
            i=$((i + 1))
            sleep 0.1
        done
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
    return "$status"
}
trap cleanup EXIT
# Convert signals into plain exits so the EXIT trap runs exactly once and
# the script still dies with the conventional 128+signo status.
trap 'exit 129' HUP
trap 'exit 130' INT
trap 'exit 143' TERM

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

echo "serve-smoke: building fitsd, fitsctl, fwgen"
$GO build -o "$tmp/bin/" ./cmd/fitsd ./cmd/fitsctl ./cmd/fwgen

"$tmp/bin/fwgen" -out "$tmp/corpus" -vendor NETGEAR >/dev/null
fw=$(ls "$tmp"/corpus/*.fw | sed -n 1p)
fw2=$(ls "$tmp"/corpus/*.fw | sed -n 2p)
[ -n "$fw" ] && [ -n "$fw2" ] || fail "fwgen produced fewer than two firmware images"

"$tmp/bin/fitsd" -listen 127.0.0.1:0 -addr-file "$tmp/addr" -workers 2 -v &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "fitsd did not write its address within 10s"
    kill -0 "$pid" 2>/dev/null || fail "fitsd exited during startup"
    sleep 0.1
done
base="http://$(cat "$tmp/addr")"
echo "serve-smoke: fitsd up at $base, submitting $(basename "$fw") twice"

ctl() { "$tmp/bin/fitsctl" -addr "$base" "$@"; }

ctl submit -wait -its -scan -out "$tmp/r1.json" "$fw" || fail "first submission"
ctl submit -wait -its -scan -out "$tmp/r2.json" "$fw" || fail "second submission"
[ -s "$tmp/r1.json" ] || fail "first result is empty"
cmp -s "$tmp/r1.json" "$tmp/r2.json" || fail "resubmitted image produced different result JSON"
alerts=$(grep -o '"site":' "$tmp/r1.json" | wc -l)
named=$(grep -o '{"binary":"[^"]*","site":' "$tmp/r1.json" | wc -l)
[ "$alerts" -eq "$named" ] || fail "only $named of $alerts analysis alerts carry \"binary\""

echo "serve-smoke: diffing $(basename "$fw") against $(basename "$fw2") twice"
ctl diff -wait -out "$tmp/p1.json" "$fw" "$fw2" || fail "first version-pair diff submission"
ctl diff -wait -out "$tmp/p2.json" "$fw" "$fw2" || fail "second version-pair diff submission"
[ -s "$tmp/p1.json" ] || fail "first version-pair diff result is empty"
cmp -s "$tmp/p1.json" "$tmp/p2.json" || fail "resubmitted version-pair diff produced different result JSON"
ratio=$(grep -o '"reuse_ratio":[^,}]*' "$tmp/p1.json" | cut -d: -f2)
awk -v r="$ratio" 'BEGIN { exit !(r > 0 && r < 1) }' \
    || fail "version-pair diff reuse ratio ${ratio:-missing} is not strictly between 0 and 1"

echo "serve-smoke: diffing $(basename "$fw") against itself twice"
ctl diff -wait -out "$tmp/d1.json" "$fw" "$fw" || fail "first diff submission"
ctl diff -wait -out "$tmp/d2.json" "$fw" "$fw" || fail "second diff submission"
[ -s "$tmp/d1.json" ] || fail "first diff result is empty"
cmp -s "$tmp/d1.json" "$tmp/d2.json" || fail "resubmitted diff produced different result JSON"
grep -q '"reuse_ratio":1' "$tmp/d1.json" \
    || fail "self-diff did not reuse every function: $(cat "$tmp/d1.json")"
grep -q '"appeared":\[\]' "$tmp/d1.json" \
    || fail "self-diff has no empty appeared list: $(cat "$tmp/d1.json")"

echo "serve-smoke: corpus round trip over a generated multi-binary tree"
"$tmp/bin/fwgen" -multibin "$tmp/xtree" >/dev/null
ctl corpus -wait -out "$tmp/x1.json" "$tmp/xtree" || fail "first corpus submission"
ctl corpus -wait -out "$tmp/x2.json" "$tmp/xtree" || fail "second corpus submission"
[ -s "$tmp/x1.json" ] || fail "first corpus result is empty"
cmp -s "$tmp/x1.json" "$tmp/x2.json" || fail "resubmitted corpus produced different result JSON"
grep -q '"cross_alerts":' "$tmp/x1.json" || fail "corpus result has no cross_alerts field"

metrics=$(ctl metrics)
[ -n "$metrics" ] || fail "/metrics is empty"
echo "$metrics" | grep -q '^fitsd_jobs_completed_total 8$' \
    || fail "expected fitsd_jobs_completed_total 8, got: $(echo "$metrics" | grep jobs_completed)"
echo "$metrics" | grep -q '^fitsd_corpus_jobs_total 2$' \
    || fail "expected fitsd_corpus_jobs_total 2, got: $(echo "$metrics" | grep corpus_jobs)"
echo "$metrics" | grep -q '^fitsd_corpus_binaries_total [1-9]' \
    || fail "corpus jobs analyzed no binaries: $(echo "$metrics" | grep corpus_binaries)"
echo "$metrics" | grep -q '^fitsd_model_cache_hits_total [1-9]' \
    || fail "second submission recorded no model-cache hits"
echo "$metrics" | grep -q '^fits_diff_reuse_ratio 1$' \
    || fail "diff reuse-ratio gauge missing or not 1: $(echo "$metrics" | grep diff_reuse)"
echo "$metrics" | grep -q '^fitsd_diff_analyze_new_seconds_count 4$' \
    || fail "diff stage histograms missing: $(echo "$metrics" | grep diff_analyze)"

echo "serve-smoke: sending SIGTERM, expecting a clean drain"
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 300 ] || fail "fitsd did not drain within 30s of SIGTERM"
    sleep 0.1
done
wait "$pid" 2>/dev/null || fail "fitsd exited non-zero after SIGTERM"
pid=""

echo "serve-smoke: crash-recovery round trip with a persistent data dir"
"$tmp/bin/fitsd" -listen 127.0.0.1:0 -addr-file "$tmp/addr2" -workers 2 \
    -data-dir "$tmp/data" -v &
pid=$!
i=0
while [ ! -s "$tmp/addr2" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "persistent fitsd did not write its address within 10s"
    kill -0 "$pid" 2>/dev/null || fail "persistent fitsd exited during startup"
    sleep 0.1
done
base="http://$(cat "$tmp/addr2")"

ctl submit -wait -its -scan -out "$tmp/r3.json" "$fw" || fail "persistent submission"
[ -s "$tmp/r3.json" ] || fail "persistent result is empty"
cmp -s "$tmp/r1.json" "$tmp/r3.json" || fail "persistent run produced different result JSON"

# SIGKILL: no drain, no journal close — recovery must work from what was
# fsynced before the crash.
echo "serve-smoke: SIGKILL, restarting on the same -data-dir"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

"$tmp/bin/fitsd" -listen 127.0.0.1:0 -addr-file "$tmp/addr3" -workers 2 \
    -data-dir "$tmp/data" -v &
pid=$!
i=0
while [ ! -s "$tmp/addr3" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "restarted fitsd did not write its address within 10s"
    kill -0 "$pid" 2>/dev/null || fail "restarted fitsd exited during startup"
    sleep 0.1
done
base="http://$(cat "$tmp/addr3")"

# The pre-crash job must have been replayed from the journal...
ctl list | grep -q 'done' || fail "replayed job list lost the completed job: $(ctl list)"
# ...and resubmitting the same bytes+options must be served from disk,
# byte-identical, without re-running the analysis.
ctl submit -wait -its -scan -out "$tmp/r4.json" "$fw" || fail "post-restart submission"
cmp -s "$tmp/r3.json" "$tmp/r4.json" || fail "disk-served result differs from the pre-crash result"
ctl metrics | grep -q '^fitsd_disk_hits_total [1-9]' \
    || fail "resubmission after restart did not hit the disk store: $(ctl metrics | grep disk)"

echo "serve-smoke: draining the persistent fitsd"
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 300 ] || fail "persistent fitsd did not drain within 30s of SIGTERM"
    sleep 0.1
done
wait "$pid" 2>/dev/null || fail "persistent fitsd exited non-zero after SIGTERM"
pid=""

echo "serve-smoke: OK (identical results, cache hits, diff and corpus round-trips, clean drain, crash recovery)"
