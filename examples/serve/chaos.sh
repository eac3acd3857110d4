#!/usr/bin/env sh
# Chaos smoke for pcie-served's hardening: boots the server with tight
# limits and checks the failure paths fail the right way — an oversized
# submission gets a clean 413, a deliberately slow client is cut off by
# the read deadline instead of holding a connection open, and a job
# that overruns its wall-clock budget lands in the dedicated "timeout"
# state (and its results answer 504) while a reasonable job still
# completes. A second server, with one job slot and no job deadline,
# then takes slow jobs until its queue is full: the next submission
# gets 503 with a Retry-After header.
#
# Run from the repository root:  sh examples/serve/chaos.sh
# Requires curl; uses jq when present (falls back to sed).
set -eu

PORT="${PORT:-18081}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"

cleanup() {
    for pid in ${SERVED_PID:-} ${QUEUE_PID:-}; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

field() { # field <json-file> <key>  -> numeric/string field value
    if command -v jq >/dev/null 2>&1; then
        jq -r ".$2" "$1"
    else
        sed -n "s/.*\"$2\":\"\{0,1\}\([^,\"}]*\)\"\{0,1\}.*/\1/p" "$1" | head -1
    fi
}

echo "==> building pcie-served"
go build -o "$WORK/pcie-served" ./cmd/pcie-served

echo "==> starting pcie-served with tight limits (max-body 4KiB, read-timeout 1s, job-timeout 1s)"
"$WORK/pcie-served" -addr "127.0.0.1:$PORT" -cache off -workers 1 \
    -max-body 4096 -read-timeout 1s -job-timeout 1s &
SERVED_PID=$!

for i in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && { echo "server never became healthy" >&2; exit 1; }
    sleep 0.2
done

echo "==> oversized submission gets 413"
head -c 8192 /dev/zero | tr '\0' 'x' >"$WORK/huge.json"
CODE="$(curl -s -o "$WORK/huge-resp.json" -w '%{http_code}' \
    -X POST --data-binary "@$WORK/huge.json" "$BASE/v1/sweeps")"
[ "$CODE" = 413 ] || { echo "oversized body got $CODE, want 413" >&2; exit 1; }
echo "    413: $(field "$WORK/huge-resp.json" error)"

echo "==> slow client is cut off by the read deadline"
# 64 KiB body at 1 KiB/s would take a minute; the 1s read deadline
# must end the request long before that (a fast 4xx or a dropped
# connection both count — what matters is that the connection is not
# held and the job is never accepted).
head -c 65536 /dev/zero | tr '\0' 'y' >"$WORK/slow.json"
START="$(date +%s)"
CODE="$(curl -s --limit-rate 1K --max-time 30 -o /dev/null -w '%{http_code}' \
    -X POST --data-binary "@$WORK/slow.json" "$BASE/v1/sweeps")" || true
ELAPSED=$(( $(date +%s) - START ))
[ "$ELAPSED" -lt 10 ] || { echo "slow client held the connection ${ELAPSED}s" >&2; exit 1; }
[ "$CODE" != 202 ] || { echo "slow oversized submission was accepted" >&2; exit 1; }
echo "    cut off after ${ELAPSED}s (HTTP $CODE)"

echo "==> overrunning job is reported as \"timeout\""
# 32 cells at ~0.3s each on one worker blows the 1s job deadline fast.
cat >"$WORK/slow-sweep.json" <<'SPEC'
{
  "name": "chaos-slow",
  "axes": [{"name": "seed", "values": [
    "1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16",
    "17","18","19","20","21","22","23","24","25","26","27","28","29","30","31","32"
  ]}],
  "base": {"bench": "lat_rd", "transfer": "64", "n": "1M", "window": "8K"}
}
SPEC
curl -fsS -X POST --data-binary "@$WORK/slow-sweep.json" "$BASE/v1/sweeps" >"$WORK/sub.json"
ID="$(field "$WORK/sub.json" id)"
STATE=
for i in $(seq 1 100); do
    curl -fsS "$BASE/v1/sweeps/$ID" >"$WORK/status.json"
    STATE="$(field "$WORK/status.json" state)"
    case "$STATE" in timeout|done|error|cancelled) break ;; esac
    sleep 0.3
done
[ "$STATE" = timeout ] || { echo "job ended in \"$STATE\", want \"timeout\"" >&2; exit 1; }
CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sweeps/$ID/results")"
[ "$CODE" = 504 ] || { echo "timed-out job's results got $CODE, want 504" >&2; exit 1; }
echo "    job $ID: state=timeout, results answer 504"

echo "==> a job within the budget still completes"
cat >"$WORK/fast-sweep.json" <<'SPEC'
{
  "name": "chaos-fast",
  "axes": [{"name": "transfer", "values": ["64", "128"]}],
  "base": {"bench": "lat_rd", "n": "2K", "window": "8K"}
}
SPEC
curl -fsS -X POST --data-binary "@$WORK/fast-sweep.json" "$BASE/v1/sweeps" >"$WORK/sub2.json"
ID2="$(field "$WORK/sub2.json" id)"
STATE=
for i in $(seq 1 100); do
    curl -fsS "$BASE/v1/sweeps/$ID2" >"$WORK/status2.json"
    STATE="$(field "$WORK/status2.json" state)"
    case "$STATE" in timeout|done|error|cancelled) break ;; esac
    sleep 0.2
done
[ "$STATE" = done ] || { echo "fast job ended in \"$STATE\", want \"done\"" >&2; exit 1; }
echo "    job $ID2 done"

echo "==> SIGTERM shuts down cleanly"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=

echo "==> a full queue answers 503 with Retry-After"
# One job slot and no job deadline (a 1s deadline would drain the
# queue while it fills): the first slow job runs for seconds, the next
# ones queue until the server holds its bound of queued or running jobs.
QPORT=$((PORT + 1))
"$WORK/pcie-served" -addr "127.0.0.1:$QPORT" -cache off -workers 1 -max-jobs 1 -quiet &
QUEUE_PID=$!
for i in $(seq 1 50); do
    curl -fsS "http://127.0.0.1:$QPORT/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && { echo "queue server never became healthy" >&2; exit 1; }
    sleep 0.2
done
CODE=
for i in $(seq 1 300); do
    CODE="$(curl -s -D "$WORK/queue-hdr.txt" -o "$WORK/queue-resp.json" -w '%{http_code}' \
        -X POST --data-binary "@$WORK/slow-sweep.json" "http://127.0.0.1:$QPORT/v1/sweeps")"
    [ "$CODE" = 202 ] || break
done
[ "$CODE" = 503 ] || { echo "submission $i got $CODE, want 503 once the queue is full" >&2; exit 1; }
grep -qi '^Retry-After:' "$WORK/queue-hdr.txt" || { echo "503 without a Retry-After header" >&2; exit 1; }
echo "    submission $i: 503, $(grep -i '^Retry-After:' "$WORK/queue-hdr.txt" | tr -d '\r'): $(field "$WORK/queue-resp.json" error)"
kill -TERM "$QUEUE_PID"
wait "$QUEUE_PID"
QUEUE_PID=
echo "==> chaos smoke OK"
