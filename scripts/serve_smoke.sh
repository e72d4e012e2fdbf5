#!/bin/sh
# serve_smoke.sh — the `make serve-smoke` end-to-end gate.
#
# Builds iadmd and iadmload into a temp dir, starts the daemon at the
# acceptance shape (N=1024) on an ephemeral port, and drives two load
# phases, each under `iadmload -check` (non-zero throughput, zero request
# errors, zero server 5xx, and no SSDT request on the slow path: zero
# server-side SSDT misses and coalesced joins, from the very first
# request):
#
#   1. singles: ~2s of /route traffic with 8 workers and 1% fault churn;
#   2. batch-heavy: mixed /route/batch sizes (singletons, sub-block,
#      one-block, and non-multiple-of-64 shapes), answered with tags
#      alone and expanded into paths by the client's bit-sliced kernel,
#      with -check additionally requiring every answered item's path to
#      have n+1 switches and run from its src to its dst.
#
# Finishes by delivering SIGTERM and requiring a clean drain.
#
# Phase 3 then starts a second daemon tuned for overload rehearsal — a
# tiny slow-path admission bound (-admission-max) plus an artificial
# per-compute cost (-slow-cost) standing in for a larger fabric — and
# floods it with pure-TSDT traffic at several times the slow path's
# capacity. `iadmload -overload -check` enforces the saturation contract:
# sheds observed (429s with Retry-After), at least -min-overload times
# saturation offered, zero 5xx, successes still flowing, and a bounded
# client p99. That daemon too must drain cleanly under SIGTERM.
set -eu

GO=${GO:-go}

tmp=$(mktemp -d)
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
        wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building iadmd and iadmload"
$GO build -o "$tmp/iadmd" ./cmd/iadmd
$GO build -o "$tmp/iadmload" ./cmd/iadmload

echo "serve-smoke: starting iadmd -n 1024 on an ephemeral port"
"$tmp/iadmd" -n 1024 -addr 127.0.0.1:0 -portfile "$tmp/port" >"$tmp/iadmd.log" 2>&1 &
daemon_pid=$!

# The daemon writes the bound host:port atomically once it is listening.
i=0
while [ ! -s "$tmp/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never wrote $tmp/port" >&2
        cat "$tmp/iadmd.log" >&2
        exit 1
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: daemon exited during startup" >&2
        cat "$tmp/iadmd.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/port")

echo "serve-smoke: phase 1, singles"
"$tmp/iadmload" -addr "$addr" -workers 8 -duration 2s -churn 0.01 -check

echo "serve-smoke: phase 2, batch-heavy (mix 1,3,64,65,200)"
"$tmp/iadmload" -addr "$addr" -workers 8 -duration 2s \
    -churn 0.01 -batch-mix 1,3,64,65,200 -check

echo "serve-smoke: SIGTERM, expecting a clean drain"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/iadmd.log" >&2
    exit 1
fi
daemon_pid=""
if ! grep -q drained "$tmp/iadmd.log"; then
    echo "serve-smoke: no drain line in the daemon log" >&2
    cat "$tmp/iadmd.log" >&2
    exit 1
fi

echo "serve-smoke: phase 3, overload (admission max 8, slow-cost 2ms)"
"$tmp/iadmd" -n 1024 -addr 127.0.0.1:0 -portfile "$tmp/port2" \
    -admission-max 8 -slow-cost 2ms \
    >"$tmp/iadmd-overload.log" 2>&1 &
daemon_pid=$!
i=0
while [ ! -s "$tmp/port2" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: overload daemon never wrote $tmp/port2" >&2
        cat "$tmp/iadmd-overload.log" >&2
        exit 1
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: overload daemon exited during startup" >&2
        cat "$tmp/iadmd-overload.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr2=$(cat "$tmp/port2")

"$tmp/iadmload" -addr "$addr2" -workers 16 -duration 2s \
    -tsdt 1 -zipf 1 -overload -min-overload 4 -max-p99us 20000 -check

echo "serve-smoke: SIGTERM to the overload daemon, expecting a clean drain"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: overload daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/iadmd-overload.log" >&2
    exit 1
fi
daemon_pid=""
if ! grep -q drained "$tmp/iadmd-overload.log"; then
    echo "serve-smoke: no drain line in the overload daemon log" >&2
    cat "$tmp/iadmd-overload.log" >&2
    exit 1
fi

echo "serve-smoke: ok"
