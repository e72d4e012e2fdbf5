#!/bin/sh
# fleet_smoke.sh — the `make fleet-smoke` end-to-end gate for the fleet
# router (cmd/iadmfleet over internal/fleet).
#
# Four phases, two clusters:
#
#   1. capacity: a single slow-path-bound iadmd (tiny fixed admission
#      bound + -slow-cost per fresh TSDT compute, so capacity is
#      sleep-bound and the comparison survives a single-core host) is
#      flooded with pure-TSDT overload traffic; then a 3-backend fleet
#      built from identically-tuned daemons takes the same flood through
#      the router. The fleet's success throughput (the ok/s line) must
#      be at least 2x the single daemon's — the scatter of partitions
#      over backends must actually multiply slow-path slots.
#
#   2. overhead: against the same fleet, now under light load (fewer
#      workers than any backend's admission slots, so nothing sheds),
#      client p50 latency is measured twice — straight at one backend,
#      then through the router — and the router may add at most 15
#      percent. Every request costs a -slow-cost compute, i.e. the
#      overhead is judged against real slow-path work.
#
#   3. fast path: a fresh 3-backend fleet with no -slow-cost, behind a
#      router with iadmfleet's defaults (no hedging), serves SSDT
#      singles; client p50 is measured straight at one
#      backend and through the router in 3 alternating rounds, and the
#      best routed p50 may be at most 4x the best direct one. This is a
#      sanity bound on the router's added latency with no slow-path
#      work to hide behind, not a regression gate: on a shared 2-core
#      host the ratio moves with the host's load by more than a change
#      to the router does. The routed single's cost is gated by its
#      allocation count instead (TestFleetRoutedSingleAllocs).
#
#   4. mixed: the same 3 backends, behind a hedging router, serve 4
#      named partitions of mixed singles/batch traffic while fault/repair
#      churn is confined to partition p0 (-churn-net). `iadmload -check`
#      enforces zero request errors, zero 5xx and no SSDT request on the
#      slow path (zero merged SSDT misses and coalesced joins); the
#      router's /metrics must then show p0's epoch advanced while every
#      other partition stayed at epoch 0 (fault fan-out invalidates
#      exactly the faulted partition's replicas — Theorems 3.1/3.2 end to
#      end). The router drains first, then every backend, each logging a
#      clean drain line.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# wait_port PORTFILE PID LOG — block until the daemon writes its bound
# address, failing loudly if it dies first.
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "fleet-smoke: $3: never wrote $1" >&2
            cat "$3" >&2
            exit 1
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "fleet-smoke: daemon behind $1 exited during startup" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# drain_one PID LOG NAME — SIGTERM, require a zero exit and a drain log
# line, and drop the pid from the cleanup list.
drain_one() {
    kill -TERM "$1"
    if ! wait "$1"; then
        echo "fleet-smoke: $3 exited non-zero on SIGTERM" >&2
        cat "$2" >&2
        exit 1
    fi
    if ! grep -q drained "$2"; then
        echo "fleet-smoke: no drain line in the $3 log" >&2
        cat "$2" >&2
        exit 1
    fi
    next=""
    for pid in $pids; do
        [ "$pid" = "$1" ] || next="$next $pid"
    done
    pids=$next
}

# ok_per_sec FILE — extract the ok/s number from an iadmload report.
ok_per_sec() {
    awk '/^success:/ { v = $(NF-1); gsub(/[()]/, "", v); print v }' "$1"
}

# p50_us FILE — extract the client p50 from an iadmload report.
p50_us() {
    awk '/^latency/ { for (i = 1; i <= NF; i++) if ($i ~ /^p50=/) { sub(/^p50=/, "", $i); print $i } }' "$1"
}

echo "fleet-smoke: building iadmd, iadmfleet and iadmload"
$GO build -o "$tmp/iadmd" ./cmd/iadmd
$GO build -o "$tmp/iadmfleet" ./cmd/iadmfleet
$GO build -o "$tmp/iadmload" ./cmd/iadmload

# --- Phase 1: capacity -----------------------------------------------------

echo "fleet-smoke: phase 1, capacity (admission 3, slow-cost 5ms)"
"$tmp/iadmd" -n 1024 -addr 127.0.0.1:0 -portfile "$tmp/single.port" \
    -admission-max 3 -admission-min 3 \
    -slow-cost 5ms >"$tmp/single.log" 2>&1 &
single_pid=$!
pids="$pids $single_pid"
wait_port "$tmp/single.port" "$single_pid" "$tmp/single.log"
single_addr=$(cat "$tmp/single.port")

"$tmp/iadmload" -addr "$single_addr" -workers 16 -duration 2s \
    -nets 8 -tsdt 1 -zipf 1 -seed 101 -overload -check \
    | tee "$tmp/cap-single.out"
single_ok=$(ok_per_sec "$tmp/cap-single.out")

bk=0
backends=""
while [ "$bk" -lt 3 ]; do
    "$tmp/iadmd" -n 1024 -addr 127.0.0.1:0 -portfile "$tmp/cap$bk.port" \
        -admission-max 3 -admission-min 3 \
        -slow-cost 5ms >"$tmp/cap$bk.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    eval "cap${bk}_pid=$pid"
    bk=$((bk + 1))
done
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$cap${bk}_pid"
    wait_port "$tmp/cap$bk.port" "$pid" "$tmp/cap$bk.log"
    backends="$backends,$(cat "$tmp/cap$bk.port")"
    bk=$((bk + 1))
done
backends=${backends#,}

"$tmp/iadmfleet" -backends "$backends" -addr 127.0.0.1:0 -portfile "$tmp/caprt.port" \
    >"$tmp/caprt.log" 2>&1 &
caprt_pid=$!
pids="$pids $caprt_pid"
wait_port "$tmp/caprt.port" "$caprt_pid" "$tmp/caprt.log"
caprt_addr=$(cat "$tmp/caprt.port")

"$tmp/iadmload" -addr "$caprt_addr" -workers 16 -duration 2s \
    -nets 8 -tsdt 1 -zipf 1 -seed 202 -overload -check \
    | tee "$tmp/cap-fleet.out"
fleet_ok=$(ok_per_sec "$tmp/cap-fleet.out")

echo "fleet-smoke: capacity single=$single_ok ok/s, fleet=$fleet_ok ok/s (need >= 2.0x)"
if ! awk -v a="$fleet_ok" -v b="$single_ok" -v m=2.0 \
    'BEGIN { exit !(b > 0 && a >= m * b) }'; then
    echo "fleet-smoke: fleet ok/s did not reach 2.0x the single daemon" >&2
    exit 1
fi

# --- Phase 2: router latency overhead --------------------------------------

# Light load on the same slow-path-bound fleet: fewer workers than one
# backend's admission slots, so nothing sheds and every request pays one
# -slow-cost compute.
echo "fleet-smoke: phase 2, p50 overhead (budget 15%)"
direct_addr=$(cat "$tmp/cap0.port")
"$tmp/iadmload" -addr "$direct_addr" -workers 2 -duration 1500ms \
    -tsdt 1 -zipf 1 -seed 303 -check | tee "$tmp/ovh-direct.out"
direct_p50=$(p50_us "$tmp/ovh-direct.out")

"$tmp/iadmload" -addr "$caprt_addr" -workers 2 -duration 1500ms \
    -nets 4 -tsdt 1 -zipf 1 -seed 404 -check | tee "$tmp/ovh-routed.out"
routed_p50=$(p50_us "$tmp/ovh-routed.out")

echo "fleet-smoke: p50 direct=${direct_p50}us routed=${routed_p50}us"
if ! awk -v d="$direct_p50" -v r="$routed_p50" -v pct=15 \
    'BEGIN { exit !(d > 0 && r <= d * (1 + pct / 100)) }'; then
    echo "fleet-smoke: router added more than 15% p50 latency" >&2
    exit 1
fi

drain_one "$caprt_pid" "$tmp/caprt.log" "capacity router"
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$cap${bk}_pid"
    drain_one "$pid" "$tmp/cap$bk.log" "capacity backend $bk"
    bk=$((bk + 1))
done
drain_one "$single_pid" "$tmp/single.log" "single baseline"

# --- Phase 3: routed fast path ---------------------------------------------

echo "fleet-smoke: phase 3, routed fast path (bound 4x direct p50)"
bk=0
backends=""
while [ "$bk" -lt 3 ]; do
    "$tmp/iadmd" -n 1024 -addr 127.0.0.1:0 -portfile "$tmp/mix$bk.port" >"$tmp/mix$bk.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    eval "mix${bk}_pid=$pid"
    bk=$((bk + 1))
done
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$mix${bk}_pid"
    wait_port "$tmp/mix$bk.port" "$pid" "$tmp/mix$bk.log"
    backends="$backends,$(cat "$tmp/mix$bk.port")"
    bk=$((bk + 1))
done
backends=${backends#,}

"$tmp/iadmfleet" -backends "$backends" -addr 127.0.0.1:0 -portfile "$tmp/fastrt.port" \
    >"$tmp/fastrt.log" 2>&1 &
fastrt_pid=$!
pids="$pids $fastrt_pid"
wait_port "$tmp/fastrt.port" "$fastrt_pid" "$tmp/fastrt.log"
fastrt_addr=$(cat "$tmp/fastrt.port")

# Pure SSDT singles (Theorem 3.1: the tag is the destination, so no
# request computes anything), after a warm-up run on both paths that
# opens their connections, so the comparison is transport and proxy cost
# alone. One worker, so nothing queues. Direct and routed runs alternate
# for 3 rounds and the bound compares the best p50 of each side, so a
# passing stall of the shared host cannot fail it.
fast_direct_addr=$(cat "$tmp/mix0.port")
for addr in "$fast_direct_addr" "$fastrt_addr"; do
    "$tmp/iadmload" -addr "$addr" -workers 1 -duration 500ms \
        -tsdt 0 -zipf 1 -seed 606 -check >/dev/null
done
fast_direct_p50=""
fast_routed_p50=""
round=1
while [ "$round" -le 3 ]; do
    for side in direct routed; do
        if [ "$side" = direct ]; then addr=$fast_direct_addr; else addr=$fastrt_addr; fi
        "$tmp/iadmload" -addr "$addr" -workers 1 -duration 1s \
            -tsdt 0 -zipf 1 -seed $((700 + round)) -check >"$tmp/fast-$side.out"
        p50=$(p50_us "$tmp/fast-$side.out")
        echo "fleet-smoke: fast-path round $round $side p50=${p50}us"
        eval "best=\$fast_${side}_p50"
        best=$(awk -v a="$best" -v b="$p50" 'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }')
        eval "fast_${side}_p50=$best"
    done
    round=$((round + 1))
done

echo "fleet-smoke: fast-path best p50 direct=${fast_direct_p50}us routed=${fast_routed_p50}us"
if ! awk -v d="$fast_direct_p50" -v r="$fast_routed_p50" \
    'BEGIN { exit !(d > 0 && r <= d * 4) }'; then
    echo "fleet-smoke: routed fast-path p50 exceeded 4x direct" >&2
    exit 1
fi
drain_one "$fastrt_pid" "$tmp/fastrt.log" "fast-path router"

# --- Phase 4: mixed traffic with partition-confined churn ------------------

echo "fleet-smoke: phase 4, mixed load with churn confined to p0"
"$tmp/iadmfleet" -backends "$backends" -addr 127.0.0.1:0 -portfile "$tmp/mixrt.port" \
    -hedge-after 50ms -retry-budget 0.1 >"$tmp/mixrt.log" 2>&1 &
mixrt_pid=$!
pids="$pids $mixrt_pid"
wait_port "$tmp/mixrt.port" "$mixrt_pid" "$tmp/mixrt.log"
mixrt_addr=$(cat "$tmp/mixrt.port")

"$tmp/iadmload" -addr "$mixrt_addr" -workers 8 -duration 2s \
    -nets 4 -churn 0.02 -churn-net p0 -batch-mix 1,3,64,200 \
    -seed 505 -check

# Epoch isolation across the merged scrape: churn was confined to p0, so
# only p0's epoch may have advanced — a non-zero epoch anywhere else
# would mean the fan-out invalidated a partition it had no business
# touching.
curl -fsS "http://$mixrt_addr/metrics" >"$tmp/mixrt.metrics"
p0_epoch=$(jq '[.networks[] | select(.net == "p0") | .epoch] | first // 0' "$tmp/mixrt.metrics")
other_epochs=$(jq '[.networks[] | select(.net != "p0") | .epoch] | add // 0' "$tmp/mixrt.metrics")
scrape_errs=$(jq '.fleet.scrape_errors' "$tmp/mixrt.metrics")
echo "fleet-smoke: p0 epoch $p0_epoch, other partitions' epoch sum $other_epochs, scrape errors $scrape_errs"
if [ "$p0_epoch" -eq 0 ]; then
    echo "fleet-smoke: churn ran but p0's epoch never advanced" >&2
    exit 1
fi
if [ "$other_epochs" -ne 0 ]; then
    echo "fleet-smoke: a partition other than p0 was invalidated" >&2
    exit 1
fi
if [ "$scrape_errs" -ne 0 ]; then
    echo "fleet-smoke: router failed to scrape some backends" >&2
    exit 1
fi

echo "fleet-smoke: draining router, then backends"
drain_one "$mixrt_pid" "$tmp/mixrt.log" "router"
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$mix${bk}_pid"
    drain_one "$pid" "$tmp/mix$bk.log" "backend $bk"
    bk=$((bk + 1))
done
echo "fleet-smoke: ok"
