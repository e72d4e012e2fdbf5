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
#      client p50 latency is measured straight at one backend and through
#      the router in 3 alternating rounds, and the best routed p50 may
#      exceed the best direct one by at most 15 percent. Every request
#      costs a -slow-cost compute, i.e. the overhead is judged against
#      real slow-path work; alternating keeps host drift from counting
#      as router overhead.
#
#   3. fast path: a fresh 3-backend fleet with no -slow-cost, behind a
#      router with iadmfleet's defaults, serves SSDT singles; client p50 is measured the same alternating way, and
#      the best routed p50 may be at most 4x the best direct one. This is a
#      sanity bound on the router's added latency with no slow-path
#      work to hide behind, not a regression gate: on a shared 2-core
#      host the ratio moves with the host's load by more than a change
#      to the router does. The routed single's cost is gated by its
#      allocation count instead (TestFleetRoutedSingleAllocs).
#
#   4. mixed: the same 3 backends, behind a fresh router, serve 4
#      named partitions of mixed singles/batch traffic while fault/repair
#      churn is confined to partition p0 (-churn-net). `iadmload -check`
#      enforces zero request errors, zero 5xx and no SSDT request on the
#      slow path (merged admission tickets equal merged TSDT
#      computations); the router's /metrics must then show p0's epoch
#      advanced while every other partition stayed at epoch 0 (fault
#      fan-out invalidates exactly the faulted partition's replicas —
#      Theorems 3.1/3.2 end to end), and its fleet.backend_latency /route and /route/batch counts
#      must equal the sums of the backends' own endpoint counts (the
#      histograms merge exactly). The router drains first, then every
#      backend, each logging a clean drain line.
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

# alternate_p50 TAG DIRECT_ADDR ROUTED_ADDR ROUTED_EXTRA SEED0 ARGS... —
# run iadmload with ARGS for 3 rounds, each straight at one backend and
# then through the router, so drift of the shared host hits both sides
# alike. Round r seeds both sides with SEED0+r; ROUTED_EXTRA (split on
# spaces) is added on the routed side only. Sets best_direct and
# best_routed to each side's best p50 in microseconds.
alternate_p50() {
    tag=$1 d_addr=$2 r_addr=$3 r_extra=$4 seed0=$5
    shift 5
    best_direct=""
    best_routed=""
    round=1
    while [ "$round" -le 3 ]; do
        for side in direct routed; do
            addr=$d_addr extra=""
            if [ "$side" = routed ]; then addr=$r_addr extra=$r_extra; fi
            out="$tmp/$tag-$side.out"
            # shellcheck disable=SC2086 # extra is a flag list
            if ! "$tmp/iadmload" -addr "$addr" $extra "$@" -seed $((seed0 + round)) -check >"$out"; then
                cat "$out" >&2
                echo "fleet-smoke: $tag round $round $side failed its -check" >&2
                exit 1
            fi
            p50=$(p50_us "$out")
            echo "fleet-smoke: $tag round $round $side p50=${p50}us"
            eval "best=\$best_${side}"
            best=$(awk -v a="$best" -v b="$p50" 'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }')
            eval "best_${side}=$best"
        done
        round=$((round + 1))
    done
}

echo "fleet-smoke: building iadmd, iadmfleet and iadmload"
$GO build -o "$tmp/iadmd" ./cmd/iadmd
$GO build -o "$tmp/iadmfleet" ./cmd/iadmfleet
$GO build -o "$tmp/iadmload" ./cmd/iadmload

# --- Phase 1: capacity -----------------------------------------------------

echo "fleet-smoke: phase 1, capacity (admission 3, slow-cost 5ms)"
"$tmp/iadmd" -n 1024 -addr 127.0.0.1:0 -portfile "$tmp/single.port" \
    -admission-max 3 -slow-cost 5ms >"$tmp/single.log" 2>&1 &
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
        -admission-max 3 -slow-cost 5ms >"$tmp/cap$bk.log" 2>&1 &
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
alternate_p50 overhead "$(cat "$tmp/cap0.port")" "$caprt_addr" "-nets 4" 302 \
    -workers 2 -duration 1500ms -tsdt 1 -zipf 1

echo "fleet-smoke: p50 overhead best direct=${best_direct}us routed=${best_routed}us"
if ! awk -v d="$best_direct" -v r="$best_routed" -v pct=15 \
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
alternate_p50 fast-path "$fast_direct_addr" "$fastrt_addr" "" 700 \
    -workers 1 -duration 1s -tsdt 0 -zipf 1

echo "fleet-smoke: fast-path best p50 direct=${best_direct}us routed=${best_routed}us"
if ! awk -v d="$best_direct" -v r="$best_routed" \
    'BEGIN { exit !(d > 0 && r <= d * 4) }'; then
    echo "fleet-smoke: routed fast-path p50 exceeded 4x direct" >&2
    exit 1
fi
drain_one "$fastrt_pid" "$tmp/fastrt.log" "fast-path router"

# --- Phase 4: mixed traffic with partition-confined churn ------------------

echo "fleet-smoke: phase 4, mixed load with churn confined to p0"
"$tmp/iadmfleet" -backends "$backends" -addr 127.0.0.1:0 -portfile "$tmp/mixrt.port" \
    -retry-budget 0.1 >"$tmp/mixrt.log" 2>&1 &
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

# Exact latency merge: the router's fleet.backend_latency is the bucket-
# by-bucket merge of the backends' endpoint histograms, so its /route and
# /route/batch counts must equal the sums of the backends' own counts.
# The load has stopped, so scraping /metrics moves neither count.
for ep in /route /route/batch; do
    want=0
    for addr in $(echo "$backends" | tr ',' ' '); do
        n=$(curl -fsS "http://$addr/metrics" | jq --arg ep "$ep" '.endpoints[$ep].count // 0')
        want=$((want + n))
    done
    got=$(jq --arg ep "$ep" '.fleet.backend_latency[$ep].count // -1' "$tmp/mixrt.metrics")
    echo "fleet-smoke: backend_latency[$ep].count $got, backends' sum $want"
    if [ "$got" -ne "$want" ]; then
        echo "fleet-smoke: merged $ep latency count $got != backends' sum $want" >&2
        exit 1
    fi
done

echo "fleet-smoke: draining router, then backends"
drain_one "$mixrt_pid" "$tmp/mixrt.log" "router"
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$mix${bk}_pid"
    drain_one "$pid" "$tmp/mix$bk.log" "backend $bk"
    bk=$((bk + 1))
done
echo "fleet-smoke: ok"
