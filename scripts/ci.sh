#!/usr/bin/env bash
# CI gate: hermetic build + full test suite, no network access.
#
# The workspace has zero external dependencies, so everything below must
# succeed with --offline on a machine that has never populated a cargo
# registry cache. Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

# Optional stage selector. Without an argument the full hermetic gate
# below runs (build + tests + golden/warm/chaos/checkpoint/sweep/shard
# smokes + bench-smoke). `bench` and `bench-smoke` run the performance scorecard
# gate on its own: re-measure the pinned kernel suite and the
# all_experiments cold/warm probes, then compare against the committed
# BENCH_0007.json (see DESIGN.md "Performance methodology"). Schema
# drift is always fatal; a kernel or probe regression beyond the
# tolerance band fails the stage. Fast mode shrinks the probe budget,
# so probes are structurally checked but not compared there — kernels
# still are, with a wider band to absorb shared-runner noise.
bench_stage() {
    local fast="$1" tol="$2"
    echo "==> cargo build --release (scorecard + all_experiments)"
    cargo build --release --offline -p ramp-bench \
        --bin scorecard --bin all_experiments
    if [ "$fast" = 1 ]; then
        echo "==> RAMP_BENCH_FAST=1 scorecard check BENCH_0007.json --tol $tol"
        RAMP_BENCH_FAST=1 target/release/scorecard check BENCH_0007.json --tol "$tol"
    else
        echo "==> scorecard check BENCH_0007.json --tol $tol"
        target/release/scorecard check BENCH_0007.json --tol "$tol"
    fi
}
# Sweep gate (`sweep-smoke`, also part of the full pipeline): the pinned
# 64-point examples/sweep_frontier.toml grid must produce byte-identical
# artifacts at 1 and 4 threads from fresh stores, and warm re-sweeps at
# 4 and 1 threads against the populated store must perform zero
# simulations and reproduce the cold artifact byte for byte — asserted
# both from the sweep's own `[sweep]` summary line and from the store's
# run count and entry bytes (`ramp-store stats` ` runs=` and ` bytes=`)
# staying put (see DESIGN.md §12). Both stores must then pass
# `ramp-store verify`: every entry on disk decodes.
sweep_smoke_stage() {
    local dir before after threads
    dir="$(mktemp -d)"
    # shellcheck disable=SC2064
    trap "rm -rf '$dir'" RETURN

    echo "==> sweep-smoke: cold 64-point sweep @ RAMP_THREADS=1"
    RAMP_STORE_DIR="$dir/store1" RAMP_THREADS=1 target/release/ramp-sweep \
        run examples/sweep_frontier.toml --out "$dir/t1.json" > "$dir/t1.out"
    echo "==> sweep-smoke: cold 64-point sweep @ RAMP_THREADS=4"
    RAMP_STORE_DIR="$dir/store4" RAMP_THREADS=4 target/release/ramp-sweep \
        run examples/sweep_frontier.toml --out "$dir/t4.json" > "$dir/t4.out"
    cmp "$dir/t1.json" "$dir/t4.json" \
        || { echo "FAIL: sweep artifact differs across thread counts"; exit 1; }
    grep -qE '^\[sweep\] points=64 ' "$dir/t1.out" \
        || { echo "FAIL: sweep did not evaluate the pinned 64 points"; exit 1; }

    before="$(target/release/ramp-store stats --dir "$dir/store1" | grep -oE ' (runs|bytes)=[0-9]+' | tr -d '\n')"
    for threads in 4 1; do
        echo "==> sweep-smoke: warm re-sweep @ RAMP_THREADS=$threads performs zero simulations"
        RAMP_STORE_DIR="$dir/store1" RAMP_THREADS=$threads target/release/ramp-sweep \
            run examples/sweep_frontier.toml --out "$dir/warm$threads.json" > "$dir/warm$threads.out"
        grep -qE ' cached=64 simulated=0 profile_sims=0 ' "$dir/warm$threads.out" \
            || { echo "FAIL: warm re-sweep simulated instead of hitting the store"; exit 1; }
        cmp "$dir/t1.json" "$dir/warm$threads.json" \
            || { echo "FAIL: warm sweep artifact differs from cold artifact"; exit 1; }
    done
    after="$(target/release/ramp-store stats --dir "$dir/store1" | grep -oE ' (runs|bytes)=[0-9]+' | tr -d '\n')"
    [ "$before" = "$after" ] \
        || { echo "FAIL: warm re-sweep changed the store ($before -> $after)"; exit 1; }
    for store in store1 store4; do
        echo "==> sweep-smoke: ramp-store verify $store"
        target/release/ramp-store verify --dir "$dir/$store" \
            || { echo "FAIL: ramp-store verify found damaged entries in $store"; exit 1; }
    done
}
# Sharded-fleet gate (`shard-smoke`, also part of the full pipeline):
# three `ramp-served` shards fronted by `ramp-router` with replication
# factor 2 (see DESIGN.md §13). The pinned 64-point
# examples/sweep_fleet.toml grid is swept cold through the router, the
# hinted-handoff mirror queue is drained, and then (a) a warm re-sweep
# must perform zero simulations with a byte-identical artifact, and
# (b) after SIGKILLing one shard the sweep must *still* perform zero
# simulations — every key's surviving replica is warm — produce the
# same bytes again, and leave a non-zero `router.failover` counter in
# the router's /stats. The probe interval is set long so the dead shard
# stays in the map during the post-kill sweep: the bytes must survive
# per-request failover, not just health-check eviction.
shard_smoke_stage() {
    local dir raddr addr pending stats accepted completed failed expired deadline i
    dir="$(mktemp -d)"
    # shellcheck disable=SC2064
    trap "rm -rf '$dir'" RETURN

    counter() { # counter VALUE_NAME < stats-json
        grep -o "\"$1\": {\"type\":\"counter\",\"value\":[0-9]*" \
            | head -n1 | grep -o '[0-9]*$' || echo 0
    }

    echo "==> shard-smoke: booting 3 shards + router (replicas=2)"
    SHARD_PIDS=()
    for i in 0 1 2; do
        RAMP_STORE_DIR="$dir/shard$i-store" RAMP_INSTS=20000 \
            target/release/ramp-served --smoke --addr 127.0.0.1:0 \
            --workers 2 --queue 64 --port-file "$dir/shard$i.port" \
            > "$dir/shard$i.out" 2> "$dir/shard$i.err" &
        SHARD_PIDS+=($!)
    done
    for i in 0 1 2; do
        for _ in $(seq 1 100); do [ -s "$dir/shard$i.port" ] && break; sleep 0.1; done
        [ -s "$dir/shard$i.port" ] || { echo "FAIL: shard $i never wrote its port file"; exit 1; }
    done
    target/release/ramp-router --addr 127.0.0.1:0 --replicas 2 --probe-ms 5000 \
        --shard "$(cat "$dir/shard0.port")" --shard "$(cat "$dir/shard1.port")" \
        --shard "$(cat "$dir/shard2.port")" --port-file "$dir/router.port" \
        > "$dir/router.out" 2> "$dir/router.err" &
    ROUTER_PID=$!
    for _ in $(seq 1 100); do [ -s "$dir/router.port" ] && break; sleep 0.1; done
    [ -s "$dir/router.port" ] || { echo "FAIL: router never wrote its port file"; exit 1; }
    raddr="$(cat "$dir/router.port")"

    echo "==> shard-smoke: cold 64-point sweep through the router"
    target/release/ramp-sweep run examples/sweep_fleet.toml \
        --remote "$raddr" --out "$dir/cold.json" > "$dir/cold.out"
    grep -qE '^\[sweep\] points=64 ' "$dir/cold.out" \
        || { echo "FAIL: fleet sweep did not evaluate the pinned 64 points"; exit 1; }

    echo "==> shard-smoke: draining hinted-handoff mirrors"
    deadline=$((SECONDS + 60))
    while :; do
        pending="$(target/release/ramp-client --addr "$raddr" stats \
            | grep -o '"handoff_pending": {"type":"gauge","value":[0-9.]*' \
            | grep -o '[0-9.]*$' || echo 1)"
        [ "${pending%%.*}" = 0 ] && break
        [ "$SECONDS" -lt "$deadline" ] \
            || { echo "FAIL: handoff queue never drained ($pending pending)"; exit 1; }
        sleep 0.2
    done
    for i in 0 1 2; do # mirrors are real jobs; wait for every shard to finish them
        addr="$(cat "$dir/shard$i.port")"
        deadline=$((SECONDS + 60))
        while :; do
            stats="$(target/release/ramp-client --addr "$addr" stats)"
            accepted="$(echo "$stats" | counter accepted)"
            completed="$(echo "$stats" | counter completed)"
            failed="$(echo "$stats" | counter failed)"
            expired="$(echo "$stats" | counter expired)"
            [ "$accepted" = "$((completed + failed + expired))" ] && break
            [ "$SECONDS" -lt "$deadline" ] \
                || { echo "FAIL: shard $i never drained ($accepted accepted, $completed done)"; exit 1; }
            sleep 0.2
        done
    done

    echo "==> shard-smoke: warm fleet sweep performs zero simulations"
    target/release/ramp-sweep run examples/sweep_fleet.toml \
        --remote "$raddr" --out "$dir/warm.json" > "$dir/warm.out"
    grep -qE ' cached=64 simulated=0 profile_sims=0$' "$dir/warm.out" \
        || { echo "FAIL: warm fleet sweep simulated instead of hitting the shards"; exit 1; }
    cmp "$dir/cold.json" "$dir/warm.json" \
        || { echo "FAIL: warm fleet artifact differs from cold artifact"; exit 1; }

    echo "==> shard-smoke: SIGKILL shard 1, re-sweep must be byte-identical"
    kill -9 "${SHARD_PIDS[1]}"
    wait "${SHARD_PIDS[1]}" 2>/dev/null || true
    target/release/ramp-sweep run examples/sweep_fleet.toml \
        --remote "$raddr" --out "$dir/postkill.json" > "$dir/postkill.out"
    grep -qE ' cached=64 simulated=0 profile_sims=0$' "$dir/postkill.out" \
        || { echo "FAIL: post-kill sweep simulated — the surviving replicas were cold"; exit 1; }
    cmp "$dir/cold.json" "$dir/postkill.json" \
        || { echo "FAIL: artifact differs after killing a shard"; exit 1; }
    target/release/ramp-client --addr "$raddr" stats > "$dir/router-stats.json"
    grep -q '"failover": {"type":"counter","value":[1-9]' "$dir/router-stats.json" \
        || { echo "FAIL: router recorded no failover after the kill"; exit 1; }

    echo "==> shard-smoke: graceful teardown"
    target/release/ramp-client --addr "$raddr" shutdown > /dev/null
    wait "$ROUTER_PID" || { echo "FAIL: router exited non-zero"; exit 1; }
    for i in 0 2; do
        target/release/ramp-client --addr "$(cat "$dir/shard$i.port")" shutdown > /dev/null
        wait "${SHARD_PIDS[$i]}" || { echo "FAIL: shard $i exited non-zero"; exit 1; }
    done
}
case "${1:-all}" in
bench) bench_stage 0 1.6; exit 0 ;;
bench-smoke) bench_stage 1 2.5; exit 0 ;;
sweep-smoke)
    echo "==> cargo build --release (ramp-sweep + ramp-store)"
    cargo build --release --offline -p ramp-sweep --bin ramp-sweep
    cargo build --release --offline -p ramp-serve --bin ramp-store
    sweep_smoke_stage
    exit 0
    ;;
shard-smoke)
    echo "==> cargo build --release (fleet binaries)"
    cargo build --release --offline -p ramp-serve \
        --bin ramp-served --bin ramp-router --bin ramp-client
    cargo build --release --offline -p ramp-sweep --bin ramp-sweep
    shard_smoke_stage
    exit 0
    ;;
all) ;;
*)
    echo "usage: $0 [bench|bench-smoke|sweep-smoke|shard-smoke]" >&2
    exit 2
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --workspace --offline

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

# The benchmark package (benchmark/) is its own workspace, so the line
# above does not reach it: run its self-tests (statistics, the compare
# rule, metric catalogue vs BENCHMARK.json, build-profile parity).
echo "==> benchmark harness self-tests"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Golden-snapshot determinism gate: the telemetry JSON must be
# byte-identical to tests/golden/smoke_stats.json at both thread counts,
# so a thread-count leak into the payload fails fast here.
echo "==> golden snapshots @ RAMP_THREADS=1"
RAMP_THREADS=1 cargo test -q --offline -p ramp --test golden_stats

echo "==> golden snapshots @ RAMP_THREADS=4"
RAMP_THREADS=4 cargo test -q --offline -p ramp --test golden_stats

# Warm-start gate: a second invocation of an experiment binary must be
# served entirely from the run store — byte-identical stdout and zero
# simulations. The count comes from the `[resolve]` section of the
# RAMP_STATS=table epilogue (how many runs each tier answered); a cold
# run over a fresh store must report simulations there, so the check
# can fail. The table epilogue must also show actual store hits.
tier() { # tier NAME < table-output
    sed -n '/^\[resolve\]/,/^\[[a-z]/p' | grep -oE "^  $1 = [0-9]+" | grep -oE '[0-9]+$'
}
warm_start_gate() { # warm_start_gate BIN ENV... (outputs in $STORE_DIR/BIN-*)
    local bin="$1" out="$STORE_DIR/$1"
    shift
    echo "==> warm-start: byte-identity and zero simulations ($bin)"
    env "$@" RAMP_STORE_DIR="$out-store" RAMP_STATS=json "target/release/$bin" \
        > "$out-cold.out" 2> "$out-cold.err"
    env "$@" RAMP_STORE_DIR="$out-store" RAMP_STATS=json "target/release/$bin" \
        > "$out-warm.out" 2> "$out-warm.err"
    cmp "$out-cold.out" "$out-warm.out" \
        || { echo "FAIL: $bin warm stdout differs from cold stdout"; exit 1; }
    env "$@" RAMP_STORE_DIR="$out-fresh" RAMP_STATS=table "target/release/$bin" \
        > "$out-fresh.table" 2>/dev/null
    [ "$(tier simulated < "$out-fresh.table")" -gt 0 ] \
        || { echo "FAIL: $bin cold run reported no simulations"; exit 1; }
    env "$@" RAMP_STORE_DIR="$out-store" RAMP_STATS=table "target/release/$bin" \
        > "$out-warm.table" 2>/dev/null
    for name in simulated resumed profile_sims; do
        [ "$(tier $name < "$out-warm.table")" = 0 ] \
            || { echo "FAIL: $bin warm run reported $name > 0"; exit 1; }
    done
    grep -A6 '\[store\]' "$out-warm.table" | grep -qE 'hits = [1-9]' \
        || { echo "FAIL: $bin store hits not reported in table epilogue"; exit 1; }
}
STORE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_DIR"' EXIT
WARM_ENV=(RAMP_WORKLOADS=lbm,mcf RAMP_INSTS=100000)
warm_start_gate fig05_perf_static "${WARM_ENV[@]}"
warm_start_gate all_experiments RAMP_WORKLOADS=lbm,mcf RAMP_INSTS=20000

# Server smoke: ramp-served + ramp-client choreography — health, submit,
# poll, fetch-by-key, cached resubmit, a burst that must see one 429,
# then graceful drain-and-exit shutdown.
echo "==> server smoke (ramp-served / ramp-client)"
PORT_FILE="$STORE_DIR/port"
RAMP_STORE_DIR="$STORE_DIR/server-store" target/release/ramp-served \
    --smoke --addr 127.0.0.1:0 --workers 1 --queue 1 --port-file "$PORT_FILE" \
    2> "$STORE_DIR/served.err" &
SERVER_PID=$!
for _ in $(seq 1 100); do [ -s "$PORT_FILE" ] && break; sleep 0.1; done
[ -s "$PORT_FILE" ] || { echo "FAIL: server never wrote its port file"; exit 1; }
target/release/ramp-client --addr "$(cat "$PORT_FILE")" smoke
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero"; exit 1; }

# Chaos smoke: the same gates must hold under deterministic fault
# injection (RAMP_CHAOS, see DESIGN.md "Failure model & chaos testing").
# Fixed seeds keep the runs reproducible: injected store faults must
# degrade to cold-cache behavior with byte-identical stdout, deliberate
# on-disk damage must be quarantined by `ramp-store scrub`, and the
# server choreography must ride out injected resets via client retries.
echo "==> chaos-smoke: experiment under store faults (seed 101)"
CHAOS_DIR="$STORE_DIR/chaos-store"
env "${WARM_ENV[@]}" RAMP_STORE_DIR="$CHAOS_DIR" RAMP_STATS=json \
    RAMP_CHAOS="101:io=0.25,slow=1ms" target/release/fig05_perf_static \
    > "$STORE_DIR/chaos1.out" 2> "$STORE_DIR/chaos1.err"
cmp "$STORE_DIR/fig05_perf_static-cold.out" "$STORE_DIR/chaos1.out" \
    || { echo "FAIL: chaos stdout differs from fault-free stdout"; exit 1; }

# Besides a cut entry, plant the stray temp file a kill between a
# write's create and its rename leaves behind: scrub must reclaim it.
echo "==> chaos-smoke: scrub quarantines deliberate damage, reclaims a killed write's temp file"
VICTIM="$(ls "$CHAOS_DIR"/*.run 2>/dev/null | head -n1 || true)"
[ -n "$VICTIM" ] || { echo "FAIL: chaos store persisted nothing"; exit 1; }
head -c 7 "$VICTIM" > "$VICTIM.cut" && mv "$VICTIM.cut" "$VICTIM"
head -c 100 "$(ls "$CHAOS_DIR"/*.run | tail -n1)" > "$CHAOS_DIR/tmp-999999-0"
target/release/ramp-store scrub --dir "$CHAOS_DIR" > "$STORE_DIR/scrub.out"
cat "$STORE_DIR/scrub.out"
grep -qE ' quarantined=[1-9]' "$STORE_DIR/scrub.out" \
    || { echo "FAIL: scrub did not quarantine the damaged entry"; exit 1; }
grep -qE ' tmp=1 ' "$STORE_DIR/scrub.out" \
    || { echo "FAIL: scrub did not reclaim exactly the one stray temp file"; exit 1; }
[ ! -e "$CHAOS_DIR/tmp-999999-0" ] \
    || { echo "FAIL: stray temp file survived scrub"; exit 1; }

echo "==> chaos-smoke: healing replay (seed 202)"
env "${WARM_ENV[@]}" RAMP_STORE_DIR="$CHAOS_DIR" RAMP_STATS=json \
    RAMP_CHAOS="202:io=0.2" target/release/fig05_perf_static \
    > "$STORE_DIR/chaos2.out" 2>/dev/null
cmp "$STORE_DIR/fig05_perf_static-cold.out" "$STORE_DIR/chaos2.out" \
    || { echo "FAIL: healing replay differs from fault-free stdout"; exit 1; }

# Checkpoint-smoke: kill an experiment at its first checkpoint (the
# sim.checkpoint chaos site fires only after the segment is durable),
# verify the trail is visible to `ramp-store ckpt`, then resume against
# the same store — the resumed run must report the recovery on stderr,
# clean up its trail, and produce stdout byte-identical to an
# uninterrupted run of the same config. Needs more instructions than
# WARM_ENV so the paper config's 400k-cycle epoch actually fires.
CKPT_ENV=(RAMP_WORKLOADS=lbm,mcf RAMP_INSTS=400000 RAMP_STATS=json RAMP_CKPT_EPOCHS=1)

# ckpt_kill_resume BIN RESUMED [SEEDER]: the sequence above for
# target/release/BIN. RESUMED is a regex the `[ckpt] resumed` line must
# match after the prefix; SEEDER, when given, first fills the store
# without faults, so the kill lands in BIN's own runs.
ckpt_kill_resume() {
    local bin=$1 resumed=$2 seeder=${3:-}
    local dir="$STORE_DIR/ckpt-$bin"
    echo "==> checkpoint-smoke: kill $bin at first checkpoint (seed 303), resume byte-identical"
    if [ -n "$seeder" ]; then
        env "${CKPT_ENV[@]}" RAMP_STORE_DIR="$dir" "target/release/$seeder" \
            > /dev/null 2> "$dir-seed.err"
    fi
    env "${CKPT_ENV[@]}" RAMP_STORE_DIR="$dir" RAMP_CHAOS="303:panic=1.0" \
        "target/release/$bin" > "$dir-kill.out" 2> "$dir-kill.err" || true
    target/release/ramp-store ckpt --dir "$dir" > "$dir-list.out"
    cat "$dir-list.out"
    grep -qE 'segments=[1-9]' "$dir-list.out" \
        || { echo "FAIL: killed $bin left no checkpoint segments"; exit 1; }
    env "${CKPT_ENV[@]}" RAMP_STORE_DIR="$dir" "target/release/$bin" \
        > "$dir-resume.out" 2> "$dir-resume.err"
    grep -qE "^\[ckpt\] resumed $resumed" "$dir-resume.err" \
        || { echo "FAIL: $bin resume did not report recovering from a checkpoint"; exit 1; }
    env "${CKPT_ENV[@]}" RAMP_STORE_DIR="$dir-baseline" "target/release/$bin" \
        > "$dir-base.out" 2>/dev/null
    cmp "$dir-base.out" "$dir-resume.out" \
        || { echo "FAIL: $bin resumed stdout differs from uninterrupted stdout"; exit 1; }
    target/release/ramp-store ckpt --dir "$dir" > "$dir-after.out"
    grep -q 'segments=0' "$dir-after.out" \
        || { echo "FAIL: $bin completed resume left checkpoint segments behind"; exit 1; }
}
ckpt_kill_resume fig05_perf_static ''
# Profiles come from fig02_avf first, so the kill and the resume hit
# migration runs: the engine, the copy backlog and the AVF tracker
# meet a real kill.
ckpt_kill_resume fig12_perf_mig '[a-z0-9]+/perf-fc ' fig02_avf

echo "==> chaos-smoke: server choreography under injected resets (seed 7)"
PORT_FILE2="$STORE_DIR/chaos-port"
RAMP_STORE_DIR="$STORE_DIR/chaos-server-store" RAMP_CHAOS="7:net=0.05,slow=2ms" \
    target/release/ramp-served --smoke --addr 127.0.0.1:0 --workers 1 --queue 1 \
    --port-file "$PORT_FILE2" 2> "$STORE_DIR/chaos-served.err" &
SERVER_PID=$!
for _ in $(seq 1 100); do [ -s "$PORT_FILE2" ] && break; sleep 0.1; done
[ -s "$PORT_FILE2" ] || { echo "FAIL: chaos server never wrote its port file"; exit 1; }
target/release/ramp-client --addr "$(cat "$PORT_FILE2")" --retries 8 --backoff-ms 10 smoke
wait "$SERVER_PID" || { echo "FAIL: chaos server exited non-zero"; exit 1; }

# Sweep determinism gate (binaries already built above).
sweep_smoke_stage

# Sharded-fleet gate (binaries already built above).
shard_smoke_stage

# Bench-smoke rides along with the full gate: the release binaries are
# already built above, so this only costs the fast kernel suite plus
# three 50k-instruction probe runs.
bench_stage 1 2.5

echo "CI OK"
