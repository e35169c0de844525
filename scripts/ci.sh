#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, the full test suite, and the malcheck
# plan corpus. Run from the repository root; exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Daemons started below and not yet waited for. A failed stage must not
# leave one running (it would hold this script's stdout pipe open forever
# for whoever is capturing it); a stage that reaped its own clears the list.
daemons=()
trap 'kill ${daemons[*]:-} 2>/dev/null || true' EXIT

# wait_port FILE: give a daemon up to 5 s to write its bound address.
wait_port() {
    for _ in $(seq 1 100); do [ -s "$1" ] && break; sleep 0.05; done
}

# spawn_daemon CMD...: run CMD in the background on an ephemeral port
# (every daemon takes --port-file); its pid is left in $daemon_pid and the
# address it bound in $daemon_addr. Environment given to the call (such as
# MAMMOTH_TRACE=...) reaches the daemon.
spawn_daemon() {
    local pf
    pf=$(mktemp -u /tmp/mammoth_port.XXXXXX)
    "$@" --port-file "$pf" &
    daemon_pid=$!
    daemons+=("$daemon_pid")
    wait_port "$pf"
    daemon_addr=$(cat "$pf")
    rm -f "$pf"
}

# stop_daemon ADDR PID WHO: graceful shutdown over the wire; the daemon
# must exit 0.
stop_daemon() {
    ./target/release/mammoth-cli --addr "$1" -c "SHUTDOWN" >/dev/null
    wait "$2" || { echo "$3 exited non-zero"; exit 1; }
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> unsafe gate: the dispatch call in mammoth-algebra, and nothing else"
# The workspace is safe Rust but for one call: the one into the
# `target_feature` instantiation of a multiversioned kernel
# (crates/algebra/src/multiversion.rs; policy in DESIGN.md). The keyword in
# code position anywhere else, or twice there, fails the build.
unsafe_use='\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)'
dispatch=crates/algebra/src/multiversion.rs
stray=$(grep -rnE --include='*.rs' "$unsafe_use" crates/*/src src | grep -v "^$dispatch:" || true)
[ -z "$stray" ] || { echo "unsafe outside $dispatch:"; echo "$stray"; exit 1; }
[ "$(grep -cE "$unsafe_use" "$dispatch")" -eq 1 ] \
    || { echo "$dispatch must hold exactly one unsafe block"; exit 1; }

echo "==> pass-order gate: no optimizer pipeline is assembled outside crates/mal"
# The pass order is written once (crates/mal/src/optimizer.rs, `passes`);
# a session picks one of the public views of it and builds none of its own.
stray=$(grep -rn --include='*.rs' 'Pipeline::new()' crates/*/src | grep -v '^crates/mal/' || true)
[ -z "$stray" ] || { echo "a pass list hand-built beside mammoth-mal's:"; echo "$stray"; exit 1; }

echo "==> serving gate: mammoth-server links no evidence crate"
# What reproduces a paper claim but serves no request (DESIGN.md's "serves /
# evidence" column) stays out of the daemons. `compression` is linked
# through `vectorized`'s `Column::Packed` and allowed until ROADMAP 4(b)
# decides whether a SQL plan ever produces one.
evidence='recycler|cracking|bufferpool|volcano|cache|xpath|stream|workload|core|bench'
linked=$(cargo tree --offline -p mammoth-server -e normal --prefix none \
    | grep -E "^mammoth-($evidence) " | sort -u || true)
[ -z "$linked" ] || { echo "mammoth-server links evidence crates:"; echo "$linked"; exit 1; }

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
# The root package's tests/ are the integration tiers; the crate-level
# suites (SQL session and compiler, the algebra kernels' oracle
# differentials, the wire protocol, storage's corrupt-image proptests,
# the coordinator) only run with --workspace.
cargo test -q --offline --workspace
# The compile path's allocation budget is pinned by tests/compile_budget.rs
# (in the run above). A release build takes the checked pipeline's other
# branch — verify once on exit, keeping a copy of the input for the replay
# — so the budget is held there too. Counts, not timings: no wall clock.
cargo test -q --offline --release --test compile_budget
# The dense selection kernel's AVX2 arm only takes its vectorized shape in
# an optimized build: hold it to the scalar loop there as well.
cargo test -q --offline --release -p mammoth-algebra select::tests::dispatch

echo "==> benchmark package: every workload at --quick sizes against its oracle"
# benchmark/ is its own workspace, so the root test run never builds it; a
# changed public signature in crates/* would otherwise break it unseen
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> crash matrix: kill-point sweep under seeded workloads"
for seed in 1 2 3 4; do
    echo "    MAMMOTH_FAULT_SEED=$seed"
    MAMMOTH_FAULT_SEED=$seed cargo test -q --test durability
done

echo "==> engines agree under the MAMMOTH_THREADS matrix"
for threads in 1 4; do
    echo "    MAMMOTH_THREADS=$threads"
    MAMMOTH_THREADS=$threads cargo test -q --test engines_agree
done

echo "==> trace matrix: profiled test runs must emit a validating trace"
trace_file=$(mktemp -u /tmp/mammoth_trace.XXXXXX.jsonl)
MAMMOTH_TRACE=$trace_file cargo test -q --test sql_end_to_end
MAMMOTH_TRACE=$trace_file MAMMOTH_THREADS=2 cargo test -q --test engines_agree
MAMMOTH_TRACE=$trace_file cargo test -q --test durability
cargo run -q -p mammoth-types --bin tracecheck -- "$trace_file"
rm -f "$trace_file"

echo "==> server smoke: ephemeral port, queries, forced shed, traced shutdown"
srv_trace=$(mktemp -u /tmp/mammoth_srv_trace.XXXXXX.jsonl)
# Tiny capacity (1 worker, backlog 1) so the shed path is forcible below.
MAMMOTH_TRACE=$srv_trace spawn_daemon ./target/release/mammoth-server \
    --addr 127.0.0.1:0 --workers 1 --backlog 1
srv_pid=$daemon_pid srv_addr=$daemon_addr
pipe_out=$(./target/release/mammoth-cli --addr "$srv_addr" \
    -c "CREATE TABLE smoke (a INT NOT NULL)" \
    -c "INSERT INTO smoke VALUES (1), (2), (3)" \
    -c "SELECT COUNT(*) FROM smoke")
echo "$pipe_out" | grep -q "^3" \
    || { echo "server smoke: query pipeline failed: $pipe_out"; exit 1; }
# Force a shed: occupy the worker, fill the 1-slot backlog, then connect.
sleep 30 | ./target/release/mammoth-cli --addr "$srv_addr" & holder_pid=$!
sleep 0.3   # holder adopted by the only worker
sleep 30 | ./target/release/mammoth-cli --addr "$srv_addr" & filler_pid=$!
sleep 0.3   # filler parked in the backlog
shed_out=$(./target/release/mammoth-cli --addr "$srv_addr" -c "SELECT 1" 2>&1) && {
    echo "server smoke: overload connect unexpectedly succeeded"; exit 1; }
echo "$shed_out" | grep -q "SERVER_BUSY" \
    || { echo "server smoke: expected SERVER_BUSY, got: $shed_out"; exit 1; }
kill $holder_pid $filler_pid 2>/dev/null || true
wait $holder_pid $filler_pid 2>/dev/null || true
# Graceful shutdown via the wire; the daemon must exit 0.
stop_daemon "$srv_addr" $srv_pid "server smoke: daemon"
daemons=()
cargo run -q -p mammoth-types --bin tracecheck -- "$srv_trace"
rm -f "$srv_trace"

echo "==> planner smoke: PREPARE/EXECUTE/DEALLOCATE through the daemon and the CLI"
spawn_daemon ./target/release/mammoth-server --addr 127.0.0.1:0
plnr_pid=$daemon_pid plnr_addr=$daemon_addr
plnr_out=$(./target/release/mammoth-cli --addr "$plnr_addr" \
    -c "CREATE TABLE smoke (a INT NOT NULL, b INT)" \
    -c "INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30)" \
    -c "PREPARE pt AS SELECT b FROM smoke WHERE a = ?" \
    -c "EXECUTE pt (2)" \
    -c "EXECUTE pt (3)" \
    -c "DEALLOCATE pt")
echo "$plnr_out" | grep -q "^20" \
    || { echo "planner smoke: EXECUTE pt (2) wrong: $plnr_out"; exit 1; }
echo "$plnr_out" | grep -q "^30" \
    || { echo "planner smoke: EXECUTE pt (3) wrong: $plnr_out"; exit 1; }
# A deallocated name must be gone.
dealloc_out=$(./target/release/mammoth-cli --addr "$plnr_addr" \
    -c "EXECUTE pt (1)" 2>&1) && {
    echo "planner smoke: EXECUTE after DEALLOCATE unexpectedly succeeded"; exit 1; }
echo "$dealloc_out" | grep -qi "prepared" \
    || { echo "planner smoke: expected unknown-prepared error, got: $dealloc_out"; exit 1; }
stop_daemon "$plnr_addr" $plnr_pid "planner smoke: daemon"
daemons=()

echo "==> replication smoke: primary + replica, convergence, READ_ONLY, traced shutdown"
repl_ptrace=$(mktemp -u /tmp/mammoth_repl_ptrace.XXXXXX.jsonl)
repl_rtrace=$(mktemp -u /tmp/mammoth_repl_rtrace.XXXXXX.jsonl)
repl_pdir=$(mktemp -d /tmp/mammoth_repl_pdir.XXXXXX)
repl_rdir=$(mktemp -d /tmp/mammoth_repl_rdir.XXXXXX)
MAMMOTH_TRACE=$repl_ptrace spawn_daemon ./target/release/mammoth-server \
    --addr 127.0.0.1:0 --data "$repl_pdir"
repl_ppid=$daemon_pid repl_paddr=$daemon_addr
MAMMOTH_TRACE=$repl_rtrace spawn_daemon ./target/release/mammoth-replica \
    --primary "$repl_paddr" --data "$repl_rdir" --poll-ms 5
repl_rpid=$daemon_pid repl_raddr=$daemon_addr
./target/release/mammoth-cli --addr "$repl_paddr" \
    -c "CREATE TABLE smoke (a INT NOT NULL)" \
    -c "INSERT INTO smoke VALUES (1), (2), (3)" \
    -c "CHECKPOINT" \
    -c "INSERT INTO smoke VALUES (4), (5)" >/dev/null
# The replica must converge on the primary's row count.
converged=""
for _ in $(seq 1 100); do
    repl_count=$(./target/release/mammoth-cli --addr "$repl_raddr" \
        -c "SELECT COUNT(*) FROM smoke" 2>/dev/null || true)
    if echo "$repl_count" | grep -q "^5"; then converged=yes; break; fi
    sleep 0.05
done
[ -n "$converged" ] \
    || { echo "replication smoke: replica never converged: $repl_count"; exit 1; }
# Writes at the replica must be refused, not applied.
ro_out=$(./target/release/mammoth-cli --addr "$repl_raddr" \
    -c "INSERT INTO smoke VALUES (99)" 2>&1) && {
    echo "replication smoke: replica accepted a write"; exit 1; }
echo "$ro_out" | grep -q "READ_ONLY" \
    || { echo "replication smoke: expected READ_ONLY, got: $ro_out"; exit 1; }
# Lag must be observable through plain SQL at the replica.
./target/release/mammoth-cli --addr "$repl_raddr" -c "EXPLAIN REPLICATION" \
    | grep -q "replica" \
    || { echo "replication smoke: EXPLAIN REPLICATION missing role"; exit 1; }
# Graceful shutdown both ways; both daemons must exit 0 with clean traces.
stop_daemon "$repl_raddr" $repl_rpid "replication smoke: replica"
stop_daemon "$repl_paddr" $repl_ppid "replication smoke: primary"
daemons=()
cargo run -q -p mammoth-types --bin tracecheck -- "$repl_ptrace"
cargo run -q -p mammoth-types --bin tracecheck -- "$repl_rtrace"
rm -rf "$repl_ptrace" "$repl_rtrace" "$repl_pdir" "$repl_rdir"

echo "==> shard smoke: 3 shards + coordinator, routed DML, cross-shard aggregate, shard kill"
shd_trace=$(mktemp -u /tmp/mammoth_shd_trace.XXXXXX.jsonl)
shd_pids=()
shd_addrs=()
for i in 0 1 2; do
    spawn_daemon ./target/release/mammoth-server --addr 127.0.0.1:0
    shd_pids+=("$daemon_pid")
    shd_addrs+=("$daemon_addr")
done
MAMMOTH_TRACE=$shd_trace spawn_daemon ./target/release/mammoth-shardd \
    --addr 127.0.0.1:0 \
    --shard "${shd_addrs[0]}" --shard "${shd_addrs[1]}" --shard "${shd_addrs[2]}"
coord_pid=$daemon_pid coord_addr=$daemon_addr
# Routed DML + a packsum-pushdown aggregate + a gather-path GROUP BY,
# all through the ordinary client against the coordinator.
shd_out=$(./target/release/mammoth-cli --addr "$coord_addr" \
    -c "CREATE TABLE smoke (id BIGINT NOT NULL, v BIGINT)" \
    -c "INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)" \
    -c "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM smoke" \
    -c "SELECT v, COUNT(*) FROM smoke WHERE v >= 40 GROUP BY v")
echo "$shd_out" | grep -q "210" \
    || { echo "shard smoke: cross-shard aggregate wrong: $shd_out"; exit 1; }
# The partition map must account for the table on every shard.
placement=$(./target/release/mammoth-cli --addr "$coord_addr" -c "EXPLAIN SHARDING")
[ "$(echo "$placement" | grep -c "smoke")" -eq 3 ] \
    || { echo "shard smoke: EXPLAIN SHARDING missing shards: $placement"; exit 1; }
# Kill one shard hard; a fan-out read must fail typed, never truncate.
kill -9 "${shd_pids[1]}"
wait "${shd_pids[1]}" 2>/dev/null || true
dead_out=$(./target/release/mammoth-cli --addr "$coord_addr" \
    -c "SELECT COUNT(*) FROM smoke" 2>&1) && {
    echo "shard smoke: fan-out over a dead shard unexpectedly succeeded"; exit 1; }
echo "$dead_out" | grep -q "SHARD_UNAVAILABLE" \
    || { echo "shard smoke: expected SHARD_UNAVAILABLE, got: $dead_out"; exit 1; }
# Graceful shutdown everywhere; the coordinator must exit 0 with a clean trace.
stop_daemon "$coord_addr" $coord_pid "shard smoke: coordinator"
for i in 0 2; do
    stop_daemon "${shd_addrs[$i]}" "${shd_pids[$i]}" "shard smoke: shard $i"
done
daemons=()
cargo run -q -p mammoth-types --bin tracecheck -- "$shd_trace"
rm -f "$shd_trace"

echo "==> chaos matrix: seeded network-fault schedules over the cluster tier"
for seed in 1 2 3 4; do
    echo "    MAMMOTH_NET_FAULT_SEED=$seed"
    MAMMOTH_NET_FAULT_SEED=$seed cargo test -q --test chaos
done

echo "==> ha smoke: 3 shards + replicas, primary killed mid-workload, reads continue, promotion restores writes"
ha_trace=$(mktemp -u /tmp/mammoth_ha_trace.XXXXXX.jsonl)
ha_pids=()
ha_rpids=()
ha_addrs=()
ha_raddrs=()
ha_dirs=()
for i in 0 1 2; do
    ha_pdir=$(mktemp -d /tmp/mammoth_ha_pdir.XXXXXX)
    ha_rdir=$(mktemp -d /tmp/mammoth_ha_rdir.XXXXXX)
    ha_dirs+=("$ha_pdir" "$ha_rdir")
    spawn_daemon ./target/release/mammoth-server --addr 127.0.0.1:0 --data "$ha_pdir"
    ha_pids+=("$daemon_pid")
    ha_addrs+=("$daemon_addr")
    spawn_daemon ./target/release/mammoth-replica --primary "${ha_addrs[$i]}" \
        --data "$ha_rdir" --primary-data "$ha_pdir" --poll-ms 5
    ha_rpids+=("$daemon_pid")
    ha_raddrs+=("$daemon_addr")
done
MAMMOTH_TRACE=$ha_trace spawn_daemon ./target/release/mammoth-shardd \
    --addr 127.0.0.1:0 \
    --shard "${ha_addrs[0]}" --shard "${ha_addrs[1]}" --shard "${ha_addrs[2]}" \
    --replica "0=${ha_raddrs[0]}" --replica "1=${ha_raddrs[1]}" \
    --replica "2=${ha_raddrs[2]}" \
    --probe-ms 50 --suspect-after 2 --promote-timeout-ms 10000
ha_cpid=$daemon_pid ha_caddr=$daemon_addr
./target/release/mammoth-cli --addr "$ha_caddr" \
    -c "CREATE TABLE smoke (id BIGINT NOT NULL, v BIGINT)" \
    -c "INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)" \
    >/dev/null
# Let every replica mirror its primary's acked rows before the crash,
# so the degraded read below has an exact answer to hit.
for i in 0 1 2; do
    want=$(./target/release/mammoth-cli --addr "${ha_addrs[$i]}" \
        -c "SELECT COUNT(*) FROM smoke" | tail -1)
    caught=""
    for _ in $(seq 1 200); do
        rc=$(./target/release/mammoth-cli --addr "${ha_raddrs[$i]}" \
            -c "SELECT COUNT(*) FROM smoke" 2>/dev/null | tail -1 || true)
        if [ "$rc" = "$want" ]; then caught=yes; break; fi
        sleep 0.05
    done
    [ -n "$caught" ] \
        || { echo "ha smoke: replica $i never caught up ($rc != $want)"; exit 1; }
done
# Kill shard 1's primary hard, mid-workload.
kill -9 "${ha_pids[1]}"
wait "${ha_pids[1]}" 2>/dev/null || true
# Read continuity: fan-out SELECTs must come back (degraded to the
# replica, then the promoted primary) and must not lose or invent rows.
ha_read=""
for _ in $(seq 1 200); do
    out=$(./target/release/mammoth-cli --addr "$ha_caddr" \
        -c "SELECT COUNT(*) FROM smoke" 2>/dev/null || true)
    if echo "$out" | grep -q "^6"; then ha_read=yes; break; fi
    sleep 0.05
done
[ -n "$ha_read" ] || { echo "ha smoke: reads never flowed during the outage"; exit 1; }
# Promotion: the cluster must report all-healthy with the replica
# swapped in as shard 1's primary, and writes must flow again.
ha_healthy=""
for _ in $(seq 1 400); do
    placement=$(./target/release/mammoth-cli --addr "$ha_caddr" \
        -c "EXPLAIN SHARDING" 2>/dev/null || true)
    if [ "$(echo "$placement" | grep -c healthy)" -eq 3 ]; then ha_healthy=yes; break; fi
    sleep 0.05
done
[ -n "$ha_healthy" ] || { echo "ha smoke: cluster never converged healthy: $placement"; exit 1; }
echo "$placement" | grep -q "${ha_raddrs[1]}" \
    || { echo "ha smoke: promoted replica not serving as primary: $placement"; exit 1; }
post_out=$(./target/release/mammoth-cli --addr "$ha_caddr" \
    -c "INSERT INTO smoke VALUES (101, 1), (102, 2), (103, 3), (104, 4), (105, 5), (106, 6)" \
    -c "SELECT COUNT(*) FROM smoke")
echo "$post_out" | grep -q "^6" \
    || { echo "ha smoke: post-promotion write failed: $post_out"; exit 1; }
post_count=$(echo "$post_out" | tail -1)
[ "$post_count" -ge 12 ] 2>/dev/null \
    || { echo "ha smoke: post-promotion count wrong: $post_out"; exit 1; }
# Graceful shutdown everywhere; the coordinator's trace must carry the
# failover events and validate.
stop_daemon "$ha_caddr" $ha_cpid "ha smoke: coordinator"
for i in 0 1 2; do
    stop_daemon "${ha_raddrs[$i]}" "${ha_rpids[$i]}" "ha smoke: replica $i"
done
for i in 0 2; do
    stop_daemon "${ha_addrs[$i]}" "${ha_pids[$i]}" "ha smoke: shard $i"
done
daemons=()
for ev in ha.suspect ha.degraded ha.promote ha.recovered; do
    grep -q "\"$ev\"" "$ha_trace" \
        || { echo "ha smoke: trace missing $ev event"; exit 1; }
done
cargo run -q -p mammoth-types --bin tracecheck -- "$ha_trace"
rm -rf "$ha_trace" "${ha_dirs[@]}"

echo "==> malcheck: well-formed plans must verify (profiler must not interfere)"
good=$(ls examples/plans/*.mal | grep -v '/bad_')
# shellcheck disable=SC2086
MAMMOTH_TRACE=/dev/null cargo run -q -p mammoth-mal --bin malcheck -- $good

echo "==> malcheck: malformed plans must be rejected"
cargo run -q -p mammoth-mal --bin malcheck -- --expect-error examples/plans/bad_*.mal

echo "==> props: inferred properties match the golden snapshot (BLESS=1 re-blesses)"
props_golden=tests/golden/malcheck_props.golden
# shellcheck disable=SC2086
props_out=$(cargo run -q -p mammoth-mal --bin malcheck -- --props --no-pipeline $good \
    | grep -E '^==|^   props')
if [ "${BLESS:-0}" = "1" ]; then
    printf '%s\n' "$props_out" > "$props_golden"
    echo "    blessed $props_golden"
else
    diff -u "$props_golden" <(printf '%s\n' "$props_out") \
        || { echo "props: snapshot drifted (re-bless with BLESS=1 scripts/ci.sh)"; exit 1; }
fi

echo "==> props: runtime checker finds zero violations across engines"
# not only the randomized plans: the SQL end-to-end suite and the durable
# sessions run checked too, because they are what binds columns with
# deletes pending, after recovery and across checkpoint folds (a fact that
# counted deleted rows went unseen while only props_soundness ran checked)
MAMMOTH_CHECK_PROPS=1 cargo test -q --test props_soundness --test sql_end_to_end \
    --test durability --test dml_model --test optimizer_equivalence
MAMMOTH_CHECK_PROPS=1 cargo test -q -p mammoth-sql durable
# and the engine differential under its thread matrix: what a fused
# vector.pipeline binds — per statement, and per mitosis fragment — is held
# to the properties inferred for it on every engine
for threads in 1 4; do
    echo "    MAMMOTH_CHECK_PROPS=1 MAMMOTH_THREADS=$threads"
    MAMMOTH_CHECK_PROPS=1 MAMMOTH_THREADS=$threads cargo test -q --test engines_agree
done

echo "==> ci: all gates passed"
