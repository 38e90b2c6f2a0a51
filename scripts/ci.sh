#!/usr/bin/env bash
# Tier-1 gate for the VAO repro workspace. Runs entirely offline: every
# dependency is either vendored under shims/ or part of the Rust toolchain.
#
#   ./scripts/ci.sh
#
# Sixteen stages; all but the last are mandatory:
#   1. cargo fmt --check        -- formatting drift fails the gate
#   2. cargo clippy -D warnings -- lints are errors, across all targets
#   3. cargo test -q            -- the full workspace test suite
#   4. cargo test -p va-server  -- the server crate's own suite, explicitly,
#                                  plus the batched-scheduler determinism,
#                                  crash-recovery, emitted-and-decoded-bytes
#                                  (codec_bytes), data-dir bytes (data_dir:
#                                  one script leaves one dir, a snapshot does
#                                  not grow with uptime, a server reopened
#                                  from a crashed dir snapshots the bytes a
#                                  running one does, version-2 and version-3
#                                  dirs are refused untouched), the
#                                  snapshot's warm-section memo
#                                  (warm_memo_proptest: every file is
#                                  to_json's bytes, the memo holds only the
#                                  last snapshot's sections), STATS and TICK_DONE
#                                  across a crash (durable_stats),
#                                  group-commit (a failed
#                                  group sync or rollback, a torn
#                                  TICK_MULTI group at every byte),
#                                  per-round demand-list (demand_bits), the
#                                  maintained-versus-recomputed demand audit
#                                  (demand_incremental: the round view's kept
#                                  lists, orders and bucket keys against a
#                                  recompute after every round) and
#                                  empty-relation tests by name (a golden
#                                  must never be filtered out); the one
#                                  tick driver's pins (tick_relation and a
#                                  one-relation tick_multi leave one dir,
#                                  unknown relation before rate, a lone
#                                  relation's whole budget, a panicking
#                                  worker fails one tick) and bench-report's
#                                  short-series rule, by name
#   5. va-server --smoke        -- loopback TCP exchange of the line protocol,
#                                  serial and again with --workers 4; after
#                                  RELATIONS it sends the three one-line
#                                  requests that used to abort the process
#                                  (a rate off the pricer grid, a seeded
#                                  relation of 10^12 bonds, HEAVYHITTERS with
#                                  k = 10^12), expects one ERROR each, and
#                                  ticks once more
#   6. kill-and-recover smoke   -- start a --data-dir server, subscribe and
#                                  tick over TCP, SIGKILL it, restart on the
#                                  same dir, RESUME the session and tick again
#   6b. harness smoke           -- the tenant-scaling harness target (which
#                                  asserts co-hosted relations tick
#                                  bit-identically to isolated servers) must
#                                  write its CSV, and a mistyped harness
#                                  target must exit non-zero, not run
#                                  nothing and exit 0
#   6c. budgeted recovery       -- stage 6 again with --budget 9000: the
#                                  whole STATS line taken before any
#                                  post-restart tick must be bit-identical
#                                  to the one taken before the SIGKILL
#   7. sketch-query smoke       -- SUBSCRIBE PERCENTILE and HEAVYHITTERS over
#                                  TCP, tick, SIGKILL, restart on the same
#                                  dir, RESUME both sessions and tick again
#                                  (the sketch summaries are derived state and
#                                  must rebuild from the journal alone)
#   8. compaction smoke         -- long run with --snapshot-every 4, SIGKILL,
#                                  assert the data dir holds only the tail
#                                  segments and two snapshots, then restart
#                                  and RESUME as in stage 6
#   9. connection-churn soak   -- 20 clients subscribe/tick across the run
#                                  while every fourth is SIGKILLed
#                                  mid-connection and a wedged client parks
#                                  on an open socket the whole time; then
#                                  SIGKILL the server mid-churn, restart,
#                                  and assert the RESUMEd session line is
#                                  bit-identical before and after the crash
#  10. multi-relation tenancy   -- CREATE_RELATION/DROP_RELATION/USE over
#                                  TCP on a --catalog dir, TICK_MULTI across
#                                  two relations, SIGKILL, restart with *no*
#                                  relation flags (the dir is
#                                  self-describing), RESUME both tenants and
#                                  assert the dropped relation stayed dropped;
#                                  then SIGTERM that server (no "default"
#                                  relation) and require exit status 0 and
#                                  the `stopped after` line; last, run the
#                                  catalog script into two fresh dirs, stop
#                                  each with SIGTERM (no SIGKILL) and
#                                  `diff -r` them, nothing masked
#  11. batched-solver smoke    -- the SoA lane solver must produce answers
#                                  bit-identical to the scalar executor on a
#                                  small universe (numerics kernel identity +
#                                  server dispatch identity, by name), both
#                                  must reproduce the literal bit patterns of
#                                  tests/solver_bits.rs (a joint drift passes
#                                  every scalar-vs-lane comparison), and a
#                                  singular lane must cap alone; the
#                                  relation-wide trio constructor's lane
#                                  tests (a singular slot fails alone, the
#                                  cell cap fails every slot, as scalar) and
#                                  the per-tick invoke pinned as literals,
#                                  cold and warm, solved and served from
#                                  trio columns kept at another rate
#                                  (tests/invoke_bits.rs); the column
#                                  contract (tests/column_bits.rs: a kept
#                                  column commits like a fresh solve, a
#                                  kept trio column prices another rate
#                                  like a fresh trio, a failing or singular
#                                  trio slot fails as bare and keeps
#                                  nothing) and the store's invisibility
#                                  (crates/server/tests/column_store.rs:
#                                  long-lived == fresh ticks, trio-only
#                                  sessions included, recovered ==
#                                  uninterrupted ticks and journal; the
#                                  server's own store tests by name: the
#                                  second tick's invocation is served, a
#                                  store below one trio keeps one set, a
#                                  merge holds what insert-then-evict
#                                  would); beside them,
#                                  by name, the operator goldens of
#                                  tests/ops_bits.rs (every vao::ops operator's
#                                  answer, iterations, work components, final
#                                  bounds and trace as literals: a golden must
#                                  never be filtered out), the stream
#                                  engine's of tests/engine_bits.rs (every
#                                  Query kind's QueryOutput, iterations and
#                                  work components in both execution modes)
#                                  and tests/work_sharing.rs (a one-session
#                                  server and the dedicated engine run one
#                                  schedule: equal answers, iterations and
#                                  work components)
#  12. benchmark gate          -- benchmark/check.sh: the standalone benchmark
#                                  package's fmt, clippy, unit tests and a
#                                  `run --quick` of all four workloads (lap-0
#                                  digest repeat + --check). It builds against
#                                  crates/* by path, so a change to
#                                  va_server::demand::*, SharedPool,
#                                  ChoicePolicy/Candidate or va_persist::json
#                                  that breaks its build or its answers fails
#                                  here, not in the benchmark run
#  13. cargo doc -D warnings    -- rustdoc must build clean
#  14. line count (informational) -- non-test, non-comment code lines of
#                                  every crate under crates/, of
#                                  crates/core/src/ops, of the server's
#                                  demand modules, of its sched.rs, of the
#                                  three together (the round loop, the demand
#                                  functions and the server's side of both)
#                                  and of the stream engine on their own
#                                  lines, and of crates/server/src +
#                                  crates/persist/src as one line beside the
#                                  ROADMAP's target, so a simplicity change
#                                  has a trajectory to compare against
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> cargo test -p va-server -q"
cargo test -p va-server -q

echo "==> batched-scheduler determinism + crash-recovery + codec-bytes + data-dir + warm-memo + group-commit + demand-bits + empty-relation tests"
cargo test -q -p va-server --test parallel_determinism
cargo test -q -p va-server --test recovery
cargo test -q -p va-server --test compaction
cargo test -q -p va-server --test codec_bytes
cargo test -q -p va-server --test data_dir
cargo test -q -p va-persist --test warm_memo_proptest
cargo test -q -p va-server --test durable_stats
cargo test -q -p va-persist --lib journal::tests::a_group_is_one_write_of_the_bytes_single_appends_write
cargo test -q -p va-persist --lib journal::tests::a_failed_group_sync_leaves_no_byte_of_the_group
cargo test -q -p va-persist --lib journal::tests::a_failed_group_rollback_poisons_the_journal
cargo test -q -p va-server --test recovery a_torn_tick_multi_group_recovers_its_whole_records
cargo test -q -p va-server --test demand_bits
cargo test -q -p va-server --test demand_incremental
cargo test -q -p va-server --lib demand::tests::empty_pool_yields_typed_errors_not_panics
# One tick driver: a one-relation tick leaves the same dir and results
# through tick_relation and tick_multi, an unknown relation is named before
# its rate, a lone relation gets the whole budget, a panicking worker fails
# one tick; and bench-report reads no gain from a short series.
cargo test -q -p va-server --test data_dir a_one_relation_tick_is_the_same_through_either_entry_point
cargo test -q -p va-server --lib server::tests::a_rate_off_the_pricer_grid_is_refused_before_anything_executes
cargo test -q -p va-server --lib sched::tests::slices_are_proportional_and_sum_exactly
cargo test -q -p va-server --test parallel_determinism a_panicking_worker_fails_its_tick_with_internal
cargo test -q -p va-bench --lib compare::tests::a_series_shorter_than_ten_pairs_never_reads_gain
cargo test -q -p va-bench --lib compare::tests::raw_runs_pair_up_and_summarize_to_json
# One payload per distinct answer per tick: grouping by answer bits (the
# sign of a zero splits, a different query shape does not), one answer per
# distinct query, and a pipelined burst read through a cursor.
cargo test -q -p va-server --lib session::tests::broadcast_groups_share_one_payload_per_distinct_answer
cargo test -q -p va-server --lib session::tests::answers_apart_only_in_the_sign_of_zero_get_two_payloads
cargo test -q -p va-server --lib session::tests::groups_follow_the_payload_bytes
cargo test -q -p va-server --test frontend equal_answers_share_one_payload_per_tick_across_connections
cargo test -q -p va-server --test frontend sessions_sharing_an_answer_answer_as_each_would_alone
cargo test -q -p va-server --lib net::tests::a_pipelined_burst_of_100k_requests_gets_every_reply_in_order

echo "==> va-server loopback smoke (subscribe -> tick -> result -> quit)"
cargo run -q -p va-server -- --smoke --bonds 24 --seed 42

echo "==> va-server loopback smoke with a 4-worker batched scheduler"
cargo run -q -p va-server -- --smoke --bonds 24 --seed 42 --workers 4

cargo build -q -p va-server
VA_SERVER=target/debug/va-server
SRV_PID=""
WEDGE_PID=""
KILLED=""
cleanup() {
  # Unquoted on purpose: an unset pid must vanish, not become `kill -9 ""`.
  kill -9 $SRV_PID $WEDGE_PID $KILLED 2>/dev/null || true
  rm -rf "${DATA_DIR:-}" "${SRV_LOG:-}"
}

# Every smoke below runs on its own scratch data dir and server log.
begin_smoke() {
  DATA_DIR=$(mktemp -d)
  SRV_LOG=$(mktemp)
  trap cleanup EXIT
}

# start_server FLAGS...: launches va-server on an ephemeral port over
# $DATA_DIR and waits for the address it prints (-> SRV_PID, ADDR).
start_server() {
  "$VA_SERVER" --addr 127.0.0.1:0 --data-dir "$DATA_DIR" "$@" >"$SRV_LOG" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^va-server listening on \([0-9.:]*\) .*/\1/p' "$SRV_LOG")
    [ -n "$ADDR" ] && return 0
    sleep 0.1
  done
  echo "server never printed its address"; cat "$SRV_LOG"; exit 1
}

# stop_server: SIGKILL, never a clean shutdown -- the journal, not a final
# snapshot, must carry the state across.
stop_server() {
  kill -9 "$SRV_PID" 2>/dev/null || true
  wait "$SRV_PID" 2>/dev/null || true
}

# ask LINE...: one client connection sending the request lines; prints the
# replies. The client hangs up without QUIT unless a line says so.
ask() { printf '%s\n' "$@" | "$VA_SERVER" --client "$ADDR"; }

# expect TEXT PATTERN COMPLAINT
expect() { echo "$1" | grep -q -- "$2" || { echo "$3: $1"; exit 1; }; }

expect_recovery_line() {
  grep -q "${1:-recovered from}" "$SRV_LOG" || { echo "no recovery line"; cat "$SRV_LOG"; exit 1; }
}

end_smoke() {
  stop_server
  cleanup
  trap - EXIT
}

echo "==> va-server kill-and-recover smoke (SIGKILL mid-stream, RESUME after restart)"
begin_smoke
start_server --bonds 24 --seed 42
PRE=$(ask \
  '{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.5},"priority":2}' \
  '{"type":"TICK","rate":0.0583}')
expect "$PRE" '"type":"SUBSCRIBED"' "no SUBSCRIBED"
expect "$PRE" '"type":"RESULT"' "no RESULT"
stop_server

start_server --bonds 24 --seed 42
POST=$(ask \
  '{"type":"RESUME","session":1}' \
  '{"type":"TICK","rate":0.0584}' \
  '{"type":"QUIT"}')
expect "$POST" '"type":"RESUMED"' "no RESUMED"
expect "$POST" '"session":1' "wrong session"
expect "$POST" '"type":"RESULT"' "no post-recovery RESULT"
expect_recovery_line
end_smoke
echo "    kill-and-recover smoke ok (session resumed across SIGKILL)"

echo "==> harness smoke (one target end to end, a mistyped target refused)"
HARNESS_OUT=$(mktemp -d)
cargo run -q -p va-bench --bin harness -- --bonds 24 --seed 7 --out "$HARNESS_OUT" tenant-scaling
[ -s "$HARNESS_OUT/tenant_scaling.csv" ] || { echo "harness wrote no tenant_scaling.csv"; ls "$HARNESS_OUT"; exit 1; }
rm -rf "$HARNESS_OUT"
if cargo run -q -p va-bench --bin harness -- no-such-target 2>/dev/null; then
  echo "harness accepted an unknown target"; exit 1
fi

echo "==> va-server budgeted kill-and-recover smoke (--budget 9000, STATS survives SIGKILL)"
begin_smoke
start_server --bonds 24 --seed 42 --budget 9000
PRE=$(ask \
  '{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.5},"priority":2}' \
  '{"type":"TICK","rate":0.0583}' \
  '{"type":"TICK","rate":0.0601}' \
  '{"type":"STATS"}')
expect "$PRE" '"type":"RESULT"' "no RESULT"
PRE_STATS=$(echo "$PRE" | grep '"type":"STATS"') || { echo "no pre-kill STATS: $PRE"; exit 1; }
expect "$PRE_STATS" '"ticks":2,' "the budgeted ticks were not counted"
stop_server

start_server --bonds 24 --seed 42 --budget 9000
# STATS *before* any post-restart tick: every counter must come from the
# journal, bit-identical to the pre-kill line, and the session resumes.
POST=$(ask \
  '{"type":"STATS"}' \
  '{"type":"RESUME","session":1}' \
  '{"type":"TICK","rate":0.0584}' \
  '{"type":"QUIT"}')
POST_STATS=$(echo "$POST" | grep '"type":"STATS"') || { echo "no post-kill STATS: $POST"; exit 1; }
[ "$PRE_STATS" = "$POST_STATS" ] || {
  echo "STATS diverged across SIGKILL:"
  echo "  pre:  $PRE_STATS"
  echo "  post: $POST_STATS"
  exit 1
}
expect "$POST" '"type":"RESUMED"' "no RESUMED"
expect "$POST" '"type":"RESULT"' "no post-recovery RESULT"
expect_recovery_line
end_smoke
echo "    budgeted kill-and-recover smoke ok (STATS bit-identical across SIGKILL)"

echo "==> va-server sketch-query smoke (PERCENTILE + HEAVYHITTERS across SIGKILL)"
begin_smoke
start_server --bonds 24 --seed 42
# The sketches themselves are derived state and must never need the journal.
PRE=$(ask \
  '{"type":"SUBSCRIBE","query":{"kind":"percentile","phi":0.5,"epsilon":0.5},"priority":2}' \
  '{"type":"SUBSCRIBE","query":{"kind":"heavyhitters","k":3,"epsilon":1.0},"priority":1}' \
  '{"type":"TICK","rate":0.0583}')
expect "$PRE" '"type":"SUBSCRIBED"' "no SUBSCRIBED"
expect "$PRE" '"shape":"aggregate"' "no percentile RESULT"
expect "$PRE" '"shape":"heavy"' "no heavyhitters RESULT"
stop_server

start_server --bonds 24 --seed 42
POST=$(ask \
  '{"type":"RESUME","session":1}' \
  '{"type":"RESUME","session":2}' \
  '{"type":"TICK","rate":0.0584}' \
  '{"type":"QUIT"}')
expect "$POST" '"type":"RESUMED"' "no RESUMED"
expect "$POST" '"operator":"percentile"' "percentile session lost"
expect "$POST" '"operator":"heavyhitters"' "heavyhitters session lost"
expect "$POST" '"shape":"aggregate"' "no post-recovery percentile RESULT"
expect "$POST" '"shape":"heavy"' "no post-recovery heavyhitters RESULT"
expect_recovery_line
end_smoke
echo "    sketch-query smoke ok (percentile + heavyhitters resumed across SIGKILL)"

echo "==> va-server compaction smoke (--snapshot-every 4, bounded dir across SIGKILL)"
begin_smoke
start_server --bonds 24 --seed 42 --snapshot-every 4
# Run well past 20x the snapshot cadence in journal events: the dir must
# already be compacted when the SIGKILL lands.
LONG=$(ask \
  '{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.5},"priority":2}' \
  $(for i in $(seq 1 12); do printf '{"type":"TICK","rate":0.058%d}\n' $((i % 10)); done))
expect "$LONG" '"type":"SUBSCRIBED"' "no SUBSCRIBED"
expect "$LONG" '"type":"RESULT"' "no RESULT"
stop_server

SEGMENTS=$(find "$DATA_DIR" -name 'journal-*.jsonl' | wc -l)
SNAPSHOTS=$(find "$DATA_DIR" -name 'snapshot-*.json' | wc -l)
[ "$SEGMENTS" -le 3 ] || { echo "journal not compacted: $SEGMENTS segments"; ls "$DATA_DIR"; exit 1; }
[ "$SNAPSHOTS" -le 2 ] || { echo "snapshots not pruned: $SNAPSHOTS files"; ls "$DATA_DIR"; exit 1; }
[ ! -e "$DATA_DIR/journal-1.jsonl" ] || { echo "segment 1 never compacted away"; ls "$DATA_DIR"; exit 1; }

start_server --bonds 24 --seed 42 --snapshot-every 4
POST=$(ask \
  '{"type":"RESUME","session":1}' \
  '{"type":"TICK","rate":0.0584}' \
  '{"type":"QUIT"}')
expect "$POST" '"type":"RESUMED"' "no RESUMED"
expect "$POST" '"type":"RESULT"' "no post-recovery RESULT"
expect_recovery_line
end_smoke
echo "    compaction smoke ok (bounded data dir, session resumed across SIGKILL)"

echo "==> va-server connection-churn soak (20 clients, rude kills, SIGKILL mid-churn)"
begin_smoke
start_server --bonds 24 --seed 42
# Session 1 is the one resumed across the crash; its owner hangs up rudely.
SETUP=$(ask \
  '{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.5},"priority":2}' \
  '{"type":"TICK","rate":0.0583}')
expect "$SETUP" '"type":"SUBSCRIBED"' "no SUBSCRIBED"
expect "$SETUP" '"type":"RESULT"' "no RESULT"

# A wedge client parks on an open connection for the whole soak: it must
# neither stall the churn below nor interfere with the crash recovery.
sleep 30 | "$VA_SERVER" --client "$ADDR" >/dev/null 2>&1 &
WEDGE_PID=$!

# Twenty churn clients; every fourth is killed -9 mid-connection (after its
# SUBSCRIBE is in flight, before it finishes), the rest subscribe, tick once
# and hang up without QUIT.
for i in $(seq 1 20); do
  if [ $((i % 4)) -eq 0 ]; then
    { printf '{"type":"SUBSCRIBE","query":{"kind":"ave","epsilon":0.5}}\n'; sleep 10; } \
      | "$VA_SERVER" --client "$ADDR" >/dev/null 2>&1 &
    KILLED="$KILLED $!"
  else
    OUT=$(ask \
      '{"type":"SUBSCRIBE","query":{"kind":"ave","epsilon":0.5}}' \
      "$(printf '{"type":"TICK","rate":0.058%d}' $((i % 10)))")
    expect "$OUT" '"type":"SUBSCRIBED"' "churn client $i"
    expect "$OUT" '"type":"TICK_DONE"' "churn client $i lost its tick"
  fi
done
for pid in $KILLED; do kill -9 "$pid" 2>/dev/null || true; done

# What session 1 looks like just before the crash...
PRE=$(ask '{"type":"RESUME","session":1}')
PRE_LINE=$(echo "$PRE" | grep '"type":"RESUMED"') || { echo "no pre-kill RESUMED: $PRE"; exit 1; }

# ...SIGKILL mid-churn, with the wedge still parked on its connection...
stop_server
kill -9 "$WEDGE_PID" 2>/dev/null || true

start_server --bonds 24 --seed 42
# ...and after recovery the same RESUME must produce the same bytes.
POST=$(ask '{"type":"RESUME","session":1}' '{"type":"QUIT"}')
POST_LINE=$(echo "$POST" | grep '"type":"RESUMED"') || { echo "no post-kill RESUMED: $POST"; exit 1; }
[ "$PRE_LINE" = "$POST_LINE" ] || {
  echo "recovery diverged:"
  echo "  pre:  $PRE_LINE"
  echo "  post: $POST_LINE"
  exit 1
}
expect_recovery_line
end_smoke
WEDGE_PID=""
KILLED=""
echo "    connection-churn soak ok (20-client churn + wedge survived, RESUME bit-identical across SIGKILL)"

echo "==> va-server multi-relation tenancy smoke (catalog dir, TICK_MULTI, SIGKILL, flagless restart)"
# Build the catalog over the wire: two live relations, one created and
# dropped (the journal must keep it dead), sessions in both tenants, and
# one TICK_MULTI across the pair.
catalog_script() {
  ask \
    '{"type":"CREATE_RELATION","name":"alpha","seed":7,"count":12}' \
    '{"type":"CREATE_RELATION","name":"beta","seed":9,"count":8}' \
    '{"type":"CREATE_RELATION","name":"gamma","seed":11,"count":4}' \
    '{"type":"DROP_RELATION","name":"gamma"}' \
    '{"type":"USE","name":"alpha"}' \
    '{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.5},"priority":2}' \
    '{"type":"SUBSCRIBE","relation":"beta","query":{"kind":"min","epsilon":0.5}}' \
    '{"type":"TICK_MULTI","ticks":[{"relation":"alpha","rate":0.0583},{"relation":"beta","rate":0.06}]}'
}
# stop_clean: SIGTERM, which must write the final snapshot and exit 0.
stop_clean() {
  kill -TERM "$SRV_PID"
  STATUS=0
  wait "$SRV_PID" || STATUS=$?
  [ "$STATUS" -eq 0 ] || { echo "SIGTERM stop exited $STATUS"; cat "$SRV_LOG"; exit 1; }
}
begin_smoke
start_server --catalog
PRE=$(catalog_script)
expect "$PRE" '"type":"CREATED","relation":"alpha"' "no CREATED alpha"
expect "$PRE" '"type":"CREATED","relation":"beta"' "no CREATED beta"
expect "$PRE" '"type":"DROPPED","relation":"gamma"' "no DROPPED gamma"
expect "$PRE" '"type":"USING","relation":"alpha"' "no USING alpha"
expect "$PRE" '"type":"SUBSCRIBED","relation":"alpha"' "USE did not route the subscribe"
expect "$PRE" '"type":"SUBSCRIBED","relation":"beta"' "no beta subscribe"
expect "$PRE" '"type":"TICK_DONE","relation":"alpha"' "no alpha tick"
expect "$PRE" '"type":"TICK_DONE","relation":"beta"' "no beta tick"
stop_server

# Restart with *no* relation flags: the dir alone must describe both
# tenants (zero flag-based reconstruction).
start_server
POST=$(ask \
  '{"type":"RESUME","relation":"alpha","session":1}' \
  '{"type":"RESUME","relation":"beta","session":1}' \
  '{"type":"STATS","relation":"gamma"}' \
  '{"type":"TICK_MULTI","ticks":[{"relation":"alpha","rate":0.0584},{"relation":"beta","rate":0.061}]}' \
  '{"type":"QUIT"}')
expect "$POST" '"type":"RESUMED","relation":"alpha"' "alpha session lost"
expect "$POST" '"type":"RESUMED","relation":"beta"' "beta session lost"
expect "$POST" 'unknown relation \\"gamma\\"' "dropped relation resurfaced"
expect "$POST" '"type":"TICK_DONE","relation":"alpha"' "no post-recovery alpha tick"
expect "$POST" '"type":"TICK_DONE","relation":"beta"' "no post-recovery beta tick"
expect_recovery_line "recovered from .* (2 relations"
# A clean stop on a server with no "default" relation: SIGTERM must
# write the final snapshot, report the ticks of every hosted relation
# (two each) and exit 0.
stop_clean
grep -q 'stopped after 4 ticks' "$SRV_LOG" || { echo "no stopped-after line"; cat "$SRV_LOG"; exit 1; }
end_smoke
# The same script into two fresh dirs, each ended by a clean SIGTERM: a
# data dir holds no measured value, so the two must be byte-identical,
# nothing masked.
SAME_DIRS=$(mktemp -d)
for run in first second; do
  begin_smoke
  start_server --catalog
  catalog_script >/dev/null
  stop_clean
  mv "$DATA_DIR" "$SAME_DIRS/$run"
  end_smoke
done
diff -r "$SAME_DIRS/first" "$SAME_DIRS/second" || { echo "one script left two different data dirs"; exit 1; }
rm -rf "$SAME_DIRS"
echo "    multi-relation tenancy smoke ok (catalog recovered flag-free across SIGKILL, clean SIGTERM stop, byte-identical dirs)"

echo "==> batched SoA solver == scalar executor smoke, solver, operator, engine and one-schedule goldens"
cargo test -q -p va-numerics --lib tridiag::tests::batched_solve_is_bit_identical_to_scalar_lanes
cargo test -q -p va-numerics --lib pde::batch::tests::lockstep_solve_is_bit_identical_to_scalar_iterates
cargo test -q -p va-server --test parallel_determinism batched_solver_matches_scalar_answers
cargo test -q -p vao-repro --test solver_bits
cargo test -q -p vao-repro --test ops_bits
cargo test -q -p vao-repro --test engine_bits
cargo test -q -p vao-repro --test work_sharing
cargo test -q -p va-numerics --lib pde::batch::tests::singular_lane_caps_alone_and_siblings_match_scalar
# Invoke lanes: the relation-wide trio constructor against its scalar
# reference (a singular slot, the cell cap, several groups, no input), and
# the 500-bond cold and warm invokes pinned as literals.
cargo test -q -p va-numerics --lib pde::batch::tests::trio_lanes_
cargo test -q -p vao-repro --test invoke_bits
# Kept columns: a column lane-solved at one rate commits like a fresh solve
# at another, the trio's included, only marked problems lend one, and a
# server that keeps them ticks like a fresh server and recovers like the
# uninterrupted run; its invocation is served from the second tick on, and
# a bound below one relation's trio holds one set of columns.
cargo test -q -p vao-repro --test column_bits
cargo test -q -p va-server --test column_store
cargo test -q -p va-server --lib server::tests::the_second_ticks_invocation_is_served_from_the_store
cargo test -q -p va-server --lib server::tests::a_store_below_one_trio_holds_the_same_set_every_tick
cargo test -q -p va-server --lib sched::tests::a_merge_holds_what_inserting_everything_then_evicting_would

echo "==> benchmark package gate (fmt, clippy, unit tests, run --quick)"
benchmark/check.sh

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> line count (informational): non-test, non-comment code lines"
count() {
  for f in "$@"; do
    awk '/^#\[cfg\(test\)\]/{exit} {l=$0; sub(/^[ \t]+/,"",l); if(l==""||l~/^\/\//)next; n++} END{print n+0}' "$f"
  done | awk '{s+=$1} END{print s}'
}
for crate in crates/*; do
  printf '    %-21s %s\n' "$crate/src:" "$(count $(find "$crate/src" -name '*.rs'))"
done
echo "    crates/core/src/ops:  $(count crates/core/src/ops/*.rs)"
echo "    server demand (demand.rs + demand/round.rs): $(count crates/server/src/demand.rs crates/server/src/demand/round.rs)"
echo "    server sched.rs:      $(count crates/server/src/sched.rs)"
echo "    ops + demand + sched: $(count crates/core/src/ops/*.rs crates/server/src/demand.rs crates/server/src/demand/round.rs crates/server/src/sched.rs)"
echo "    stream engine (engine.rs): $(count crates/stream/src/engine.rs)"
echo "    server + persist:     $(count $(find crates/server/src crates/persist/src -name '*.rs')) (ROADMAP target: <= 5562)"
echo "    crates/ total:        $(count $(find crates/*/src -name '*.rs'))"

echo "==> tier-1 gate passed"
