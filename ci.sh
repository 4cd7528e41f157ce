#!/usr/bin/env bash
# Local CI: build, test, lint. Run from anywhere; works on a clean checkout.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== branch-lab CLI =="
# The registry-backed CLI is the single entry point for every study:
# `list` exercises registry wiring, and the smoke sweep drives the
# single-pass engine end-to-end (lockstep predictors + lane replay) on a
# trace small enough to finish in well under a second.
target/release/branch-lab list > /dev/null
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    target/release/branch-lab sweep --workload streaming \
    --predictors gshare,tage-sc-l-8kb,perfect --len 30000 > /dev/null

echo "== test =="
cargo test -q --workspace

echo "== golden (release) =="
# Share one trace cache across the golden runs so the leg stays fast; the
# fixtures themselves are independent of where traces are cached.
# `--include-ignored` runs any fixture ignored for debug-build run time.
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    cargo test --release -q --test golden --test metrics_manifest -- --include-ignored

echo "== decode robustness =="
# All of bp-trace's tests, in release: every file in the checked-in
# corpus of damaged BPTR traces (v4 files, hostile headers, and frozen
# files of the retired v1/v2/v3 formats) must decode to a structured
# error — never a panic or a hostile-length-sized allocation — as must
# every single-byte flip in the blocks of a small v4 trace, and hostile
# field values must round-trip across block boundaries. The
# 100M-branch scale run must round-trip at ≤ 1 byte/inst with peak RSS
# independent of trace length.
cargo test --release -q -p bp-trace
cargo test --release -q --test streaming_scale -- --include-ignored

echo "== differential (release) =="
# The lockstep sweep and lane-vector replay must be behaviour-preserving:
# every registered predictor spec trained as a lane digests identically
# to a solo run, every replay lane matches the scalar path bit-for-bit
# (including ragged lane groups and the u64 cycle fallback), and the
# single-pass grid equals per-config invocations at any thread count.
# The lane-structured TAGE-SC-L kernel is checked against the naive
# reference here too, in the auto-vectorized release build. All of
# bp-pipeline's tests run in release: the lane replay kernel the
# release build selects at run time (the AVX2 copy on a CPU that has
# it) must match scalar `simulate`, the portable copy, and the scalar
# `pipeline.*` counter totals.
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    cargo test --release -q --test differential --test grid_parity --test bit_identity
cargo test --release -q -p bp-pipeline

echo "== sampled replay =="
# The sampled-replay gates: streamed-vs-materialized feature parity, the
# full-suite standard-scale containment sweep, and the ≥2M-branch
# streamed trace reconstructing MPKI within tolerance of its full-replay
# golden — all from the release build so the scale runs stay fast.
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    cargo test --release -q --test sampled_replay -- --include-ignored

# The sampled study report must be byte-identical at any thread count
# (workloads run sequentially precisely so thread scheduling can't
# reorder or perturb the table).
SAMPLED_OUT=target/ci-sampled
rm -rf "$SAMPLED_OUT" && mkdir -p "$SAMPLED_OUT"
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" BRANCH_LAB_THREADS=1 \
    target/release/branch-lab run sampled --quick > "$SAMPLED_OUT/t1.txt"
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" BRANCH_LAB_THREADS=4 \
    target/release/branch-lab run sampled --quick > "$SAMPLED_OUT/t4.txt"
cmp "$SAMPLED_OUT/t1.txt" "$SAMPLED_OUT/t4.txt" \
    || { echo "sampled leg: report must be byte-identical across thread counts"; exit 1; }
grep -q "sampled replay: interval" "$SAMPLED_OUT/t1.txt" \
    || { echo "sampled leg: report missing the resolved sampling banner"; exit 1; }

echo "== fault injection =="
cargo test --release -q --test fault_tolerance

# One keep-going sweep with a deterministically injected child failure:
# the runner must finish the other children, print the summary table,
# write a partial all.json naming the failed child, and exit nonzero —
# then a --resume run must re-run only the failed child.
FAULT_SINK=target/ci-fault-metrics
rm -rf "$FAULT_SINK" && mkdir -p "$FAULT_SINK"
set +e
BRANCH_LAB_FAULTS=all.child.fig3:fail \
BRANCH_LAB_METRICS="$FAULT_SINK" \
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
BRANCH_LAB_RETRY_DELAY_MS=10 \
    target/release/branch-lab all --keep-going --quick \
    > "$FAULT_SINK/all.log" 2> "$FAULT_SINK/all.err"
rc=$?
set -e
[ "$rc" -ne 0 ] || { echo "fault leg: expected nonzero exit from all"; exit 1; }
grep -q "== all: per-child summary ==" "$FAULT_SINK/all.log"
grep -Eq "fig3 +failed: injected fault: child failure +2" "$FAULT_SINK/all.log"
grep -Eq "fig4 +ok +1" "$FAULT_SINK/all.log"
grep -q '"fig3": "failed: injected fault: child failure"' "$FAULT_SINK/all.json"
grep -q '"fig4": "ok"' "$FAULT_SINK/all.json"

BRANCH_LAB_METRICS="$FAULT_SINK" \
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    target/release/branch-lab all --keep-going --resume --quick \
    > "$FAULT_SINK/resume.log" 2> "$FAULT_SINK/resume.err"
[ "$(grep -c 'skipped: already succeeded' "$FAULT_SINK/resume.log")" -eq 15 ] \
    || { echo "fault leg: resume should skip the 15 checkpointed children"; exit 1; }
grep -Eq "fig3 +ok +1" "$FAULT_SINK/resume.log"
grep -q '"fig3": "ok"' "$FAULT_SINK/all.json"

echo "== chaos harness =="
# Deterministic seeded fault schedules driven through the in-process
# `branch-lab all` executor: an injected mid-study engine panic, a forced
# per-study deadline expiry, and a corrupt trace cache must each be
# absorbed (retry / regenerate) with CSV outputs byte-identical to a
# clean run, and a deadline stop must print no panic report; an
# unrecovered failure must exit nonzero; a malformed schedule must be
# refused before anything runs; and a memory budget far below
# the working set must degrade to disk streaming and evict memoized
# intermediates (eviction counters in the merged manifest) without
# changing results.
CHAOS_TRACES=target/ci-chaos-traces
CHAOS_OUT=target/ci-chaos
rm -rf "$CHAOS_TRACES" "$CHAOS_OUT" && mkdir -p "$CHAOS_OUT"

chaos_all() { # <tag> [VAR=val ...] -- extra env for this run
    local tag="$1"; shift
    env BRANCH_LAB_TRACE_DIR="$CHAOS_TRACES" BRANCH_LAB_RETRY_DELAY_MS=10 "$@" \
        target/release/branch-lab all --keep-going --quick --len 40000 \
        --csv "$CHAOS_OUT/$tag" \
        > "$CHAOS_OUT/$tag.log" 2>&1
}

chaos_all clean

chaos_all panic BRANCH_LAB_FAULTS=engine.task:panic@3 BRANCH_LAB_CHAOS_SEED=7
grep -q "injected fault: panic at engine.task" "$CHAOS_OUT/panic.log" \
    || { echo "chaos leg: panic schedule never fired"; exit 1; }
# The engine re-raises the task's own payload, so the executor reports
# the fault's message itself, and all's retry absorbs it.
grep -qF "table1 failed (panicked: injected fault: panic at engine.task)" "$CHAOS_OUT/panic.log" \
    || { echo "chaos leg: the executor must see the task's own panic message"; exit 1; }
grep -Eq "table1 +ok +2" "$CHAOS_OUT/panic.log" \
    || { echo "chaos leg: table1 should recover on its second attempt"; exit 1; }
diff -r "$CHAOS_OUT/clean" "$CHAOS_OUT/panic"

chaos_all timeout BRANCH_LAB_FAULTS=exec.deadline.fig1:fail@1
grep -q "injected fault: deadline expired" "$CHAOS_OUT/timeout.log" \
    || { echo "chaos leg: deadline schedule never fired"; exit 1; }
grep -Eq "fig1 +ok +2" "$CHAOS_OUT/timeout.log" \
    || { echo "chaos leg: fig1 should recover on its second attempt"; exit 1; }
# A cooperative stop is not a crash: no panic report from the checkpoint.
if grep -Eq "panicked at .*cancel\.rs" "$CHAOS_OUT/timeout.log"; then
    echo "chaos leg: a cancelled study printed a panic report"; exit 1
fi
diff -r "$CHAOS_OUT/clean" "$CHAOS_OUT/timeout"

chaos_all corrupt BRANCH_LAB_FAULTS=trace_store.load:fail@1
grep -q "quarantined corrupt trace cache file" "$CHAOS_OUT/corrupt.log" \
    || { echo "chaos leg: corrupt-cache schedule never fired"; exit 1; }
diff -r "$CHAOS_OUT/clean" "$CHAOS_OUT/corrupt"

# Without --keep-going an unrecovered failure must abort the sweep and
# exit nonzero.
set +e
env BRANCH_LAB_TRACE_DIR="$CHAOS_TRACES" BRANCH_LAB_RETRY_DELAY_MS=10 \
    BRANCH_LAB_FAULTS=all.child.table1:fail \
    target/release/branch-lab all --quick --len 40000 \
    > "$CHAOS_OUT/unrecovered.log" 2>&1
rc=$?
set -e
[ "$rc" -ne 0 ] || { echo "chaos leg: unrecovered failure must exit nonzero"; exit 1; }
grep -Eq "table1 +failed: injected fault: child failure +2" "$CHAOS_OUT/unrecovered.log"
grep -q "not-run" "$CHAOS_OUT/unrecovered.log"

# A schedule that does not parse is a usage error (exit 2, the variable
# named on stderr, nothing on stdout), never a fault-free run.
set +e
env BRANCH_LAB_TRACE_DIR="$CHAOS_TRACES" BRANCH_LAB_FAULTS=engine.task:explode \
    target/release/branch-lab all --quick --len 40000 \
    > "$CHAOS_OUT/malformed.out" 2> "$CHAOS_OUT/malformed.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "chaos leg: a malformed schedule must exit 2, got $rc"; exit 1; }
grep -q "BRANCH_LAB_FAULTS" "$CHAOS_OUT/malformed.err" \
    || { echo "chaos leg: a malformed schedule must name BRANCH_LAB_FAULTS"; exit 1; }
[ ! -s "$CHAOS_OUT/malformed.out" ] \
    || { echo "chaos leg: a malformed schedule must print nothing on stdout"; exit 1; }

CHAOS_SINK="$CHAOS_OUT/membudget-metrics"
mkdir -p "$CHAOS_SINK"
chaos_all membudget BRANCH_LAB_MEM_BUDGET=4M BRANCH_LAB_METRICS="$CHAOS_SINK"
grep -q '"trace_store.evict"' "$CHAOS_SINK/all.json" \
    || { echo "chaos leg: memory governor never evicted under a 4M budget"; exit 1; }
grep -q '"trace_store.memo_evict"' "$CHAOS_SINK/all.json" \
    || { echo "chaos leg: memory governor never evicted a memo entry under a 4M budget"; exit 1; }
diff -r "$CHAOS_OUT/clean" "$CHAOS_OUT/membudget"

echo "== serve =="
# The long-running study server must: serve a repeated request from the
# content-addressed cache without re-executing, coalesce two concurrent
# identical requests onto exactly one execution (serve.* counters),
# return bodies byte-identical to the equivalent CLI invocation, answer
# a sweep at new scales from the per-trace memo, and —
# after a kill -9 plus on-disk corruption — quarantine the damaged entry
# (never serve it) while intact entries survive the restart, and survive
# a 64 MiB request line without growing its peak RSS.
#
# The serve integration tests run in release too, so a test whose
# timing only holds in a debug build (a study outlasting its deadline,
# say) fails here instead of passing tier-1 alone.
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    cargo test --release -q --test serve

SERVE_OUT=target/ci-serve
rm -rf "$SERVE_OUT" && mkdir -p "$SERVE_OUT/cache"

serve_start() { # <logfile> — a fresh log per start so the readiness
    # probe can never match a previous instance's banner.
    SERVE_LOG="$SERVE_OUT/$1"
    env BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
        target/release/branch-lab serve --addr 127.0.0.1:0 --workers 4 \
        --cache-dir "$SERVE_OUT/cache" > "$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    disown "$SERVE_PID" # silence job-control noise from the kill -9 below
    # A failing check below exits the script; take the server with it
    # so it does not keep running and holding its port.
    trap 'kill -9 "$SERVE_PID" 2> /dev/null || true' EXIT
    SERVE_ADDR=
    for _ in $(seq 100); do
        SERVE_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\) .*#\1#p' "$SERVE_LOG")
        [ -n "$SERVE_ADDR" ] && break
        sleep 0.1
    done
    [ -n "$SERVE_ADDR" ] || { echo "serve leg: server never announced its address"; exit 1; }
}
smoke() { target/release/serve_smoke --addr "$SERVE_ADDR" "$@"; }

serve_start server1.log
RUN_REQ='{"study": "fig3", "quick": true, "len": 60000}'
smoke --post /run --body "$RUN_REQ" > "$SERVE_OUT/miss.txt" 2> "$SERVE_OUT/miss.err"
grep -q "cache=miss" "$SERVE_OUT/miss.err" || { echo "serve leg: first request must execute"; exit 1; }
smoke --post /run --body "$RUN_REQ" > "$SERVE_OUT/hit.txt" 2> "$SERVE_OUT/hit.err"
grep -q "cache=hit" "$SERVE_OUT/hit.err" || { echo "serve leg: repeat request must hit the cache"; exit 1; }
cmp "$SERVE_OUT/miss.txt" "$SERVE_OUT/hit.txt"

# Byte-identity: the served body is exactly the CLI's stdout.
env BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    target/release/branch-lab run fig3 --quick --len 60000 > "$SERVE_OUT/cli.txt"
cmp "$SERVE_OUT/miss.txt" "$SERVE_OUT/cli.txt" \
    || { echo "serve leg: served body differs from CLI stdout"; exit 1; }

# Two concurrent identical requests on a fresh key: exactly one may
# report cache=miss (the execution); the other joins or hits.
CONC_REQ='{"study": "fig4", "quick": true, "len": 60000}'
smoke --post /run --body "$CONC_REQ" --concurrent 2 > "$SERVE_OUT/conc.txt" 2> "$SERVE_OUT/conc.err"
[ "$(grep -c 'cache=miss' "$SERVE_OUT/conc.err")" -eq 1 ] \
    || { echo "serve leg: concurrent identical requests must execute once"; cat "$SERVE_OUT/conc.err"; exit 1; }

# The counters agree: two executions total (fig3 once, fig4 once)
# across four study requests.
smoke --get /metrics > "$SERVE_OUT/metrics.json" 2> /dev/null
grep -q '"serve.exec": 2' "$SERVE_OUT/metrics.json" \
    || { echo "serve leg: expected exactly 2 executions"; cat "$SERVE_OUT/metrics.json"; exit 1; }

# Sweeps share the per-trace memo: the same workload and predictors at
# other scales is a new result (a miss), yet it trains no predictor and
# prepares no trace again — the memo's hit counter rises — and its body
# is still the CLI's.
SWEEP='"workload": "streaming", "predictors": ["gshare", "tage-sc-l-8kb"], "len": 30000'
memo_hits() {
    smoke --get /metrics 2> /dev/null | sed -n 's/.*"trace_store.memo_hit": \([0-9]*\).*/\1/p'
}
smoke --post /sweep --body "{$SWEEP, \"scales\": [1, 2, 4]}" > /dev/null 2> "$SERVE_OUT/sweep1.err"
grep -q "cache=miss" "$SERVE_OUT/sweep1.err" || { echo "serve leg: first sweep must execute"; exit 1; }
HITS_BEFORE=$(memo_hits)
smoke --post /sweep --body "{$SWEEP, \"scales\": [8, 16, 32]}" > "$SERVE_OUT/sweep2.txt" 2> "$SERVE_OUT/sweep2.err"
grep -q "cache=miss" "$SERVE_OUT/sweep2.err" \
    || { echo "serve leg: a sweep at other scales must execute"; exit 1; }
HITS_AFTER=$(memo_hits)
[ "${HITS_AFTER:-0}" -gt "${HITS_BEFORE:-0}" ] \
    || { echo "serve leg: the second sweep must read the memo (hits $HITS_BEFORE -> $HITS_AFTER)"; exit 1; }
env BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    target/release/branch-lab sweep --workload streaming --predictors gshare,tage-sc-l-8kb \
    --scales 8,16,32 --len 30000 > "$SERVE_OUT/sweep-cli.txt"
cmp "$SERVE_OUT/sweep2.txt" "$SERVE_OUT/sweep-cli.txt" \
    || { echo "serve leg: served sweep differs from CLI stdout"; exit 1; }

# Mixed-config lane chunks: 3 predictors × 5 scales is 15 cells, one
# 16-lane chunk (one padding lane) whose lanes run five different
# pipeline configs. It must miss, answer 200, and match cell by cell
# five single-scale CLI sweeps, whose chunks each hold one config.
MIXED='"workload": "streaming", "predictors": ["gshare", "tage-sc-l-8kb", "bimodal"], "len": 30000'
smoke --post /sweep --body "{$MIXED, \"scales\": [1, 2, 4, 16, 32]}" \
    > "$SERVE_OUT/mixed.txt" 2> "$SERVE_OUT/mixed.err"
grep -q "status=200 cache=miss" "$SERVE_OUT/mixed.err" \
    || { echo "serve leg: the mixed-scale sweep must miss and answer 200"; exit 1; }
table_cells() { # <file> <column>: the table's header and rows as predictor, accuracy, that column
    awk -v c="$2" 'NF && !/^==/ && !/^-+$/ { print $1, $2, $c }' "$1"
}
COL=2
for SCALE in 1 2 4 16 32; do
    COL=$((COL + 1))
    env BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
        target/release/branch-lab sweep --workload streaming \
        --predictors gshare,tage-sc-l-8kb,bimodal --scales "$SCALE" --len 30000 \
        > "$SERVE_OUT/mixed-$SCALE.txt"
    table_cells "$SERVE_OUT/mixed.txt" "$COL" > "$SERVE_OUT/mixed-cells.txt"
    table_cells "$SERVE_OUT/mixed-$SCALE.txt" 3 > "$SERVE_OUT/single-cells.txt"
    [ "$(wc -l < "$SERVE_OUT/single-cells.txt")" -eq 4 ] \
        || { echo "serve leg: the ${SCALE}x sweep has no three-row table"; exit 1; }
    cmp "$SERVE_OUT/mixed-cells.txt" "$SERVE_OUT/single-cells.txt" \
        || { echo "serve leg: mixed-scale sweep differs from the ${SCALE}x sweep"; exit 1; }
done

# Chaos: kill -9, corrupt the fig3 entry on disk as a torn write would,
# restart on the same cache directory.
kill -9 "$SERVE_PID" 2> /dev/null || true
wait "$SERVE_PID" 2> /dev/null || true
FIG3_KEY=$(sed -n 's/.*key=\([0-9a-f]\{16\}\)/\1/p' "$SERVE_OUT/miss.err" | head -n 1)
FIG3_ENTRY="$SERVE_OUT/cache/$FIG3_KEY.blr"
[ -f "$FIG3_ENTRY" ] || { echo "serve leg: fig3 entry never persisted"; exit 1; }
dd if=/dev/zero of="$FIG3_ENTRY" bs=1 count=8 seek=40 conv=notrunc 2> /dev/null

serve_start server2.log
smoke --post /run --body "$RUN_REQ" > "$SERVE_OUT/regen.txt" 2> "$SERVE_OUT/regen.err"
grep -q "cache=miss" "$SERVE_OUT/regen.err" \
    || { echo "serve leg: corrupt entry must re-execute, not serve"; exit 1; }
grep -q "quarantined corrupt cache entry" "$SERVE_OUT/server2.log" \
    || { echo "serve leg: corrupt entry must be quarantined"; exit 1; }
[ -f "$SERVE_OUT/cache/$FIG3_KEY.blr.corrupt-1" ] \
    || { echo "serve leg: quarantine file missing"; exit 1; }
cmp "$SERVE_OUT/regen.txt" "$SERVE_OUT/cli.txt" \
    || { echo "serve leg: regenerated body differs from CLI stdout"; exit 1; }

# The intact fig4 entry survived the kill -9 and serves from disk.
smoke --post /run --body "$CONC_REQ" > "$SERVE_OUT/survivor.txt" 2> "$SERVE_OUT/survivor.err"
grep -q "cache=hit-disk" "$SERVE_OUT/survivor.err" \
    || { echo "serve leg: intact entry must survive restart"; exit 1; }
cmp "$SERVE_OUT/survivor.txt" "$SERVE_OUT/conc.txt"

# A hostile head: one 64 MiB request line with no newline. The parser
# must give up at its 16 KiB head cap instead of buffering the line, so
# the server's peak RSS (VmHWM) stays within 8 MiB of where it was, and
# the server keeps answering. The writer fails once the server closes.
vmhwm_kb() { sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$SERVE_PID/status"; }
HWM_BEFORE=$(vmhwm_kb)
(
    exec 3<> "/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
    head -c $((64 << 20)) /dev/zero | tr '\0' a >&3
) 2> /dev/null || true
smoke --get /healthz > /dev/null 2> "$SERVE_OUT/hostile.err" \
    || { echo "serve leg: server stopped answering after a 64 MiB head"; cat "$SERVE_OUT/hostile.err"; exit 1; }
HWM_AFTER=$(vmhwm_kb)
[ $((HWM_AFTER - HWM_BEFORE)) -le $((8 << 10)) ] \
    || { echo "serve leg: a 64 MiB head raised VmHWM from $HWM_BEFORE to $HWM_AFTER kB"; exit 1; }
kill -9 "$SERVE_PID" 2> /dev/null || true
wait "$SERVE_PID" 2> /dev/null || true
trap - EXIT

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== benchmark self-test =="
# perfbench (BENCHMARK.json's command) is a package of its own, so the
# workspace legs above never build it. Its self-test runs every workload
# traced and untraced at 20K records and checks the pinned replay,
# sampled and serve-mix outputs, the printed metric names and units, and
# that a doubled golden is reported as failed ops. `--locked` fails the
# leg when a crate-graph change would make the benchmark's own build
# rewrite `perfbench/Cargo.lock` (it records each path crate's
# dependencies).
cargo test --release -q --locked --manifest-path perfbench/Cargo.toml

echo "== perf baseline =="
# Gate replay throughput against the checked-in BENCH_*.json (newest by
# filename, at the repo root); since 2026-08-08 the baseline also pins
# the trace codec. Its entries keep the names the baselines key on,
# `trace/encode-v3` and `trace/decode-v3`, and time the current BPTR
# codec (v4). The 50% threshold is a cliff detector for accidental
# slowdowns, not a micro-benchmark gate — CI machines vary.
# Refresh workflow: EXPERIMENTS.md "Replay throughput & the perf baseline".
BRANCH_LAB_TRACE_DIR="${BRANCH_LAB_TRACE_DIR:-target/ci-traces}" \
    cargo run --release -q -p bp-bench --bin bp-perf -- \
    --check-baseline --threshold 0.5 --samples 3

echo "ci: all checks passed"
