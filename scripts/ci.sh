#!/usr/bin/env bash
# Tier-1 CI for the silver-stack workspace.
#
# Everything here is hermetic: no registry access is required (or
# attempted — the build falls back to --offline when the network is
# unavailable), randomness comes only from the in-tree `testkit` PRNG
# seeded by TESTKIT_SEED, and a guard asserts no crate outside
# crates/testkit reaches for proptest / rand / criterion again.
#
# Usage: scripts/ci.sh
#   TESTKIT_SEED=0x...  derive all property-test cases from this seed
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency hygiene guard =="
# No crate outside testkit may mention the old external dependencies.
# (testkit itself only names them in docs/comments.)
violations=$(grep -RnE '\bproptest\b|\brand::|\bcriterion\b' \
    --include='*.rs' --include='Cargo.toml' crates \
    | grep -v '^crates/testkit/' \
    | grep -vE '//.*(proptest|rand|criterion)|#!?\[.*\]|^\s*#' \
    || true)
if [ -n "$violations" ]; then
    echo "forbidden external test dependencies referenced outside crates/testkit:" >&2
    echo "$violations" >&2
    exit 1
fi
echo "ok: no proptest / rand:: / criterion outside crates/testkit"

echo "== build (release) =="
if ! cargo build --release 2>/dev/null; then
    echo "online build failed; retrying with --offline"
    cargo build --release --offline
fi

echo "== tests =="
cargo test -q

echo "== benches compile =="
cargo build --benches -p bench --offline 2>/dev/null || cargo build --benches -p bench

echo "== frozen benchmark builds (--locked) =="
# stackbench/ is its own workspace with a committed Cargo.lock that
# records every crate edge it sees. A workspace API it uses changing,
# or a dependency edge appearing or vanishing, fails this build. Its
# own target dir keeps it apart from the workspace build above.
CARGO_TARGET_DIR=target/stackbench-locked \
    cargo build --release --offline --locked --manifest-path stackbench/Cargo.toml

echo "== campaign smoke (offline, bounded) =="
# A short wall-clock campaign over every registered target, seeded for
# reproducibility. The committed corpus is copied to a scratch dir so
# fuzzing never mutates the checkout; a nonzero exit (any differential
# failure) fails CI.
scratch=$(mktemp -d)
cp corpus/*.seed "$scratch"/ 2>/dev/null || true
./target/release/silver-fuzz --target all --shards 2 --budget 30s --seed 1 \
    --corpus "$scratch" --report "$scratch/BENCH_campaign.json" \
    --metrics "$scratch/BENCH_metrics.json" --no-triage
rm -rf "$scratch"

echo "== observability smoke =="
# The tracing/profiling/VCD paths work end-to-end on a real program,
# and the campaign metrics registry emits per-target histograms. All
# artifacts go to a scratch dir; markers are grepped, not eyeballed.
obs_scratch=$(mktemp -d)
# The paper's sort application (the same source examples/sort.rs runs).
cat > "$obs_scratch/sort.cml" <<'SRC'
val input = read_all ();
val lines = split_lines input;
val sorted = merge_sort string_lt lines;
val _ = print (join_lines sorted);
SRC
printf 'pear\napple\nmango\n' > "$obs_scratch/in.txt"
# Traced + syscall-traced + profiled ISA run.
./target/release/silverc "$obs_scratch/sort.cml" \
    --stdin "$obs_scratch/in.txt" \
    --trace --trace-syscalls --profile "$obs_scratch/isa.folded" \
    > "$obs_scratch/out.txt" 2> "$obs_scratch/err.txt"
grep -q 'apple' "$obs_scratch/out.txt"
grep -q 'retire log' "$obs_scratch/err.txt"
grep -q 'syscall trace' "$obs_scratch/err.txt"
grep -Eq 'write\(conf=' "$obs_scratch/err.txt"
grep -Eq 'rt_|main' "$obs_scratch/isa.folded"
# The observers are tracers on the one run loop, so a shadowed jet run
# observes the same retires and calls (its lockstep's reference side)
# and profiles the same way as the reference engine.
./target/release/silverc "$obs_scratch/sort.cml" \
    --stdin "$obs_scratch/in.txt" --engine jet --shadow \
    --trace --trace-syscalls --profile "$obs_scratch/isa_jet.folded" \
    > "$obs_scratch/out_obs_jet.txt" 2> "$obs_scratch/err_obs_jet.txt"
cmp -s "$obs_scratch/out.txt" "$obs_scratch/out_obs_jet.txt"
observations() {
    grep -E '^silverc: (syscall trace|retire log)|^silverc:   #' "$1"
}
cmp -s <(observations "$obs_scratch/err.txt") <(observations "$obs_scratch/err_obs_jet.txt")
cmp -s "$obs_scratch/isa.folded" "$obs_scratch/isa_jet.folded"
# Traced lockstep: RTL backend with a VCD dump and a cycle profile.
./target/release/silverc "$obs_scratch/sort.cml" \
    --stdin "$obs_scratch/in.txt" --backend rtl \
    --vcd "$obs_scratch/run.vcd" --profile "$obs_scratch/rtl.folded" \
    > "$obs_scratch/out_rtl.txt" 2> "$obs_scratch/err_rtl.txt"
cmp -s "$obs_scratch/out.txt" "$obs_scratch/out_rtl.txt"
grep -q '$scope module silver_cpu $end' "$obs_scratch/run.vcd"
grep -q '$dumpvars' "$obs_scratch/run.vcd"
grep -Eq 'rt_|main' "$obs_scratch/rtl.folded"
# Jet engine smoke: the translation-cache engine must produce the same
# bytes as the reference interpreter, with the lockstep shadow oracle
# (theorem J) checking every retire along the way.
./target/release/silverc "$obs_scratch/sort.cml" \
    --stdin "$obs_scratch/in.txt" --engine jet --shadow \
    > "$obs_scratch/out_jet.txt" 2> "$obs_scratch/err_jet.txt"
cmp -s "$obs_scratch/out.txt" "$obs_scratch/out_jet.txt"
# Snapshot/replay: a checkpointed run writes a rolling checkpoint and
# produces the same stdout as the plain run; the checkpoint resumes on
# either engine and still produces byte-identical stdout (the CLI face
# of the crash-resume equivalence the t-snap target fuzzes).
./target/release/silverc "$obs_scratch/sort.cml" \
    --stdin "$obs_scratch/in.txt" \
    --checkpoint "$obs_scratch/ck.snap" --checkpoint-every 2000 \
    > "$obs_scratch/out_ck.txt" 2> /dev/null
cmp -s "$obs_scratch/out.txt" "$obs_scratch/out_ck.txt"
test -f "$obs_scratch/ck.snap"
./target/release/silverc --resume "$obs_scratch/ck.snap" \
    > "$obs_scratch/out_resume.txt" 2> /dev/null
cmp -s "$obs_scratch/out.txt" "$obs_scratch/out_resume.txt"
./target/release/silverc --resume "$obs_scratch/ck.snap" --engine jet \
    > "$obs_scratch/out_resume_jet.txt" 2> /dev/null
cmp -s "$obs_scratch/out.txt" "$obs_scratch/out_resume_jet.txt"
# Campaign metrics: a tiny seeded campaign must emit latency histograms.
./target/release/silver-fuzz --target t2 --budget 30 --seed 1 --no-triage \
    --report "$obs_scratch/BENCH_campaign.json" \
    --metrics "$obs_scratch/BENCH_metrics.json" --progress \
    2> "$obs_scratch/fuzz_err.txt"
grep -q 'round 1' "$obs_scratch/fuzz_err.txt"
grep -q '"metric":"histogram","name":"campaign.case_us.t2"' \
    "$obs_scratch/BENCH_metrics.json"
rm -rf "$obs_scratch"
echo "ok: trace/syscalls/profile/vcd/metrics all produce their markers"

echo "== service smoke (unix socket, two tenants, one cache hit) =="
# Boot the execution server on a Unix socket with tracing and periodic
# stats on, submit the same program from two tenants (the second must
# be a cache hit), fetch both span trees over the Trace op, poll live
# stats, check the shutdown path, and hold the bench artifact — now a
# time series — to its schema.
svc_scratch=$(mktemp -d)
./target/release/silver-serve --unix "$svc_scratch/svc.sock" --shards 2 \
    --bench "$svc_scratch/BENCH_service.json" \
    --trace-dir "$svc_scratch/traces" --stats-every 150 \
    2> "$svc_scratch/serve.log" &
svc_pid=$!
for _ in $(seq 1 100); do
    [ -S "$svc_scratch/svc.sock" ] && break
    sleep 0.1
done
test -S "$svc_scratch/svc.sock"
./target/release/silver-client --unix "$svc_scratch/svc.sock" submit \
    --tenant alice --app hello --meta \
    > "$svc_scratch/alice.out" 2> "$svc_scratch/alice.err"
grep -q 'Hello from the verified stack!' "$svc_scratch/alice.out"
./target/release/silver-client --unix "$svc_scratch/svc.sock" submit \
    --tenant bob --app hello --meta \
    > "$svc_scratch/bob.out" 2> "$svc_scratch/bob.err"
cmp -s "$svc_scratch/alice.out" "$svc_scratch/bob.out"
grep -q 'cached=true' "$svc_scratch/bob.err"
./target/release/silver-client --unix "$svc_scratch/svc.sock" stats \
    > "$svc_scratch/stats.txt"
grep -q '"name":"service.cache.hits","value":1' "$svc_scratch/stats.txt"
# Trace op: alice's (executed) job shows the full lifecycle, bob's
# (cached) a hit-and-reply; the JSON form is a Chrome trace document.
alice_job=$(sed -nE 's/.*job=([0-9]+).*/\1/p' "$svc_scratch/alice.err")
bob_job=$(sed -nE 's/.*job=([0-9]+).*/\1/p' "$svc_scratch/bob.err")
./target/release/silver-client --unix "$svc_scratch/svc.sock" trace "$alice_job" \
    > "$svc_scratch/alice.trace"
for span in admit cache_lookup tenant_reserve queue_wait compile exec reply; do
    grep -q "$span" "$svc_scratch/alice.trace"
done
./target/release/silver-client --unix "$svc_scratch/svc.sock" trace "$bob_job" \
    > "$svc_scratch/bob.trace"
grep -q 'cache_lookup' "$svc_scratch/bob.trace"
if grep -q ' exec ' "$svc_scratch/bob.trace"; then
    echo "a cache hit must not carry an exec span" >&2
    exit 1
fi
./target/release/silver-client --unix "$svc_scratch/svc.sock" trace "$alice_job" --json \
    > "$svc_scratch/alice.trace.json"
grep -q '"traceEvents":\[' "$svc_scratch/alice.trace.json"
grep -q '"ph":"X"' "$svc_scratch/alice.trace.json"
# Live stats: two polls print qps / inflight / per-shard utilization.
./target/release/silver-client --unix "$svc_scratch/svc.sock" top --every 100 --count 2 \
    > "$svc_scratch/top.out"
[ "$(wc -l < "$svc_scratch/top.out")" -eq 2 ]
grep -q 'qps=' "$svc_scratch/top.out"
grep -q 'inflight=' "$svc_scratch/top.out"
grep -q 'shards\[' "$svc_scratch/top.out"
# Let a few periodic stats lines land before shutting down.
sleep 0.5
./target/release/silver-client --unix "$svc_scratch/svc.sock" shutdown
wait "$svc_pid"
grep -q '"suite":"service"' "$svc_scratch/BENCH_service.json"
grep -q '"divergences":0' "$svc_scratch/BENCH_service.json"
grep -q '"qps":' "$svc_scratch/BENCH_service.json"
# Time series: multiple summary lines, seq strictly increasing down
# the file (live `stats`/`top` polls share the snapshot counter, so
# gaps are fine — the order is the contract, not density).
[ "$(grep -c '"suite":"service"' "$svc_scratch/BENCH_service.json")" -ge 2 ]
grep -q '"seq":0' "$svc_scratch/BENCH_service.json"
grep -o '"seq":[0-9]*' "$svc_scratch/BENCH_service.json" \
    | cut -d: -f2 | sort -cnu
grep -q '"inflight":' "$svc_scratch/BENCH_service.json"
# Shutdown dumped the flight recorder as a Perfetto-loadable document.
grep -q '"traceEvents":\[' "$svc_scratch/traces/TRACE_shutdown.json"
grep -q '"cat":"flight"' "$svc_scratch/traces/TRACE_shutdown.json"
rm -rf "$svc_scratch"
echo "ok: serve/submit/cache-hit/trace/top/stats/shutdown round-trip over unix socket"

echo "== divergence drill (fault injection dumps the flight recorder) =="
# Boot a server with the test-only ALU fault armed and full shadow
# sampling: the first executed job must fail as a divergence and the
# flight recorder must auto-dump a trace naming the job's lifecycle.
div_scratch=$(mktemp -d)
./target/release/silver-serve --unix "$div_scratch/svc.sock" --shards 1 \
    --shadow-every 1 --fault-xor 1 --trace-dir "$div_scratch/traces" \
    2> "$div_scratch/serve.log" &
div_pid=$!
for _ in $(seq 1 100); do
    [ -S "$div_scratch/svc.sock" ] && break
    sleep 0.1
done
test -S "$div_scratch/svc.sock"
if ./target/release/silver-client --unix "$div_scratch/svc.sock" submit \
    --tenant drill --app hello > /dev/null 2> "$div_scratch/drill.err"; then
    echo "fault-injected job must not exit cleanly" >&2
    exit 1
fi
grep -q 'divergence' "$div_scratch/drill.err"
div_dump=$(ls "$div_scratch"/traces/TRACE_divergence_job*.json)
for span in admit compile image_build shadow_check; do
    grep -q "\"name\":\"$span\"" "$div_dump"
done
grep -q '"cat":"flight"' "$div_dump"
./target/release/silver-client --unix "$div_scratch/svc.sock" shutdown
wait "$div_pid"
rm -rf "$div_scratch"
echo "ok: injected divergence auto-dumps a lifecycle-complete flight record"

echo "== service hygiene guard =="
# Serving jet-by-default is only safe while shadow sampling defaults ON,
# and a cached result may never be served without the cache-version
# check (a stale-schema hit must read as a miss, not a wrong answer).
grep -q 'shadow_every_jobs: 8,' crates/service/src/lib.rs
grep -q 'entry.version == CACHE_VERSION' crates/service/src/cache.rs
echo "ok: shadow sampling defaults on; cache lookups are version-checked"

echo "== tracing hygiene guard =="
# Span ordering must come from logical clocks, never wall time: the
# trace module may not read the clock at all (wall readings enter only
# as caller-supplied annotations), timestamps in the Chrome dump are
# the logical clocks, and the canonical determinism form must strip
# both the wall annotations and the physical shard placement.
if grep -nE 'std::time|SystemTime|Instant' crates/obs/src/trace.rs; then
    echo "obs::trace must not read the clock" >&2
    exit 1
fi
# …and the Chrome events' ts fields interpolate those clocks (begin_lc
# or the flight ring sequence), which the clock-free check above keeps
# honest: there is no wall reading in the module to leak into ts.
grep -q '\\"ts\\":{}' crates/obs/src/trace.rs
if sed -n '/pub fn canonical_text/,/^    }/p' crates/obs/src/trace.rs \
    | grep -qE 'wall_us|shard'; then
    echo "canonical trace form must strip wall/shard annotations" >&2
    exit 1
fi
# The builder's wall arguments are annotations, not clocks it takes.
grep -q 'wall_us: Option<u64>' crates/obs/src/trace.rs
echo "ok: span ordering is logical-clock only; wall time is annotation-only"

echo "== observability hygiene guard =="
# Tracing must stay off by default: every plain entry point must
# delegate to its observed sibling with the no-op sink, the observed
# stack runner must degrade to the plain one when nothing is asked
# for, and campaign progress must default off.
grep -q 'pub struct CircuitMachine<O = NoCycleObserver>' crates/silver/src/machine.rs
grep -q 'CircuitMachine::with_circuit(silver_cpu(), initial, cfg, max_cycles, NoCycleObserver)' \
    crates/silver/src/machine.rs
grep -q 'self.run_traced(fuel, &mut NoTrace)' crates/ag32/src/state.rs
grep -q 'run_to_halt_observed(state, layout, fuel, &mut NoTrace)' crates/basis/src/machine.rs
# Run-loop callers without observers hand it the no-op tracer.
grep -q 'Backend::Isa => self.run_isa(image, rc, &mut NoTrace)' crates/core/src/stack.rs
grep -q 'self.run_isa(snap.restore(), rc, &mut NoTrace)' crates/core/src/stack.rs
grep -q 'silver::exec::run(state, &plan, &mut hooks, &mut NoTrace)' crates/service/src/server.rs
grep -q 'if ocfg.is_off()' crates/core/src/stack.rs
grep -q 'progress: false' crates/campaign/src/engine.rs
# And the no-op sinks must really be no-ops (const ACTIVE = false).
grep -A1 'impl Tracer for NoTrace' crates/ag32/src/trace.rs | grep -q 'ACTIVE: bool = false'
echo "ok: tracing is off by default (plain paths use the no-op sinks)"

echo "== engine hygiene guard =="
# The reference interpreter must stay the default engine, shadow mode
# must default off, and the engines bench must never time a shadowed
# (or fault-injected) configuration — shadow is a checking tool, not a
# production setting, and the fault hook exists only so tests can prove
# the shadow oracle catches executor bugs.
grep -q 'engine: Engine::Ref' crates/core/src/stack.rs
grep -q 'shadow: false,' crates/core/src/stack.rs
grep -q 'alu_fault_xor: 0' crates/jet/src/engine.rs
if grep -q 'shadow: Some' crates/bench/benches/engines.rs; then
    echo "benches/engines.rs must not time a shadowed run" >&2
    exit 1
fi
# And shadow mode must actually be exercised where checking happens:
# the engine tests and the t-jet campaign target's run plan.
grep -q 'run_shadow' tests/engines.rs
grep -q 'shadow: Some(Shadow' crates/campaign/src/targets.rs
echo "ok: ref engine default, shadow off by default but exercised in checks"

echo "== engine layering guard =="
# Every ISA engine goes through one run loop (silver::exec) over
# ag32::Machine, one engine enum and one exit predicate
# (basis::classify_exit). The halt sentinel may be compared only inside
# crates/basis, and the per-engine copies this replaced must not
# come back.
if grep -rnE '[!=]= *(basis::image::)?EXIT_UNSET|EXIT_UNSET *[!=]=' \
    --include='*.rs' crates tests examples | grep -v '^crates/basis/'; then
    echo "EXIT_UNSET compared outside crates/basis; use basis::classify_exit" >&2
    exit 1
fi
if grep -rnE 'enum (ServeEngine|SnapEngine)\b|fn run_(ref|jet)_' \
    --include='*.rs' crates tests examples; then
    echo "a per-engine enum or run loop reappeared; use ag32::Engine / silver::exec::run" >&2
    exit 1
fi
# One per-retire observer (ag32::Tracer) on that loop: the second
# observer trait and the separate syscall-tracing pass must not return.
if grep -rnE 'trait Coverage\b|fn run_to_halt_traced\b|fn (run|next)_with\b' \
    --include='*.rs' crates tests examples; then
    echo "a second per-retire observer or run pass reappeared; use an ag32::Tracer on silver::exec::run" >&2
    exit 1
fi
# The circuit level has one machine too: only silver::machine (and the
# rtl/verilog crates themselves) clock the circuit or its Verilog, and
# only crates/ag32 decides which jumps halt (ag32::halts).
if grep -rnE 'interp::(step|step_observed|cycle)\(|verilog::eval::cycle\(' \
    --include='*.rs' crates tests examples \
    | grep -vE '^crates/(rtl|verilog)/|^crates/silver/src/machine\.rs:'; then
    echo "the circuit is clocked outside silver::machine; drive a CircuitMachine" >&2
    exit 1
fi
if grep -rnE 'Func::Snd *=>|func: *(\w+::)*Func::Snd, *a, *\.\.' --include='*.rs' crates tests examples \
    | grep -v '^crates/ag32/'; then
    echo "a halt predicate outside crates/ag32; use ag32::halts" >&2
    exit 1
fi
# That machine has one per-cycle observer (silver::machine::CycleObserver)
# for both the circuit and its Verilog, and each circuit theorem one
# entry point (check_lockstep, check_cpu_verilog_equiv) with its
# forensics; the per-crate observer twins, the forensics-config split
# and the dead traced-oracle run must not return.
if grep -rnE 'trait CycleObserver\b' --include='*.rs' crates tests examples \
    | grep -v '^crates/silver/'; then
    echo "a cycle observer trait outside crates/silver; use silver::machine::CycleObserver" >&2
    exit 1
fi
if grep -rnE 'observes_both_levels|ForensicConfig|fn run_lockstep\b|check_cpu_verilog_equiv_forensic|fn run_with_oracle_traced\b' \
    --include='*.rs' crates tests examples; then
    echo "a second circuit observer or theorem entry point reappeared; use silver::check_lockstep / check_cpu_verilog_equiv" >&2
    exit 1
fi
# A divergence is replayed once, by the lockstep from its own anchor
# (jet::Lockstep::replay): no caller keeps boundary states or runs a
# second lockstep to replay one.
if grep -rnE 'struct LastBoundary\b' --include='*.rs' crates tests examples \
    || grep -rnE 'run_shadow\(' --include='*.rs' crates/core/src crates/campaign/src crates/service/src; then
    echo "a caller-side divergence replay reappeared; use jet::Lockstep::replay" >&2
    exit 1
fi
# One lockstep strength: the lockstep compares the architectural state
# after every retire, so every replay anchor is verified-good. No
# sampled compare (a `sample` field or parameter, a compare counter, the
# CLI flags that set it) and no per-caller tail length may come back.
if grep -rnE -e '--shadow-sample|full_compares|fn with_tail\b' crates tests examples \
    || grep -nF '"--shadow-every"' crates/core/src/bin/silverc.rs \
    || grep -nw 'sample' crates/jet/src/shadow.rs crates/silver/src/exec.rs \
        crates/service/src/lib.rs; then
    echo "a second lockstep strength reappeared; the lockstep compares every retire" >&2
    exit 1
fi
# The exit slot is read only by the exit classifier (and written only by
# the image builder, the compiler and the oracle).
if grep -rn 'exit_code_addr' --include='*.rs' crates tests examples \
    | grep -vE '^crates/(basis|cakeml)/'; then
    echo "the exit slot is touched outside crates/{basis,cakeml}; use basis::classify_exit" >&2
    exit 1
fi
# A checkpoint is the machine state (ag32::State) and nothing else: no
# engine provenance on ag32::Machine and no filesystem section, so ref
# and jet captures of one run are the same bytes.
if grep -nE 'const ENGINE\b' crates/ag32/src/machine.rs \
    || grep -rnE '\bTAG_FS\b|fn with_fs\b|pub mod snap\b' --include='*.rs' crates; then
    echo "a checkpoint records more than the machine state; a snapshot holds only ag32::State" >&2
    exit 1
fi
echo "ok: one run loop, one retire observer, one engine enum, one exit predicate, one circuit machine, one cycle observer, one halt predicate, one divergence replay, one lockstep strength, one checkpoint state"

echo "== snapshot hygiene guard =="
# The snapshot format must stay deterministic: the writers may not read
# the clock, and sparse memory must be serialised in canonical page-id
# order (all-zero pages omitted) so ref and jet captures byte-match.
if grep -nE 'std::time|SystemTime|Instant' crates/silver/src/snapshot.rs; then
    echo "snapshot writers must not read the clock" >&2
    exit 1
fi
grep -q 'nonzero_resident_page_ids' crates/silver/src/snapshot.rs
grep -q 'sort_unstable' crates/ag32/src/mem.rs
# Rolling checkpoints must go through the tmp-plus-rename path so a
# crash mid-write never leaves a torn file.
grep -q 'write_rolling' crates/core/src/stack.rs
echo "ok: snapshot writers are clock-free and canonically ordered"

echo "== engines bench artifact check =="
# `cargo bench --bench engines` (not run here: it times multi-second
# reference-interpreter workloads) emits BENCH_engines.json. When one
# exists in the workspace, hold it to the testkit::bench line schema.
if [ -f BENCH_engines.json ]; then
    while IFS= read -r line; do
        [ -n "$line" ] || continue
        for key in '"suite":"engines"' '"name":' '"median_ns":' '"p95_ns":'; do
            if ! printf '%s' "$line" | grep -qF "$key"; then
                echo "BENCH_engines.json line missing $key: $line" >&2
                exit 1
            fi
        done
    done < BENCH_engines.json
    echo "ok: BENCH_engines.json lines carry the bench schema"
else
    echo "ok: no BENCH_engines.json in workspace (run cargo bench --bench engines to emit one)"
fi

echo "== corpus hygiene =="
# Committed seed files must stay in the two-line format with at most
# 512 choices (the corpus entry cap in crates/campaign/src/corpus.rs).
for f in corpus/*.seed; do
    [ -e "$f" ] || continue
    lines=$(wc -l < "$f")
    choices=$(tail -n 1 "$f" | wc -w)
    if [ "$lines" -gt 2 ] || [ "$choices" -gt 512 ]; then
        echo "corpus seed $f exceeds caps (lines=$lines choices=$choices)" >&2
        exit 1
    fi
done
echo "ok: corpus seeds within format caps"

echo "CI green (TESTKIT_SEED=${TESTKIT_SEED:-default})"
