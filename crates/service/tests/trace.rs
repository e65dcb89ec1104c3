//! Per-job tracing contracts: full lifecycle coverage, logical-clock
//! determinism across runs, automatic flight-recorder dumps on shadow
//! divergence and worker death, and the `Trace` wire op end to end.

use std::time::{Duration, Instant};

use obs::trace::SpanKind;
use service::{EnginePref, JobSpec, JobStatus, Service, ServiceConfig};

const SORT: &str = r#"
val input = read_all ();
val lines = split_lines input;
val sorted = merge_sort string_lt lines;
val _ = print (join_lines sorted);
"#;

const HELLO: &str = r#"
val _ = print "Hello from the verified stack!\n";
"#;

fn big_stdin() -> Vec<u8> {
    let mut s = String::new();
    for i in 0..64 {
        s.push_str(&format!("line-{:03}\n", (i * 37) % 100));
    }
    s.into_bytes()
}

fn sort_spec(tenant: &str) -> JobSpec {
    let mut spec = JobSpec::new(tenant, SORT);
    spec.stdin = big_stdin();
    spec
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("silver-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn kinds(trace: &obs::trace::JobTrace) -> Vec<SpanKind> {
    trace.spans.iter().map(|s| s.kind).collect()
}

#[test]
fn trace_covers_the_full_job_lifecycle() {
    let svc = Service::start(ServiceConfig {
        shards: 1,
        checkpoint_every: 10_000,
        shadow_every_jobs: 1,
        ..ServiceConfig::default()
    });
    let out = svc.submit(sort_spec("t")).expect("admitted");
    assert_eq!(out.status, JobStatus::Exited(0), "{out:?}");
    assert!(out.job_id > 0, "every outcome carries its job id");

    let trace = svc.trace(out.job_id).expect("trace stored for the job id");
    assert_eq!(trace.job_id, out.job_id);
    let ks = kinds(&trace);
    for want in [
        SpanKind::Job,
        SpanKind::Admit,
        SpanKind::CacheLookup,
        SpanKind::TenantReserve,
        SpanKind::QueueWait,
        SpanKind::Compile,
        SpanKind::ImageBuild,
        SpanKind::ShadowCheck,
        SpanKind::Exec,
        SpanKind::Slice,
        SpanKind::Checkpoint,
        SpanKind::Reply,
    ] {
        assert!(ks.contains(&want), "lifecycle span {want:?} missing: {ks:?}");
    }

    // Logical clocks: begin order is strictly increasing, the root Job
    // span encloses everything, and the Exec span's end arg is the
    // retire count the outcome reported.
    for w in trace.spans.windows(2) {
        assert!(w[0].begin_lc < w[1].begin_lc, "span begins must be strictly ordered");
    }
    let root = &trace.spans[0];
    assert_eq!(root.kind, SpanKind::Job);
    assert!(trace.spans.iter().all(|s| s.end_lc <= root.end_lc), "root encloses all");
    let exec = trace.spans.iter().find(|s| s.kind == SpanKind::Exec).expect("exec span");
    assert_eq!(exec.arg, out.instructions, "exec span arg is the retire count");
    // Slices carry monotonically increasing retire counts.
    let slice_args: Vec<u64> =
        trace.spans.iter().filter(|s| s.kind == SpanKind::Slice).map(|s| s.arg).collect();
    assert!(slice_args.windows(2).all(|w| w[0] <= w[1]), "slice retires: {slice_args:?}");
    svc.shutdown();
}

#[test]
fn cache_hits_get_fresh_ids_and_tiny_traces() {
    let svc = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() });
    let miss = svc.submit(JobSpec::new("a", HELLO)).expect("admitted");
    let hit = svc.submit(JobSpec::new("b", HELLO)).expect("admitted");
    assert!(hit.cached);
    assert_ne!(miss.job_id, hit.job_id, "a cache hit is its own submission");

    let t = svc.trace(hit.job_id).expect("hit trace stored");
    let ks = kinds(&t);
    assert!(ks.contains(&SpanKind::CacheLookup));
    assert!(ks.contains(&SpanKind::Reply));
    assert!(!ks.contains(&SpanKind::Exec), "a cache hit executes nothing: {ks:?}");
    let lookup = t.spans.iter().find(|s| s.kind == SpanKind::CacheLookup).expect("lookup");
    assert_eq!(lookup.arg, 1, "lookup arg records the hit");

    let t = svc.trace(miss.job_id).expect("miss trace stored");
    let lookup = t.spans.iter().find(|s| s.kind == SpanKind::CacheLookup).expect("lookup");
    assert_eq!(lookup.arg, 0, "lookup arg records the miss");
    svc.shutdown();
}

#[test]
fn canonical_traces_are_byte_identical_across_runs() {
    // The determinism contract: same seed ⇒ same job ids ⇒ the same
    // logical-clock span trees, byte for byte, across two fresh
    // services — regardless of shard placement or wall-clock jitter
    // (both are stripped from the canonical form).
    let run = || -> Vec<String> {
        let svc = Service::start(ServiceConfig {
            shards: 2,
            checkpoint_every: 10_000,
            shadow_every_jobs: 2,
            ..ServiceConfig::default()
        });
        let mut specs = vec![
            JobSpec::new("a", HELLO),
            sort_spec("b"),
            JobSpec::new("c", HELLO), // cache hit on job 1
            sort_spec("a"),           // cache hit on job 2
        ];
        specs[1].engine = EnginePref::Jet;
        specs[3].engine = EnginePref::Jet;
        let mut texts = Vec::new();
        for spec in specs {
            let out = svc.submit(spec).expect("admitted");
            let trace = svc.trace(out.job_id).expect("trace stored");
            texts.push(trace.canonical_text());
        }
        svc.shutdown();
        texts
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "canonical span trees must be run-invariant");
    // And they are genuinely per-job: ids differ, so do the headers.
    assert!(first[0].starts_with("job 1\n"), "{}", first[0]);
    assert!(first[1].starts_with("job 2\n"), "{}", first[1]);
}

#[test]
fn shadow_divergence_dumps_the_flight_recorder() {
    let dir = scratch_dir("divergence");
    let svc = Service::start(ServiceConfig {
        shards: 1,
        shadow_every_jobs: 1,
        trace_dir: Some(dir.clone()),
        fault_xor: 1, // flips one ALU bit inside the shadow check
        ..ServiceConfig::default()
    });
    let out = svc.submit(JobSpec::new("t", HELLO)).expect("admitted");
    assert_eq!(out.status, JobStatus::Divergence, "{out:?}");
    assert!(!out.cached, "a diverged result must never be cached");
    assert_eq!(svc.divergences(), 1);

    let dump = dir.join(format!("TRACE_divergence_job{}.json", out.job_id));
    let doc = std::fs::read_to_string(&dump).expect("divergence auto-dump exists");
    assert!(doc.starts_with("{\"traceEvents\":["), "chrome trace shape: {doc:.>40}");
    assert!(doc.trim_end().ends_with('}'));
    // The dump names the job's lifecycle so far, flight events included.
    for name in ["admit", "compile", "image_build", "shadow_check"] {
        assert!(doc.contains(&format!("\"name\":\"{name}\"")), "dump missing {name}");
    }
    assert!(doc.contains("\"cat\":\"flight\""), "flight-recorder events present");
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_death_emits_migration_spans_and_a_dump() {
    let dir = scratch_dir("death");
    let svc = Service::start(ServiceConfig {
        shards: 1,
        checkpoint_every: 10_000,
        cache_capacity: 0,
        trace_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    svc.inject_kill_after_checkpoints(3);
    let rx = svc.submit_async(sort_spec("t")).expect("admitted");

    let deadline = Instant::now() + Duration::from_secs(120);
    while svc.checkpoints() < 3 {
        assert!(Instant::now() < deadline, "job too short to interrupt");
        std::thread::sleep(Duration::from_millis(2));
    }
    svc.respawn_worker().expect("pool alive");
    let out = rx.recv_timeout(Duration::from_secs(120)).expect("migrated job completed");
    assert!(out.migrations >= 1, "{out:?}");
    assert_eq!(out.status, JobStatus::Exited(0), "{out:?}");

    // The trace shows the interrupted first attempt and the resume.
    let trace = svc.trace(out.job_id).expect("trace stored");
    let ks = kinds(&trace);
    assert!(ks.contains(&SpanKind::Migrate), "{ks:?}");
    assert!(ks.contains(&SpanKind::Requeue), "{ks:?}");
    let queue_waits = ks.iter().filter(|k| **k == SpanKind::QueueWait).count();
    let execs = ks.iter().filter(|k| **k == SpanKind::Exec).count();
    assert!(queue_waits >= 2, "requeued job waits twice: {ks:?}");
    assert!(execs >= 2, "interrupted + resumed exec segments: {ks:?}");
    // The Migrate instant carries the checkpoint's retire count, and
    // the resumed Exec span begins from at least that point.
    let migrate = trace.spans.iter().find(|s| s.kind == SpanKind::Migrate).expect("migrate");
    assert!(migrate.arg > 0, "migration happened at a real checkpoint");
    let last_exec =
        trace.spans.iter().filter(|s| s.kind == SpanKind::Exec).last().expect("resumed exec");
    assert!(last_exec.begin_lc > migrate.begin_lc, "resume follows migration");

    let dump = dir.join("TRACE_worker_death_shard0.json");
    let doc = std::fs::read_to_string(&dump).expect("worker-death auto-dump exists");
    assert!(doc.contains("\"name\":\"migrate\""), "dump names the migration");
    assert!(doc.contains("\"name\":\"requeue\""), "dump names the requeue");
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_dump_and_trace_store_bounds() {
    let dir = scratch_dir("shutdown");
    let svc = Service::start(ServiceConfig {
        shards: 1,
        trace_capacity: 2,
        trace_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut ids = Vec::new();
    for t in ["a", "b", "c"] {
        // Distinct sources: three real executions, three traces.
        let spec = JobSpec::new(t, &format!("val _ = print \"{t}\";"));
        ids.push(svc.submit(spec).expect("admitted").job_id);
    }
    // Capacity 2: the oldest trace is evicted, the newest two serve.
    assert!(svc.trace(ids[0]).is_none(), "oldest trace evicted");
    assert!(svc.trace(ids[1]).is_some());
    assert!(svc.trace(ids[2]).is_some());
    assert!(svc.trace(999_999).is_none(), "unknown ids are None, not errors");

    svc.shutdown();
    let doc = std::fs::read_to_string(dir.join("TRACE_shutdown.json"))
        .expect("shutdown dump exists");
    assert!(doc.starts_with("{\"traceEvents\":["));
    let _ = std::fs::remove_dir_all(&dir);
}
