//! Crash-resume at the service level: kill a worker mid-job, respawn
//! it, and assert the migrated job's outcome is byte-identical to an
//! uninterrupted run — the PR 6 checkpoint contract, now exercised as
//! live job migration through the shared work queue.
//!
//! Shadowed jobs migrate too: the lockstep of both engines is driven by
//! the same slice loop, so a resumed segment is checked again.
//!
//! The kill uses the deterministic tripwire
//! (`inject_kill_after_checkpoints`): the worker that captures the
//! armed rolling checkpoint requeues its job *and genuinely stops*, so
//! the respawn path runs exactly as it would after a real worker death.

use std::time::{Duration, Instant};

use service::{
    Engine, EnginePref, JobOutcome, JobSpec, JobStatus, Service, ServiceConfig, ShadowPref,
};

const SORT: &str = r#"
val input = read_all ();
val lines = split_lines input;
val sorted = merge_sort string_lt lines;
val _ = print (join_lines sorted);
"#;

/// Enough work that the job crosses many checkpoint boundaries at
/// `checkpoint_every = 10_000`.
fn big_stdin() -> Vec<u8> {
    let mut s = String::new();
    for i in 0..64 {
        s.push_str(&format!("line-{:03}\n", (i * 37) % 100));
    }
    s.into_bytes()
}

fn spec(engine: EnginePref) -> JobSpec {
    let mut spec = JobSpec::new("crash-tenant", SORT);
    spec.stdin = big_stdin();
    spec.engine = engine;
    spec
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        checkpoint_every: 10_000,
        cache_capacity: 0, // force real execution on both runs
        // No sampling: a sampled job would run as the lockstep, and the
        // engine tests below must exercise the engine they name.
        // Shadowed runs ask for it per job (`ShadowPref::Always`).
        shadow_every_jobs: 0,
        ..ServiceConfig::default()
    }
}

/// Runs `spec` on a fresh one-shard service whose only worker dies at
/// rolling checkpoint `kill_at`; a respawned worker finishes the job
/// from the checkpoint the dead one requeued.
fn killed_and_resumed(cfg: ServiceConfig, spec: JobSpec, kill_at: u64) -> JobOutcome {
    let svc = Service::start(cfg);
    svc.inject_kill_after_checkpoints(kill_at);
    let rx = svc.submit_async(spec).expect("job admitted");

    let deadline = Instant::now() + Duration::from_secs(120);
    while svc.checkpoints() < kill_at {
        assert!(
            Instant::now() < deadline,
            "job produced only {} checkpoints before the tripwire point — \
             too short to interrupt?",
            svc.checkpoints()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The only worker is dead (or dying). A replacement picks the job
    // back up from its requeued checkpoint.
    let replacement = svc.respawn_worker().expect("pool still alive");
    assert_eq!(replacement, 1, "shard 0 died; the replacement is slot 1");

    let resumed = rx.recv_timeout(Duration::from_secs(120)).expect("migrated job completed");
    assert!(resumed.migrations >= 1, "job was never actually migrated: {resumed:?}");
    assert_eq!(svc.spawned_workers(), 2);
    svc.shutdown();
    resumed
}

/// An uninterrupted run of `spec` on a fresh service.
fn uninterrupted(spec: JobSpec) -> JobOutcome {
    let svc = Service::start(cfg());
    let out = svc.submit(spec).expect("baseline admitted");
    assert_eq!(out.status, JobStatus::Exited(0), "{out:?}");
    assert_eq!(out.migrations, 0);
    svc.shutdown();
    out
}

fn kill_resume_matches_uninterrupted(engine: EnginePref, expect_engine: Engine) {
    let baseline = uninterrupted(spec(engine));
    assert_eq!(baseline.engine, expect_engine);
    let resumed = killed_and_resumed(cfg(), spec(engine), 3);
    assert_eq!(resumed.status, JobStatus::Exited(0), "{resumed:?}");
    assert!(
        resumed.result_bytes_eq(&baseline),
        "migrated run differs from uninterrupted run:\n  baseline: {baseline:?}\n  resumed: {resumed:?}"
    );
}

#[test]
fn killed_ref_job_resumes_byte_identical() {
    kill_resume_matches_uninterrupted(EnginePref::Ref, Engine::Ref);
}

#[test]
fn killed_jet_job_resumes_byte_identical() {
    kill_resume_matches_uninterrupted(EnginePref::Jet, Engine::Jet);
}

/// A shadowed job runs as the lockstep of both engines, so it
/// checkpoints and migrates like any other: killed mid-lockstep, it
/// resumes shadowed on the replacement worker and ends byte-identical
/// to an unshadowed run. The resumed segment really is checked — with
/// a jet fault that first bites past the resume point, the resumed
/// lockstep reports the divergence, anchored at that point.
#[test]
fn killed_shadowed_job_resumes_in_lockstep() {
    let mut shadowed = spec(EnginePref::Jet);
    shadowed.shadow = ShadowPref::Always;

    let baseline = uninterrupted(spec(EnginePref::Jet));
    assert!(!baseline.shadowed);
    let resumed = killed_and_resumed(cfg(), shadowed.clone(), 3);
    assert!(resumed.shadowed, "{resumed:?}");
    assert_eq!(resumed.status, JobStatus::Exited(0), "{resumed:?}");
    assert!(
        resumed.result_bytes_eq(&baseline),
        "migrated lockstep run differs from the unshadowed run:\n  baseline: {baseline:?}\n  resumed: {resumed:?}"
    );

    // The program's first ALU op is its 15th retire: the first segment
    // reaches the boundary at retire 8 cleanly and dies there, and the
    // fault bites in the resumed segment.
    let faulty = ServiceConfig {
        checkpoint_every: 8,
        shadow_every_jobs: 1,
        fault_xor: 1,
        ..cfg()
    };
    let diverged = killed_and_resumed(faulty, shadowed, 1);
    assert_eq!(diverged.status, JobStatus::Divergence, "{diverged:?}");
    assert!(diverged.shadowed);
    assert!(diverged.message.contains("replay anchor: retire 8"), "{}", diverged.message);
}

#[test]
fn kill_and_respawn_on_an_idle_pool_keeps_serving() {
    let svc = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() });
    assert!(svc.kill_worker(0), "worker 0 exists");
    svc.respawn_worker().expect("pool alive");
    let out = svc
        .submit(JobSpec::new("t", "val _ = print \"still here\\n\";"))
        .expect("admitted after respawn");
    assert_eq!(out.status, JobStatus::Exited(0), "{out:?}");
    assert_eq!(out.stdout, b"still here\n");
    svc.shutdown();
}
