//! Full-stack crash-resume: a real compiled application, interrupted at
//! an arbitrary retire count and resumed from its rolling checkpoint
//! file, is indistinguishable from the uninterrupted run — across the
//! whole capture-engine × resume-engine matrix (ref→ref, ref→jet,
//! jet→ref, jet→jet). This is `testkit::crash_resume_equiv` driven
//! through the public `Stack` API and the on-disk snapshot format, the
//! way `silverc --checkpoint/--resume` exercises it.

use std::path::PathBuf;

use silver_stack::{
    apps, Backend, Engine, ExitStatus, Observe, RunConfig, Snapshot, Stack, StackError,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silver-ckpt-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Everything the crash-resume contract preserves.
type Outcome = (ExitStatus, Vec<u8>, Vec<u8>, u64, Option<ag32::ExecStats>);

fn outcome(r: &silver_stack::StackResult) -> Outcome {
    (r.exit.clone(), r.stdout.clone(), r.stderr.clone(), r.instructions, r.stats.clone())
}

fn engine_rc(engine: Engine) -> RunConfig {
    RunConfig { engine, ..RunConfig::default() }
}

#[test]
fn crash_resume_matrix_over_a_real_app() {
    let stack = Stack::new();
    let compiled = stack.compile(apps::SORT).expect("sort compiles");
    let image = stack
        .load(&compiled, &["sort"], b"pear\napple\nbanana\ncherry\napple\n")
        .expect("image loads");

    let baseline = stack
        .run_image(image.clone(), Backend::Isa, &engine_rc(Engine::Ref))
        .expect("uninterrupted run");
    let total = baseline.instructions;
    assert!(total > 1_000, "workload too small to interrupt meaningfully");
    let kill_points = [total / 7, total / 2, total - 1];

    for capture in [Engine::Ref, Engine::Jet] {
        for resume in [Engine::Ref, Engine::Jet] {
            let dir = scratch(&format!("{capture:?}-{resume:?}"));
            testkit::crash_resume_equiv(
                &kill_points,
                || outcome(&baseline),
                |k| {
                    // Simulate the crash: run out of fuel at retire k
                    // with the rolling checkpoint landing exactly there,
                    // keep only what survived on disk.
                    let path = dir.join(format!("kill-{k}.snap"));
                    let rc = RunConfig {
                        fuel: k,
                        checkpoint: Some(path.clone()),
                        checkpoint_interval: Some(k),
                        ..engine_rc(capture)
                    };
                    let interrupted = stack
                        .run_image(image.clone(), Backend::Isa, &rc)
                        .expect("interrupted run itself succeeds");
                    assert_eq!(interrupted.exit, ExitStatus::OutOfFuel);
                    Snapshot::read_from(&path).expect("rolling checkpoint file loads")
                },
                |snap| {
                    assert!(snap.retired() > 0, "checkpoint captured mid-run");
                    let r = stack
                        .resume_snapshot(&snap, &engine_rc(resume))
                        .expect("resume succeeds");
                    outcome(&r)
                },
            )
            .unwrap_or_else(|report| panic!("{capture:?} -> {resume:?}: {report}"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn rolling_checkpoint_bytes_are_deterministic_and_engine_independent() {
    let stack = Stack::new();
    let compiled = stack.compile(apps::WC).expect("wc compiles");
    let image = stack.load(&compiled, &["wc"], b"some words here\n").expect("image loads");
    let dir = scratch("determinism");
    let k = 20_000u64;

    let mut files = Vec::new();
    for (label, engine) in [("ref-a", Engine::Ref), ("ref-b", Engine::Ref), ("jet", Engine::Jet)]
    {
        let path = dir.join(format!("{label}.snap"));
        let rc = RunConfig {
            fuel: k,
            checkpoint: Some(path.clone()),
            checkpoint_interval: Some(k),
            ..engine_rc(engine)
        };
        stack.run_image(image.clone(), Backend::Isa, &rc).expect("interrupted run");
        files.push(std::fs::read(&path).expect("checkpoint written"));
    }

    assert_eq!(files[0], files[1], "two identical runs write identical checkpoint bytes");
    assert_eq!(files[2], files[0], "ref and jet rolling checkpoints are byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_corrupt_file_is_a_typed_error() {
    let stack = Stack::new();
    let dir = scratch("corrupt");
    let path = dir.join("garbage.snap");
    std::fs::write(&path, b"this is not a snapshot").expect("write garbage");
    match stack.resume_file(&path, &RunConfig::default()) {
        Err(StackError::Snapshot(_)) => {}
        other => panic!("expected StackError::Snapshot, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observed_runs_write_checkpoints_that_resume_like_unobserved_runs() {
    let stack = Stack::new();
    let compiled = stack.compile(apps::SORT).expect("sort compiles");
    let image = stack.load(&compiled, &["sort"], b"pear\napple\nmango\n").expect("image loads");
    let plain = stack
        .run_image(image.clone(), Backend::Isa, &engine_rc(Engine::Ref))
        .expect("unobserved run");

    let dir = scratch("observed");
    let path = dir.join("observed.snap");
    let ocfg = Observe { retire_log: 8, syscalls: true, ..Observe::default() };
    let rc = RunConfig {
        checkpoint: Some(path.clone()),
        checkpoint_interval: Some(plain.instructions / 3),
        ..engine_rc(Engine::Ref)
    };
    let (observed, obs) = stack
        .run_image_observed(&compiled, image, Backend::Isa, &rc, &ocfg)
        .expect("observed run");
    assert_eq!(outcome(&observed), outcome(&plain), "observing changes nothing");
    assert!(obs.retire_log.is_some() && obs.syscalls.is_some());

    let snap = Snapshot::read_from(&path).expect("the observed run wrote its checkpoint");
    assert!(snap.retired() > 0 && snap.retired() < plain.instructions);
    let resumed = stack.resume_snapshot(&snap, &engine_rc(Engine::Ref)).expect("resume succeeds");
    assert_eq!(outcome(&resumed), outcome(&plain));
    let _ = std::fs::remove_dir_all(&dir);
}
