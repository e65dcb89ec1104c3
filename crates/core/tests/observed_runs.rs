//! Observed ISA runs: the retire log, the profile and the system-call
//! trace are tracers on the one run loop, so what they observe is the
//! run that produced the result — on every engine configuration.

use silver_stack::{apps, Backend, Engine, Observations, Observe, RunConfig, Stack, StackResult};

fn observe_all() -> Observe {
    Observe { retire_log: 16, profile: true, syscalls: true, ..Observe::default() }
}

fn observed(src: &str, args: &[&str], stdin: &[u8], rc: &RunConfig) -> (StackResult, Observations) {
    Stack::new()
        .run_source_observed(src, args, stdin, Backend::Isa, rc, &observe_all())
        .expect("observed run")
}

/// The rendered system-call traces of two corpus apps, as the
/// pure-`Next` syscall pass printed them before tracing moved onto the
/// run loop.
#[test]
fn syscall_traces_of_corpus_apps_are_pinned() {
    let cases: [(&str, &str, &[u8], &str); 2] = [
        (
            "wc",
            apps::WC,
            b"the quick brown\nfox jumps\n",
            "#0 read(conf=\"0\", bytes=16003) -> machine status 0 | stdin@26/26\n\
             #1 read(conf=\"0\", bytes=16003) -> machine status 0 | stdin@26/26\n\
             #2 write(conf=\"1\", bytes=10) -> machine status 0 | stdin@26/26\n",
        ),
        (
            "proof",
            apps::PROOF_CHECKER,
            b"K a b\nMP 0 0\n",
            "#0 read(conf=\"0\", bytes=16003) -> machine status 0 | stdin@13/13\n\
             #1 read(conf=\"0\", bytes=16003) -> machine status 0 | stdin@13/13\n\
             #2 write(conf=\"1\", bytes=22) -> machine status 0 | stdin@13/13\n\
             #3 write(conf=\"1\", bytes=16) -> machine status 0 | stdin@13/13\n",
        ),
    ];
    for (name, src, stdin, expected) in cases {
        let (_, obs) = observed(src, &[name], stdin, &RunConfig::default());
        let trace = obs.syscalls.expect("syscall trace requested");
        assert_eq!(trace.render(), expected, "{name}");
    }
}

/// Every engine configuration observes the same retires and calls, and
/// returns the unobserved run's result.
#[test]
fn every_engine_configuration_observes_the_same_run() {
    let stdin = b"pear\napple\nmango\n";
    let plain = Stack::new()
        .run_source(apps::SORT, &["sort"], stdin, Backend::Isa, &RunConfig::default())
        .expect("unobserved run");
    let render = |obs: &Observations| {
        (
            obs.retire_log.as_ref().expect("retire log").render(),
            obs.retire_log.as_ref().expect("retire log").total(),
            obs.profile.as_ref().expect("profile").folded(),
            obs.syscalls.as_ref().expect("syscall trace").render(),
        )
    };
    let (ref_result, ref_obs) = observed(apps::SORT, &["sort"], stdin, &RunConfig::default());
    assert_eq!(ref_result.stdout, plain.stdout);
    assert_eq!(ref_result.instructions, plain.instructions);
    assert_eq!(ref_result.stats, plain.stats);
    assert_eq!(ref_obs.retire_log.as_ref().map(|r| r.total()), Some(plain.instructions));

    for shadow in [false, true] {
        let rc = RunConfig { engine: Engine::Jet, shadow, ..RunConfig::default() };
        let (result, obs) = observed(apps::SORT, &["sort"], stdin, &rc);
        assert_eq!(result.exit, plain.exit, "{shadow:?}");
        assert_eq!(result.stdout, plain.stdout, "{shadow:?}");
        assert_eq!(result.instructions, plain.instructions, "{shadow:?}");
        assert_eq!(result.stats, plain.stats, "{shadow:?}");
        assert_eq!(render(&obs), render(&ref_obs), "{shadow:?}");
    }
}
