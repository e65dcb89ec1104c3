//! Engine-equivalence tests: the jet translation-cache engine must be
//! observationally identical to the reference interpreter on the whole
//! application suite (theorem J at the stack level), shadow mode must
//! pass cleanly on real programs, a divergence must surface as a
//! structured [`StackError::Divergence`] with forensics naming the
//! divergent retire, and `check_end_to_end` must attribute jet-engine
//! runs to the `jet` layer.

use silver_stack::{
    apps, check_end_to_end, Backend, CheckOptions, Engine, RunConfig, Stack, StackError,
};

/// Arguments and stdin that drive each suite app through real work.
fn workload(name: &str) -> (Vec<&'static str>, &'static [u8]) {
    match name {
        "hello" => (vec!["hello"], b""),
        "wc" => (vec!["wc"], b"the quick brown fox\njumps over the lazy dog\n"),
        "cat" => (vec!["cat"], b"first\nsecond\nno trailing newline"),
        "sort" => (vec!["sort"], b"pear\napple\nbanana\ncherry\napple\n"),
        "grep" => (vec!["grep", "beta"], b"alpha beta\ngamma\nbeta gamma\ndelta\n"),
        "proof_checker" => {
            (vec!["check"], b"S a iaa a\nK a iaa\nMP 0 1\nK a a\nMP 2 3\n")
        }
        "mini_compiler" => (vec!["minicc"], b"(1 + 2) * (3 + 4) - 5\n"),
        other => panic!("unknown app {other}"),
    }
}

fn rc(engine: Engine, shadow: bool) -> RunConfig {
    RunConfig { engine, shadow, ..RunConfig::default() }
}

#[test]
fn every_app_is_byte_identical_across_engines() {
    let stack = Stack::new();
    for &(name, src) in apps::ALL {
        let (args, stdin) = workload(name);
        let reference = stack
            .run_source(src, &args, stdin, Backend::Isa, &rc(Engine::Ref, false))
            .unwrap_or_else(|e| panic!("{name} on ref engine: {e}"));
        let jet = stack
            .run_source(src, &args, stdin, Backend::Isa, &rc(Engine::Jet, false))
            .unwrap_or_else(|e| panic!("{name} on jet engine: {e}"));
        assert_eq!(jet.exit_code(), reference.exit_code(), "{name}: exit status");
        assert_eq!(jet.stdout, reference.stdout, "{name}: stdout bytes");
        assert_eq!(jet.stderr, reference.stderr, "{name}: stderr bytes");
        assert_eq!(jet.instructions, reference.instructions, "{name}: retire count");
        assert_eq!(jet.stats, reference.stats, "{name}: per-opcode retire counters");
    }
}

#[test]
fn shadow_mode_passes_on_a_real_program() {
    // Shadow (the architectural state compared after every retire) on
    // the sort app: theorem J checked live over a compiled workload.
    let stack = Stack::new();
    let (args, stdin) = workload("sort");
    let r = stack
        .run_source(apps::SORT, &args, stdin, Backend::Isa, &rc(Engine::Jet, true))
        .expect("shadowed jet run agrees with the reference");
    assert_eq!(r.exit_code(), Some(0));
    assert_eq!(r.stdout_utf8(), "apple\napple\nbanana\ncherry\npear\n");
}

#[test]
fn injected_executor_bug_is_caught_by_shadow_with_forensics() {
    // A one-bit ALU fault in the jet executor must be caught by the
    // shadow oracle on a real compiled image, and the forensics report
    // must name the divergent retire.
    let stack = Stack::new();
    let compiled = stack.compile(apps::WC).expect("compiles");
    let (args, stdin) = workload("wc");
    let image = stack.load(&compiled, &args, stdin).expect("image");
    let fx = jet::run_shadow(&image, 4_000_000_000, 1 << 5)
        .expect_err("a faulty executor must not pass shadow");
    assert!(fx.divergent_step.is_some(), "forensics names the divergent retire");
    assert!(!fx.deltas.is_empty(), "forensics lists differing fields");
    let text = fx.render();
    assert!(text.contains("divergent step"), "{text}");
    assert!(text.contains("theorem J"), "{text}");
}

#[test]
fn divergence_surfaces_as_a_structured_stack_error() {
    // End to end through the Stack API: a shadow divergence comes back
    // as StackError::Divergence carrying the forensics, and its Display
    // form includes the report. (No real divergence exists, so inject
    // one through the jet fault hook via a direct shadow run — the
    // stack error constructor is the same path `run_image` uses.)
    let stack = Stack::new();
    let compiled = stack.compile(apps::HELLO).expect("compiles");
    let image = stack.load(&compiled, &["hello"], b"").expect("image");
    let fx = jet::run_shadow(&image, 4_000_000_000, 1).expect_err("fault caught");
    let err = StackError::Divergence(fx);
    let text = err.to_string();
    assert!(text.contains("shadow divergence"), "{text}");
    assert!(text.contains("divergent step"), "{text}");
}

#[test]
fn check_end_to_end_attributes_the_jet_layer() {
    // The checker runs the ISA layer on the jet engine and still agrees
    // with the source semantics and the circuit.
    let stack = Stack::new();
    let opts = CheckOptions { engine: Engine::Jet, ..CheckOptions::default() };
    let report = check_end_to_end(
        &stack,
        apps::HELLO,
        &["hello"],
        b"",
        &opts,
    )
    .expect("all layers agree under the jet engine");
    assert_eq!(report.exit_code, 0);
    assert_eq!(report.stdout, "Hello from the verified stack!\n");
    assert!(report.isa_instructions > 0);
}
