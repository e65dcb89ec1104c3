//! Exact-count determinism and traced-path equivalence: every workload
//! runs twice at a small size with one seed, untraced and traced. Every
//! exact count (retires, code bytes, IR sizes, jet counters, cycles,
//! cache hits, shadowed jobs, checkpoints, slices) must repeat, the
//! traced path must retire exactly what the one-call path retires, and
//! a second seed must change the inputs.

use stackbench::{run, Options, Report, Workload};

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut opts = Options::new(workload, seed, 0.0, trace);
    // Multiples of the traced run's chunk of 8 ops.
    opts.min_ops = match workload {
        Workload::Exec | Workload::Hw => 8,
        Workload::Compile | Workload::Serve => 16,
    };
    let report = run(&opts);
    assert!(
        report.failures.is_empty(),
        "{workload:?} trace={trace}: {:?}",
        report.failures
    );
    assert_eq!(
        report.attempted, opts.min_ops,
        "a zero-second run does exactly min_ops ops"
    );
    report
}

/// `(name, unit)` of every metric listed under `key` in the root
/// `BENCHMARK.json`, sorted.
fn manifest(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\""))
        .expect("key in BENCHMARK.json");
    let list = &text[start..];
    let list = &list[..list.find(']').expect("list ends")];
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\": \"")).expect("field in entry") + f.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .unwrap_or_default()
            .to_string()
    };
    let mut v: Vec<(String, String)> = list
        .split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    v.sort();
    v
}

/// `(name, unit)` of every metric a run printed, sorted.
fn printed(report: &Report) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

fn check_workload(workload: Workload, layer_counts: &[&str]) {
    let plain = small(workload, 7, false);
    assert_eq!(
        printed(&plain),
        manifest("end_to_end"),
        "{workload:?}: an untraced run prints every end-to-end metric"
    );
    assert_eq!(
        plain.exact,
        small(workload, 7, false).exact,
        "{workload:?}: untraced exact counts"
    );

    let traced = small(workload, 7, true);
    assert_eq!(
        printed(&traced),
        manifest("per_layer"),
        "{workload:?}: a traced run prints every per-layer metric"
    );
    assert_eq!(
        traced.exact,
        small(workload, 7, true).exact,
        "{workload:?}: traced exact counts"
    );
    for name in ["retired", "code_bytes"] {
        assert!(
            plain.exact(name).is_some_and(|v| v > 0),
            "{workload:?}: {name} counted"
        );
        assert_eq!(
            plain.exact(name),
            traced.exact(name),
            "{workload:?}: traced path changes {name}"
        );
    }
    for name in layer_counts {
        assert!(
            traced.exact(name).is_some(),
            "{workload:?}: traced run counts {name}"
        );
    }
    assert_eq!(
        plain.inputs, traced.inputs,
        "{workload:?}: both paths run the same inputs"
    );
    assert_ne!(
        plain.inputs,
        small(workload, 8, false).inputs,
        "{workload:?}: a second seed changes the inputs"
    );
}

#[test]
fn compile_is_deterministic() {
    check_workload(
        Workload::Compile,
        &[
            "cakeml.ast_decls",
            "cakeml.anf_vars",
            "cakeml.flat_funs",
            "jet.blocks_decoded",
        ],
    );
}

#[test]
fn exec_is_deterministic() {
    check_workload(
        Workload::Exec,
        &["jet.chain_hits", "jet.redecodes", "jet.slow_steps"],
    );
}

#[test]
fn serve_is_deterministic() {
    check_workload(
        Workload::Serve,
        &[
            "service.cache_hits",
            "service.shadowed_jobs",
            "service.checkpoints",
            "service.slices",
        ],
    );
    let plain = small(Workload::Serve, 7, false);
    assert!(
        plain.exact("service.cache_hits").is_some_and(|v| v > 0),
        "resubmissions hit the cache"
    );
    assert!(
        plain.exact("service.shadowed_jobs").is_some_and(|v| v > 0),
        "some jobs are shadow-checked"
    );
    assert_eq!(
        small(Workload::Serve, 7, true).exact("service.unattributed_us"),
        Some(0),
        "the fold accounts for every job span"
    );
}

#[test]
fn hw_is_deterministic() {
    check_workload(Workload::Hw, &["rtl.cycles", "verilog.cycles"]);
}

#[test]
fn traced_runs_report_their_overhead() {
    let traced = small(Workload::Hw, 3, true);
    for name in ["trace.overhead_ms", "rtl.run_ms", "sim_kcycles_per_s"] {
        assert!(
            traced.metric(name).is_some(),
            "traced hw run reports {name}"
        );
    }
    let line = traced.json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {"),
        "{line}"
    );
}
