//! Cross-crate layer tests: Figure 1 walked top to bottom for one
//! program, exercising each artefact boundary explicitly (rather than
//! through the convenience API).

use basis::{build_image, run_to_halt, run_with_oracle, ExitStatus, FsState};
use cakeml::{compile_source, CompilerConfig, TargetLayout};
use silver_stack::{Backend, RunConfig, Stack};

const SRC: &str = r#"
fun tri n = if n = 0 then 0 else n + tri (n - 1);
val _ = print (int_to_string (tri 36) ^ "\n");
"#;

#[test]
fn layers_compose_manually() {
    let layout = TargetLayout::default();
    let cfg = CompilerConfig::default();

    // Layer: compiler (theorem 3).
    let compiled = compile_source(SRC, layout, &cfg).expect("compiles");
    assert!(compiled.fun_count > 10, "prelude functions compiled in");

    // Layer: image (initAg).
    let image = build_image(&compiled, &["tri"], b"").expect("image");

    // Layer: ISA with real system calls (theorem 6).
    let isa = run_to_halt(image.clone(), &layout, 1_000_000_000);
    assert_eq!(isa.exit, ExitStatus::Exited(0));
    assert_eq!(isa.stdout_utf8(), "666\n");

    // Layer: machine_sem with the interference oracle (theorem 4).
    let oracle = run_with_oracle(
        image.clone(),
        &layout,
        &compiled.ffi_names,
        FsState::stdin_only(&["tri"], b""),
        1_000_000_000,
    );
    assert_eq!(oracle.exit, isa.exit);
    assert_eq!(oracle.stdout, isa.stdout);

    // Layer: the circuit-level processor (theorems 9 + 6 composed).
    let stack = Stack::new();
    let rtl = stack.run_image(image, Backend::Rtl, &RunConfig::default()).expect("rtl runs");
    assert_eq!(rtl.exit_code(), Some(0));
    assert_eq!(rtl.stdout_utf8(), "666\n");
    let cycles = rtl.cycles.expect("cycle count");
    assert!(
        cycles > isa.instructions,
        "an instruction cycle takes multiple clock cycles (§4.2)"
    );
}

#[test]
fn verilog_artifact_emits_for_synthesis() {
    // Layer 4 → 5 boundary: the pretty-printed Verilog the paper hands
    // to Vivado.
    let module = rtl::generate(&silver::silver_cpu()).expect("codegen");
    let text = verilog::pretty::print_module(&module);
    assert!(text.contains("module silver_cpu("));
    assert!(text.len() > 5_000, "a real CPU, not a stub");
    // And the correspondence check behind it (theorem 10) holds on a
    // short random-latency run.
    silver::check_cpu_verilog_equiv(
        &ag32::State::new(),
        silver::MemEnvConfig::default(),
        100,
    )
    .expect("cpu circuit and generated verilog agree");
}

#[test]
fn out_of_memory_is_a_clean_behaviour() {
    // extend_with_oom (§2.3): heap exhaustion is an allowed behaviour
    // with a defined exit code, at every level.
    let stack = Stack::new();
    let src = "fun grow xs = grow (0 :: xs); val _ = grow [];";
    let isa = stack
        .run_source(src, &["oom"], b"", Backend::Isa, &RunConfig::default())
        .unwrap();
    assert_eq!(isa.exit_code(), Some(cakeml::ast::EXIT_OOM));
}

#[test]
fn every_backend_reports_the_same_retire_count() {
    // The hardware backends count the instructions the circuit retires
    // (the Verilog backend through its mirror); theorem (9) makes that
    // the ISA's count.
    let stack = Stack::new();
    let compiled = stack.compile(silver_stack::apps::HELLO).expect("compiles");
    let image = stack.load(&compiled, &["hello"], b"").expect("image");
    let rc = RunConfig::default();
    let run = |backend| stack.run_image(image.clone(), backend, &rc).expect("runs");
    let (isa, rtl, verilog) = (run(Backend::Isa), run(Backend::Rtl), run(Backend::Verilog));
    assert!(isa.instructions > 0);
    assert_eq!(rtl.instructions, isa.instructions);
    assert_eq!(verilog.instructions, rtl.instructions);
    assert_eq!(verilog.cycles, rtl.cycles);
    assert_eq!((&verilog.stdout, &verilog.exit), (&isa.stdout, &isa.exit));
}
