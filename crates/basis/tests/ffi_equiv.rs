//! §6 differential obligations (theorems (11)–(13) analogs): for every
//! program, three executions agree —
//!
//! 1. the source interpreter with the `basis_ffi` oracle (`cakeml_sem`),
//! 2. compiled code under `machine_sem` (FFI steps serviced by the
//!    interference oracle),
//! 3. compiled code under pure `Next` steps through the real system-call
//!    machine code, with output recovered from `Interrupt` events.
//!
//! Agreement of (2) and (3) is exactly the paper's claim that the
//! concrete system-call code implements the oracle; agreement with (1)
//! is the compiler-correctness theorem (2) exercised end to end.

use basis::{build_image, run_to_halt, run_with_oracle, BasisHost, ExitStatus, FsState};
use cakeml::{compile_source, frontend, run_program, CompilerConfig, TargetLayout};

struct Agreement {
    exit_code: u8,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    machine_instructions: u64,
}

/// Runs `src` all three ways with the given command line and stdin, and
/// asserts pairwise agreement — byte for byte, so output that is not
/// valid UTF-8 must match exactly too.
fn check_agreement(src: &str, args: &[&str], stdin: &[u8]) -> Agreement {
    let layout = TargetLayout::default();
    let cfg = CompilerConfig::default();

    // 1. Interpreter + oracle.
    let (prog, _) = frontend(src, &cfg).expect("frontend");
    let mut host = BasisHost::new(FsState::stdin_only(args, stdin));
    let interp = run_program(&prog, &mut host, 2_000_000_000).expect("interpreter terminates");

    // 2. machine_sem with the interference oracle.
    let compiled = compile_source(src, layout, &cfg).expect("compiles");
    let image = build_image(&compiled, args, stdin).expect("image");
    let oracle_run = run_with_oracle(
        image.clone(),
        &layout,
        &compiled.ffi_names,
        FsState::stdin_only(args, stdin),
        2_000_000_000,
    );

    // 3. Pure Next through the real system-call code.
    let machine_run = run_to_halt(image, &layout, 2_000_000_000);

    let (interp_out, interp_err) = (host.fs.stdout, host.fs.stderr);
    assert_eq!(
        oracle_run.exit,
        ExitStatus::Exited(interp.exit_code),
        "oracle-mode exit differs from interpreter"
    );
    assert_eq!(
        machine_run.exit,
        ExitStatus::Exited(interp.exit_code),
        "machine exit differs from interpreter"
    );
    assert_eq!(oracle_run.stdout, interp_out, "oracle stdout");
    assert_eq!(machine_run.stdout, interp_out, "machine stdout");
    assert_eq!(oracle_run.stderr, interp_err, "oracle stderr");
    assert_eq!(machine_run.stderr, interp_err, "machine stderr");
    Agreement {
        exit_code: interp.exit_code,
        stdout: interp_out,
        stderr: interp_err,
        machine_instructions: machine_run.instructions,
    }
}

#[test]
fn hello_world_agrees() {
    let a = check_agreement("val _ = print \"hello world\\n\";", &["hello"], b"");
    assert_eq!(a.stdout, b"hello world\n");
    assert_eq!(a.exit_code, 0);
}

#[test]
fn stderr_stream_is_separate() {
    let a = check_agreement(
        "val _ = print \"to out\";
         val _ = print_err \"to err\";
         val _ = print \"!\";",
        &["p"],
        b"",
    );
    assert_eq!(a.stdout, b"to out!");
    assert_eq!(a.stderr, b"to err");
}

#[test]
fn echo_stdin_to_stdout() {
    let input = b"line one\nline two\nand a third";
    let a = check_agreement("val _ = print (read_all ());", &["cat"], input);
    assert_eq!(a.stdout, input);
}

#[test]
fn reads_cross_chunk_boundaries() {
    // Bigger than the 16000-byte read chunk in the prelude.
    let input: Vec<u8> = (0..40_000u32).map(|i| b'a' + (i % 26) as u8).collect();
    let a = check_agreement("val _ = print (read_all ());", &["cat"], &input);
    assert_eq!(a.stdout, input);
}

#[test]
fn command_line_arguments_agree() {
    let a = check_agreement(
        "val _ = print (int_to_string (length (arguments ())));
         val _ = map (fn s => print (\" \" ^ s)) (arguments ());",
        &["prog", "first", "second", "third-arg"],
        b"",
    );
    assert_eq!(a.stdout, b"4 prog first second third-arg");
}

#[test]
fn exit_codes_propagate() {
    let a = check_agreement(
        "val _ = print \"before\";
         val _ = exit 42;
         val _ = print \"after\";",
        &["p"],
        b"",
    );
    assert_eq!(a.exit_code, 42);
    assert_eq!(a.stdout, b"before");
}

#[test]
fn crash_exit_codes_agree() {
    // Division by zero must exit with the same documented code at every
    // level (the interpreter returns it; the compiled code traps to it).
    let layout = TargetLayout::default();
    let cfg = CompilerConfig::default();
    let src = "val _ = print \"pre\"; val x = 1 div 0; val _ = print \"post\";";
    let (prog, _) = frontend(src, &cfg).unwrap();
    let mut host = BasisHost::new(FsState::stdin_only(&["p"], b""));
    let interp = run_program(&prog, &mut host, 1_000_000).unwrap();
    assert_eq!(interp.exit_code, cakeml::ast::EXIT_DIV);

    let compiled = compile_source(src, layout, &cfg).unwrap();
    let image = build_image(&compiled, &["p"], b"").unwrap();
    let run = run_to_halt(image, &layout, 100_000_000);
    assert_eq!(run.exit, ExitStatus::Exited(cakeml::ast::EXIT_DIV));
    assert_eq!(run.stdout, b"pre");
}

#[test]
fn open_in_fails_on_fileless_machine() {
    // The bare-metal environment has streams only; open_in reports
    // failure through the protocol at every level (fsin has no files).
    let a = check_agreement(
        "val buf = Word8Array.array 3 (Char.chr 0);
         val _ = #(open_in) \"data.txt\" buf;
         val _ = print (if Char.ord (Word8Array.sub buf 0) = 1
                        then \"no file\" else \"opened\");",
        &["p"],
        b"",
    );
    assert_eq!(a.stdout, b"no file");
}

#[test]
fn interleaved_reads_and_writes() {
    let a = check_agreement(
        "fun go n =
           if n = 0 then ()
           else
             let val chunk = read_chunk \"0\" 5
             in (print (\"[\" ^ chunk ^ \"]\"); go (n - 1)) end;
         val _ = go 4;",
        &["p"],
        b"aaaaabbbbbcccccddddd",
    );
    assert_eq!(a.stdout, b"[aaaaa][bbbbb][ccccc][ddddd]");
}

#[test]
fn large_output_chunks_correctly() {
    // Larger than the 60000-byte write chunk in the prelude.
    let a = check_agreement(
        "fun rep n s = if n = 0 then \"\" else s ^ rep (n - 1) s;
         val block = rep 100 \"0123456789\"; (* 1000 bytes *)
         fun out n = if n = 0 then () else (print block; out (n - 1));
         val _ = out 70;",
        &["p"],
        b"",
    );
    assert_eq!(a.stdout.len(), 70_000);
    assert!(a.stdout.starts_with(b"0123456789"));
}

#[test]
fn wc_style_pipeline_agrees() {
    // A miniature of the paper's running example: count words on stdin.
    let a = check_agreement(
        "fun is_space c = c = #\" \" orelse c = #\"\\n\" orelse c = #\"\\t\";
         fun count i in_word n =
           let val s = read_all () in
           let val len = String.size s
               fun go i in_word n =
                 if i >= len then n
                 else if is_space (String.sub s i) then go (i + 1) false n
                 else go (i + 1) true (if in_word then n else n + 1)
           in go 0 false 0 end end;
         val _ = print (int_to_string (count 0 false 0) ^ \"\\n\");",
        &["wc"],
        b"the quick  brown\n fox jumps\tover the lazy dog\n",
    );
    assert_eq!(a.stdout, b"9\n");
}

#[test]
fn machine_overhead_is_bounded() {
    // Sanity on the cost model: the machine-level run retires a finite,
    // plausible instruction count for a small program.
    let a = check_agreement("val _ = print \"x\";", &["p"], b"");
    assert!(a.machine_instructions > 100, "runs real code");
    assert!(a.machine_instructions < 5_000_000, "but not absurdly much");
}
