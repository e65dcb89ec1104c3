//! `silverc` — compile and run programs on the verified stack from the
//! command line.
//!
//! ```sh
//! silverc prog.cml [--backend isa|rtl|verilog] [--engine ref|jet]
//!         [--shadow] [--arg ARG]...
//!         [--stdin FILE] [--gc] [--no-tail-calls] [--no-direct-calls]
//!         [--stats] [--trace] [--trace-syscalls] [--vcd FILE]
//!         [--profile FILE]
//!         [--checkpoint FILE [--checkpoint-every N]]
//! silverc --resume SNAP [--engine ref|jet] [--shadow] [--stats]
//!         [--checkpoint FILE [--checkpoint-every N]]
//! ```
//!
//! The program's standard output/error are forwarded; the process exits
//! with the program's exit code. `--backend rtl` runs on the circuit-
//! level Silver CPU, `verilog` under the Verilog semantics (slow; small
//! programs only).
//!
//! `--engine jet` (ISA backend only) executes on the translation-cache
//! engine instead of the step-at-a-time reference interpreter — same
//! `Next` semantics, roughly an order of magnitude faster. `--shadow`
//! additionally runs the reference interpreter in lockstep and aborts
//! with a forensics report on the first divergence (theorem J as a
//! runtime check, comparing the architectural state after every
//! retire).
//!
//! `--stats` prints the retired-instruction count, the clock-cycle
//! count (circuit backends), and — on the ISA backend — a per-opcode
//! retire histogram, most-frequent class first.
//!
//! Observability (everything off by default; see `EXPERIMENTS.md`):
//!
//! * `--trace` keeps the last N retired instructions (ISA backend) and
//!   prints them to stderr after the run; N comes from `SILVER_TRACE_CAP`
//!   (default 32). Setting `SILVER_TRACE=1` in the environment enables
//!   this without the flag.
//! * `--trace-syscalls` records every system call — name, configuration,
//!   byte-array size, status byte, descriptor state — and prints the
//!   trace to stderr (ISA backend).
//! * `--vcd FILE` dumps a GTKWave-viewable waveform of every CPU signal
//!   (hardware backends only).
//! * `--profile FILE` attributes execution to source functions — retired
//!   instructions on the ISA backend, true clock cycles on the hardware
//!   backends — and writes flamegraph folded stacks to FILE (`-` for
//!   stderr).
//!
//! On the ISA backend the observers ride on the one run, so an observed
//! run executes once and honours `--checkpoint` and `--shadow`. They see
//! reference retires: under `--engine jet --shadow` those of the
//! lockstep's reference side, while an observed `--engine jet` run
//! without `--shadow` executes on the reference interpreter (theorem J:
//! same output, counts and histogram). Every configuration prints the
//! same observation lines.
//!
//! Snapshot/replay (ISA backend only; see the "Snapshot/replay" section
//! of `EXPERIMENTS.md`):
//!
//! * `--checkpoint FILE` rewrites FILE with a rolling snapshot of the
//!   run every `--checkpoint-every N` retires (default 1 000 000),
//!   atomically — a killed run loses at most one interval of progress.
//! * `--resume SNAP` resumes a snapshot instead of compiling a source
//!   file; the program, its arguments and its consumed stdin all live
//!   inside the snapshot. Either engine can resume a snapshot written
//!   under the other — theorem J over serialised state. Output streams
//!   are replayed in full (the snapshot carries the prefix's I/O
//!   events), so resumed stdout is byte-identical to an uninterrupted
//!   run's.
//! * with `--shadow`, a configured checkpoint cadence also anchors the
//!   divergence forensics: the lockstep replays a theorem-J violation
//!   from the last good boundary instead of from boot, and that anchor
//!   state is the last one written to the `--checkpoint` file, for
//!   `--resume`-based triage.

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

use silver_stack::{Backend, Engine, ExitStatus, Observations, Observe, RunConfig, Stack};

struct Options {
    file: String,
    backend: Backend,
    engine: Engine,
    shadow: bool,
    args: Vec<String>,
    stdin: Vec<u8>,
    stats: bool,
    trace: bool,
    trace_syscalls: bool,
    vcd: Option<PathBuf>,
    profile: Option<String>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: Option<PathBuf>,
    stack: Stack,
}

fn usage() -> ! {
    eprintln!(
        "usage: silverc FILE [--backend isa|rtl|verilog] [--engine ref|jet] \
         [--shadow] [--arg ARG]... \
         [--stdin FILE|-] [--gc] [--no-tail-calls] [--no-direct-calls] [--no-const-fold] \
         [--stats] [--trace] [--trace-syscalls] [--vcd FILE] [--profile FILE|-] \
         [--checkpoint FILE] [--checkpoint-every N]\n\
         \x20      silverc --resume SNAP [--engine ref|jet] [--shadow] [--stats] \
         [--checkpoint FILE] [--checkpoint-every N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        backend: Backend::Isa,
        engine: Engine::Ref,
        shadow: false,
        args: Vec::new(),
        stdin: Vec::new(),
        stats: false,
        trace: std::env::var("SILVER_TRACE").is_ok_and(|v| v == "1"),
        trace_syscalls: false,
        vcd: None,
        profile: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        stack: Stack::new(),
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--backend" => {
                opts.backend = match args.next().as_deref() {
                    Some("isa") => Backend::Isa,
                    Some("rtl") => Backend::Rtl,
                    Some("verilog") => Backend::Verilog,
                    _ => usage(),
                }
            }
            "--engine" => {
                opts.engine = match args.next().as_deref() {
                    Some("ref") => Engine::Ref,
                    Some("jet") => Engine::Jet,
                    _ => usage(),
                }
            }
            "--shadow" => opts.shadow = true,
            "--arg" => match args.next() {
                Some(v) => opts.args.push(v),
                None => usage(),
            },
            "--stdin" => match args.next().as_deref() {
                Some("-") => {
                    std::io::stdin().read_to_end(&mut opts.stdin).expect("read stdin");
                }
                Some(path) => {
                    opts.stdin = std::fs::read(path).unwrap_or_else(|e| {
                        eprintln!("silverc: cannot read stdin file `{path}`: {e}");
                        std::process::exit(2);
                    });
                }
                None => usage(),
            },
            "--gc" => opts.stack.compiler.gc = true,
            "--no-tail-calls" => opts.stack.compiler.tail_calls = false,
            "--no-direct-calls" => opts.stack.compiler.direct_calls = false,
            "--no-const-fold" => opts.stack.compiler.const_fold = false,
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--trace-syscalls" => opts.trace_syscalls = true,
            "--vcd" => match args.next() {
                Some(v) => opts.vcd = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--profile" => match args.next() {
                Some(v) => opts.profile = Some(v),
                None => usage(),
            },
            "--checkpoint" => match args.next() {
                Some(v) => opts.checkpoint = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--checkpoint-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => opts.checkpoint_every = Some(n),
                _ => usage(),
            },
            "--resume" => match args.next() {
                Some(v) => opts.resume = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') && opts.file.is_empty() => opts.file = f.to_string(),
            _ => usage(),
        }
    }
    if opts.file.is_empty() && opts.resume.is_none() {
        usage();
    }
    if opts.resume.is_some() {
        if !opts.file.is_empty() || !opts.args.is_empty() || !opts.stdin.is_empty() {
            eprintln!(
                "silverc: --resume takes no source file, --arg or --stdin — \
                 program, arguments and consumed input live inside the snapshot"
            );
            std::process::exit(2);
        }
        if opts.trace || opts.trace_syscalls || opts.profile.is_some() || opts.vcd.is_some() {
            eprintln!(
                "silverc: --trace/--trace-syscalls/--profile/--vcd require a fresh run, \
                 not --resume (the observers replay from boot)"
            );
            std::process::exit(2);
        }
        if opts.backend != Backend::Isa {
            eprintln!("silverc: --resume requires --backend isa");
            std::process::exit(2);
        }
    }
    if opts.checkpoint.is_some() && opts.backend != Backend::Isa {
        eprintln!("silverc: --checkpoint requires --backend isa");
        std::process::exit(2);
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() && !opts.shadow {
        eprintln!("silverc: --checkpoint-every requires --checkpoint or --shadow");
        std::process::exit(2);
    }
    if opts.vcd.is_some() && opts.backend == Backend::Isa {
        eprintln!("silverc: --vcd requires --backend rtl or --backend verilog");
        std::process::exit(2);
    }
    if opts.trace && opts.backend != Backend::Isa {
        eprintln!("silverc: --trace requires --backend isa");
        std::process::exit(2);
    }
    if opts.trace_syscalls && opts.backend != Backend::Isa {
        eprintln!("silverc: --trace-syscalls requires --backend isa");
        std::process::exit(2);
    }
    if opts.engine == Engine::Jet && opts.backend != Backend::Isa {
        eprintln!("silverc: --engine jet requires --backend isa");
        std::process::exit(2);
    }
    if opts.shadow && opts.engine != Engine::Jet {
        eprintln!("silverc: --shadow requires --engine jet");
        std::process::exit(2);
    }
    opts
}

fn trace_cap() -> usize {
    std::env::var("SILVER_TRACE_CAP").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

fn main() -> ExitCode {
    let opts = parse_args();
    let rc = RunConfig {
        engine: opts.engine,
        shadow: opts.shadow,
        checkpoint: opts.checkpoint.clone(),
        checkpoint_interval: opts.checkpoint_every,
        ..RunConfig::default()
    };

    let (result, obs) = if let Some(snap) = &opts.resume {
        match opts.stack.resume_file(snap, &rc) {
            Ok(r) => (r, Observations::default()),
            Err(e) => {
                eprintln!("silverc: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let src = match std::fs::read_to_string(&opts.file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("silverc: cannot read `{}`: {e}", opts.file);
                return ExitCode::from(2);
            }
        };
        let mut argv: Vec<&str> = vec![opts.file.as_str()];
        argv.extend(opts.args.iter().map(String::as_str));

        let ocfg = Observe {
            retire_log: if opts.trace { trace_cap() } else { 0 },
            profile: opts.profile.is_some(),
            syscalls: opts.trace_syscalls,
            vcd: opts.vcd.clone(),
        };
        match opts.stack.run_source_observed(&src, &argv, &opts.stdin, opts.backend, &rc, &ocfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("silverc: {e}");
                return ExitCode::from(2);
            }
        }
    };
    std::io::stdout().write_all(&result.stdout).expect("stdout");
    std::io::stderr().write_all(&result.stderr).expect("stderr");
    if let Some(trace) = &obs.syscalls {
        eprintln!("silverc: syscall trace ({} calls):", trace.len());
        for line in trace.render().lines() {
            eprintln!("silverc:   {line}");
        }
    }
    if let Some(ring) = &obs.retire_log {
        let lines = ring.render();
        eprintln!(
            "silverc: retire log (last {} of {} retired):",
            lines.len(),
            ring.total()
        );
        for line in &lines {
            eprintln!("silverc:   {line}");
        }
    }
    if let Some(prof) = &obs.profile {
        let folded = prof.folded();
        match opts.profile.as_deref() {
            Some("-") => eprint!("{folded}"),
            Some(path) => {
                if let Err(e) = std::fs::write(path, &folded) {
                    eprintln!("silverc: cannot write profile `{path}`: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("silverc: profile written to {path}");
            }
            None => {}
        }
    }
    if let Some(path) = &obs.vcd {
        eprintln!("silverc: vcd written to {}", path.display());
    }
    if opts.stats {
        eprintln!("silverc: instructions = {}", result.instructions);
        if let Some(c) = result.cycles {
            eprintln!("silverc: clock cycles = {c}");
        }
        if let Some(stats) = &result.stats {
            eprintln!(
                "silverc: opcode histogram ({}/{} classes exercised):",
                stats.opcodes_exercised(),
                ag32::Opcode::COUNT,
            );
            for (op, count) in stats.histogram() {
                eprintln!("silverc:   {:<18} {count}", op.name());
            }
        }
    }
    match result.exit {
        ExitStatus::Exited(c) => ExitCode::from(c),
        other => {
            eprintln!("silverc: abnormal termination: {other:?}");
            ExitCode::from(2)
        }
    }
}
