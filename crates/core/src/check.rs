//! The end-to-end theorem analog (theorem (8) and §7's theorem (14)).
//!
//! For a program and its inputs, [`check_end_to_end`] establishes
//! dynamically what the paper proves once and for all: the behaviour
//! observed by running the *hardware* (the circuit-level CPU, and
//! optionally its generated Verilog) equals the behaviour of the source
//! semantics — same exit status, same standard output and error.
//!
//! Failures are structured: a [`CheckFailure`] names the [`Layer`] that
//! errored, or the pair of adjacent layers that disagreed — the campaign
//! engine's triage (`campaign::triage`) leans on this to report "first
//! diverging layer" without string matching.

use std::fmt;

use ag32::NoTrace;
use basis::{BasisHost, ExitStatus, FsState};
use cakeml::frontend;
use silver::{check_lockstep, silver_cpu};

use crate::stack::{Backend, Engine, RunConfig, Stack, StackError, StackResult};

/// One layer of the paper's Figure-1 stack, as exercised by the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The source semantics (the CakeML interpreter) — the specification.
    Source,
    /// The Silver ISA `Next` function.
    Isa,
    /// The [`jet`] translation-cache implementation of the ISA layer —
    /// same `Next` semantics, different engine (theorem J).
    Jet,
    /// The circuit-level CPU implementation.
    Rtl,
    /// The generated deep-embedded Verilog.
    Verilog,
    /// The ISA↔circuit lockstep simulation relation (theorem (9)).
    Lockstep,
}

impl Layer {
    /// Stable lower-case name used in reports and repro lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Source => "source",
            Layer::Isa => "isa",
            Layer::Jet => "jet",
            Layer::Rtl => "rtl",
            Layer::Verilog => "verilog",
            Layer::Lockstep => "lockstep",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an end-to-end check did not produce an [`EndToEndReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckFailure {
    /// A layer could not produce a behaviour at all: compile/load error,
    /// simulator failure, fuel exhaustion, or a run that wedged instead
    /// of exiting.
    Error {
        /// The layer that failed.
        layer: Layer,
        /// Human-readable cause.
        message: String,
    },
    /// Two layers both produced behaviours, and the behaviours differ —
    /// a genuine counterexample to the theorem analog.
    Disagreement {
        /// The layer acting as specification in this comparison.
        spec: Layer,
        /// The layer under test that diverged from it.
        impl_: Layer,
        /// What differed (exit codes, stdout, stderr).
        message: String,
    },
}

impl CheckFailure {
    /// The layer to blame: the erroring layer, or for a disagreement the
    /// implementation-side layer (the first one to diverge walking the
    /// stack downward from the source semantics).
    #[must_use]
    pub fn layer(&self) -> Layer {
        match self {
            CheckFailure::Error { layer, .. } => *layer,
            CheckFailure::Disagreement { impl_, .. } => *impl_,
        }
    }

    /// True for [`CheckFailure::Disagreement`] — a real divergence
    /// between two layers rather than an infrastructure error.
    #[must_use]
    pub fn is_disagreement(&self) -> bool {
        matches!(self, CheckFailure::Disagreement { .. })
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Error { layer, message } => {
                write!(f, "[{layer}] error: {message}")
            }
            CheckFailure::Disagreement { spec, impl_, message } => {
                write!(f, "[{impl_}] disagrees with [{spec}]: {message}")
            }
        }
    }
}

impl std::error::Error for CheckFailure {}

impl From<CheckFailure> for String {
    fn from(f: CheckFailure) -> String {
        f.to_string()
    }
}

/// What to include in the end-to-end check.
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Also run under the Verilog semantics (slow; keep programs small).
    pub verilog: bool,
    /// Also spot-check the ISA↔circuit simulation relation over the
    /// first `lockstep_instructions` instructions (theorem (9)).
    pub lockstep_instructions: u64,
    /// Interpreter fuel.
    pub interp_fuel: u64,
    /// Which implementation executes the ISA layer. With
    /// [`Engine::Jet`] the translation-cache engine runs the image and
    /// ISA-level failures are attributed to [`Layer::Jet`], so triage
    /// distinguishes "jet engine diverged" from "ISA semantics
    /// diverged".
    pub engine: Engine,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            verilog: false,
            lockstep_instructions: 0,
            interp_fuel: 2_000_000_000,
            engine: Engine::Ref,
        }
    }
}

/// The agreed observable behaviour plus per-layer costs.
#[derive(Clone, Debug)]
pub struct EndToEndReport {
    /// Exit code every layer agreed on.
    pub exit_code: u8,
    /// Agreed standard output.
    pub stdout: String,
    /// Agreed standard error.
    pub stderr: String,
    /// ISA instructions retired.
    pub isa_instructions: u64,
    /// Circuit-level clock cycles.
    pub rtl_cycles: u64,
    /// Verilog-level clock cycles, when checked.
    pub verilog_cycles: Option<u64>,
    /// Per-opcode retire counters from the ISA run.
    pub isa_stats: Option<ag32::ExecStats>,
}

fn err(layer: Layer, message: impl Into<String>) -> CheckFailure {
    CheckFailure::Error { layer, message: message.into() }
}

fn expect_exit(layer: Layer, r: &StackResult) -> Result<u8, CheckFailure> {
    match r.exit {
        ExitStatus::Exited(c) => Ok(c),
        ref other => Err(err(layer, format!("did not exit cleanly: {other:?}"))),
    }
}

/// Compares the observable behaviour of two layers' runs. Output
/// streams compare byte for byte; the lossy text only renders failures.
fn compare_behaviour(
    spec: Layer,
    spec_code: u8,
    spec_out: &[u8],
    spec_err: &[u8],
    impl_: Layer,
    impl_code: u8,
    impl_out: &[u8],
    impl_err: &[u8],
) -> Result<(), CheckFailure> {
    let text = String::from_utf8_lossy;
    if impl_code != spec_code {
        return Err(CheckFailure::Disagreement {
            spec,
            impl_,
            message: format!("exit {impl_code} vs {spec_code}"),
        });
    }
    if impl_out != spec_out {
        return Err(CheckFailure::Disagreement {
            spec,
            impl_,
            message: format!("stdout {:?} vs {:?}", text(impl_out), text(spec_out)),
        });
    }
    if impl_err != spec_err {
        return Err(CheckFailure::Disagreement {
            spec,
            impl_,
            message: format!("stderr {:?} vs {:?}", text(impl_err), text(spec_err)),
        });
    }
    Ok(())
}

/// Runs `src` at every level and checks the observable behaviours agree.
///
/// # Errors
///
/// A [`CheckFailure`] naming the first layer to error or diverge.
pub fn check_end_to_end(
    stack: &Stack,
    src: &str,
    args: &[&str],
    stdin: &[u8],
    opts: &CheckOptions,
) -> Result<EndToEndReport, CheckFailure> {
    let rc = RunConfig { engine: opts.engine, ..RunConfig::default() };
    // Failures of the ISA-level run are attributed to the engine that
    // actually executed it.
    let isa_layer = match opts.engine {
        Engine::Ref => Layer::Isa,
        Engine::Jet => Layer::Jet,
    };

    // Source semantics (the specification side of theorem (1)).
    let (prog, _) = frontend(src, &stack.compiler).map_err(|e| err(Layer::Source, e.to_string()))?;
    let mut host = BasisHost::new(FsState::stdin_only(args, stdin));
    let interp = cakeml::run_program(&prog, &mut host, opts.interp_fuel)
        .map_err(|e| err(Layer::Source, format!("interpreter: {e}")))?;

    let compiled = stack.compile(src).map_err(|e| err(Layer::Source, e.to_string()))?;
    let image = stack
        .load(&compiled, args, stdin)
        .map_err(|e| err(Layer::Source, e.to_string()))?;

    // ISA level (theorem (6)); under `Engine::Jet`, also theorem J.
    let isa = stack
        .run_image(image.clone(), Backend::Isa, &rc)
        .map_err(|e| err(isa_layer, e.to_string()))?;
    let isa_code = expect_exit(isa_layer, &isa)?;
    compare_behaviour(
        Layer::Source,
        interp.exit_code,
        &host.fs.stdout,
        &host.fs.stderr,
        isa_layer,
        isa_code,
        &isa.stdout,
        &isa.stderr,
    )?;

    // Circuit level (theorem (9) composed in).
    let rtl = stack
        .run_image(image.clone(), Backend::Rtl, &rc)
        .map_err(|e| err(Layer::Rtl, e.to_string()))?;
    let rtl_code = expect_exit(Layer::Rtl, &rtl)?;
    compare_behaviour(
        isa_layer,
        isa_code,
        &isa.stdout,
        &isa.stderr,
        Layer::Rtl,
        rtl_code,
        &rtl.stdout,
        &rtl.stderr,
    )?;

    // Verilog level (theorem (8)).
    let verilog_cycles = if opts.verilog {
        let v = stack
            .run_image(image.clone(), Backend::Verilog, &rc)
            .map_err(|e| err(Layer::Verilog, e.to_string()))?;
        let v_code = expect_exit(Layer::Verilog, &v)?;
        compare_behaviour(
            isa_layer,
            isa_code,
            &isa.stdout,
            &isa.stderr,
            Layer::Verilog,
            v_code,
            &v.stdout,
            &v.stderr,
        )?;
        v.cycles
    } else {
        None
    };

    // Optional theorem-(9) lockstep spot check with random latencies.
    if opts.lockstep_instructions > 0 {
        check_lockstep(
            silver_cpu(),
            &image,
            opts.lockstep_instructions,
            silver::env::MemEnvConfig {
                mem_latency: silver::env::Latency::Random { max: 2 },
                seed: 0xE2E,
                ..silver::env::MemEnvConfig::default()
            },
            opts.lockstep_instructions * 64 + 10_000,
            &mut NoTrace,
        )
        .map_err(|e| err(Layer::Lockstep, e.to_string()))?;
    }

    Ok(EndToEndReport {
        exit_code: isa_code,
        stdout: host.fs.stdout_utf8(),
        stderr: host.fs.stderr_utf8(),
        isa_instructions: isa.instructions,
        rtl_cycles: rtl.cycles.unwrap_or(0),
        verilog_cycles,
        isa_stats: isa.stats,
    })
}

/// One workload for [`check_end_to_end_batch`].
#[derive(Clone, Debug)]
pub struct Workload {
    /// A label for error messages.
    pub name: String,
    /// Program source.
    pub src: String,
    /// Command-line arguments.
    pub args: Vec<String>,
    /// Standard input.
    pub stdin: Vec<u8>,
}

impl Workload {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, src: &str, args: &[&str], stdin: &[u8]) -> Self {
        Workload {
            name: name.to_string(),
            src: src.to_string(),
            args: args.iter().map(ToString::to_string).collect(),
            stdin: stdin.to_vec(),
        }
    }
}

/// Runs [`check_end_to_end`] over a whole suite of workloads, fanned
/// across threads with [`testkit::par::par_map`] (bounded by
/// `TESTKIT_THREADS`). Results come back in input order, each paired
/// with its workload; every workload runs to completion, so one batch
/// identifies *every* divergence, not just the first.
#[must_use]
pub fn check_end_to_end_batch(
    stack: &Stack,
    workloads: Vec<Workload>,
    opts: &CheckOptions,
) -> Vec<(Workload, Result<EndToEndReport, CheckFailure>)> {
    testkit::par::par_map(workloads, |w| {
        let args: Vec<&str> = w.args.iter().map(String::as_str).collect();
        let r = check_end_to_end(stack, &w.src, &args, &w.stdin, opts);
        (w, r)
    })
}

/// Collapses a batch result into `Ok(reports)` or the first failure
/// rendered as a string — the shape the batch API had before failures
/// became structured, still convenient for plain assertion suites.
///
/// # Errors
///
/// The first failing workload, labelled with its name.
pub fn batch_reports(
    results: Vec<(Workload, Result<EndToEndReport, CheckFailure>)>,
) -> Result<Vec<EndToEndReport>, String> {
    results
        .into_iter()
        .map(|(w, r)| r.map_err(|e| format!("{}: {e}", w.name)))
        .collect()
}

impl From<StackError> for String {
    fn from(e: StackError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_behaviour_names_the_diverging_pair() {
        // Exit-code divergence between source and ISA.
        let f = compare_behaviour(Layer::Source, 3, b"", b"", Layer::Isa, 4, b"", b"")
            .unwrap_err();
        assert!(f.is_disagreement());
        assert_eq!(f.layer(), Layer::Isa);
        assert_eq!(f.to_string(), "[isa] disagrees with [source]: exit 4 vs 3");

        // Stdout divergence between ISA and RTL.
        let f = compare_behaviour(Layer::Isa, 0, b"a", b"", Layer::Rtl, 0, b"b", b"")
            .unwrap_err();
        match &f {
            CheckFailure::Disagreement { spec, impl_, .. } => {
                assert_eq!(*spec, Layer::Isa);
                assert_eq!(*impl_, Layer::Rtl);
            }
            other => panic!("expected disagreement, got {other:?}"),
        }

        // Stderr divergence is caught too.
        assert!(compare_behaviour(Layer::Isa, 0, b"", b"x", Layer::Verilog, 0, b"", b"y").is_err());

        // Agreement passes.
        assert!(compare_behaviour(Layer::Source, 7, b"o", b"e", Layer::Isa, 7, b"o", b"e").is_ok());
    }

    #[test]
    fn compare_behaviour_is_byte_exact() {
        // Both outputs are invalid UTF-8 and render to the same lossy
        // text, yet they are different behaviours.
        let f = compare_behaviour(Layer::Isa, 0, &[0xff], b"", Layer::Rtl, 0, &[0xfe], b"")
            .unwrap_err();
        assert!(f.is_disagreement(), "{f}");
        assert!(compare_behaviour(Layer::Isa, 0, b"", &[0xff], Layer::Rtl, 0, b"", &[0xfe]).is_err());
        assert!(compare_behaviour(Layer::Isa, 0, &[0xff], b"", Layer::Rtl, 0, &[0xff], b"").is_ok());
    }

    #[test]
    fn error_failures_name_their_layer() {
        let f = err(Layer::Rtl, "timed out");
        assert!(!f.is_disagreement());
        assert_eq!(f.layer(), Layer::Rtl);
        assert_eq!(f.to_string(), "[rtl] error: timed out");
        assert_eq!(Layer::Lockstep.name(), "lockstep");
    }
}
