//! Machine-level execution and the `machine_sem` oracle mode.
//!
//! Two ways to run a loaded image:
//!
//! * [`run_to_halt`] — pure `Next` steps; system calls execute their real
//!   machine code; output is recovered from the `Interrupt` I/O events
//!   (what the lab setup's ARM core would print). This is the theorem-(6)
//!   level of the paper. [`run_to_halt_observed`] hands every retire to
//!   an [`ag32::Tracer`] — an [`EdgeSet`](ag32::EdgeSet) for campaign
//!   coverage, a [`SyscallTracer`](crate::SyscallTracer) for the calls
//!   the run makes.
//! * [`run_with_oracle`] — the paper's `machine_sem`: ordinary steps use
//!   `Next`, but when the PC reaches an FFI entry point the *interference
//!   oracle* (`basis_ffi`) services the call directly on the model
//!   filesystem and execution resumes at the return address. This is the
//!   theorem-(4) level.
//!
//! Every run — these, the sliced run loop behind `silver-stack` and the
//! service, and the circuit backends — ends in one [`Finished`] record.
//! The `ffi_equiv` test-suite checks the two modes agree — the §6
//! obligation (theorems (11)–(13)) that lets the paper replace
//! `installedAg` by `initAg`.

use ag32::{ExecStats, IoEvent, Machine, NoTrace, State, Tracer};
use cakeml::TargetLayout;

use crate::fs::FsState;
use crate::image::EXIT_UNSET;
use crate::oracle::{call_ffi, FfiOutcome};

/// How a machine-level run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExitStatus {
    /// Program stored an exit code and halted.
    Exited(u8),
    /// Machine halted without ever storing an exit code (or wedged on a
    /// `Reserved` instruction).
    Wedged,
    /// Fuel ran out before halting.
    OutOfFuel,
    /// (Oracle mode only) an FFI call failed — the `Fail` behaviour.
    FfiFailed(String),
}

/// A run that reached its end: halt, wedge or fuel exhaustion.
#[derive(Clone, Debug)]
pub struct Finished {
    /// Exit classification.
    pub exit: ExitStatus,
    /// Standard output bytes.
    pub stdout: Vec<u8>,
    /// Standard error bytes.
    pub stderr: Vec<u8>,
    /// Instructions retired since boot.
    pub instructions: u64,
    /// Per-opcode retire counters.
    pub stats: ExecStats,
}

impl Finished {
    /// Standard output as a string (lossy).
    #[must_use]
    pub fn stdout_utf8(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// Standard error as a string (lossy).
    #[must_use]
    pub fn stderr_utf8(&self) -> String {
        String::from_utf8_lossy(&self.stderr).into_owned()
    }
}

/// Recovers the `(stdout, stderr)` streams from `Interrupt` I/O events —
/// exactly what the board-side handler does with each output-buffer
/// snapshot (`id | length | contents`).
#[must_use]
pub fn extract_streams(events: &[IoEvent]) -> (Vec<u8>, Vec<u8>) {
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    for e in events {
        if e.window.len() < 8 {
            continue;
        }
        let id = u32::from_le_bytes(e.window[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(e.window[4..8].try_into().expect("4 bytes")) as usize;
        let data = e.window.get(8..8 + len).unwrap_or(&[]);
        match id {
            1 => stdout.extend_from_slice(data),
            2 => stderr.extend_from_slice(data),
            _ => {}
        }
    }
    (stdout, stderr)
}

/// Exit classification shared by every machine — the `run_to_halt`
/// variants here, the sliced run loop behind `silver-stack` and the
/// service (reference, jet and lockstep alike), snapshot resume, and the
/// circuit and Verilog backends. A machine exited only if it sits in
/// the halt loop *and* the program stored a code in the exit-code slot.
/// `fuel_left` says whether the run stopped with budget remaining; a
/// non-halted machine with no fuel left is [`ExitStatus::OutOfFuel`].
/// Keeping this in one place is what makes a resumed run classify
/// exactly like an uninterrupted one.
#[must_use]
pub fn classify_exit<M: Machine>(m: &M, layout: &TargetLayout, fuel_left: bool) -> ExitStatus {
    if !fuel_left && !m.is_halted() {
        return ExitStatus::OutOfFuel;
    }
    let exit_word = m.read_word(layout.exit_code_addr);
    if m.pc() == layout.halt_addr && exit_word != EXIT_UNSET {
        ExitStatus::Exited(exit_word as u8)
    } else {
        ExitStatus::Wedged
    }
}

/// The end of a run of `m` under a retire budget of `fuel` from boot:
/// the exit classification and output streams every machine shares —
/// the reference interpreter, jet, a lockstep, and the circuit backends.
#[must_use]
pub fn finished<M: Machine>(m: &M, layout: &TargetLayout, fuel: u64) -> Finished {
    let (stdout, stderr) = extract_streams(m.io_events());
    Finished {
        exit: classify_exit(m, layout, m.retired() < fuel),
        stdout,
        stderr,
        instructions: m.retired(),
        stats: m.stats().clone(),
    }
}

/// Runs a loaded image under pure `Next` steps until it halts.
#[must_use]
pub fn run_to_halt(state: State, layout: &TargetLayout, fuel: u64) -> Finished {
    run_to_halt_observed(state, layout, fuel, &mut NoTrace)
}

/// [`run_to_halt`] with `tracer` observing every retired instruction.
/// With [`NoTrace`] this compiles down to [`run_to_halt`].
#[must_use]
pub fn run_to_halt_observed<T: Tracer>(
    mut state: State,
    layout: &TargetLayout,
    fuel: u64,
    tracer: &mut T,
) -> Finished {
    state.run_traced(fuel, tracer);
    finished(&state, layout, fuel)
}

/// Runs a loaded image under `machine_sem`: FFI entry points are serviced
/// by the `basis_ffi` oracle over `fs` instead of executing the
/// system-call machine code.
#[must_use]
pub fn run_with_oracle(
    mut state: State,
    layout: &TargetLayout,
    ffi_names: &[String],
    mut fs: FsState,
    fuel: u64,
) -> Finished {
    // Entry addresses from the jump table (the image builder wrote them).
    let entries: Vec<(u32, String)> = ffi_names
        .iter()
        .enumerate()
        .map(|(i, n)| (state.mem.read_word(layout.ffi_entry_addr(i as u32)), n.clone()))
        .collect();
    let mut instructions = 0u64;
    let exit = loop {
        if instructions >= fuel {
            break classify_exit(&state, layout, false);
        }
        if state.is_halted() {
            break classify_exit(&state, layout, true);
        }
        if let Some((_, name)) = entries.iter().find(|(a, _)| *a == state.pc) {
            // The interference-oracle step: read the call's arguments
            // from the machine state (conf in r1/r2, array in r3/r4),
            // apply the oracle, write back, return to the caller.
            let conf = state.mem.read_bytes(state.regs[1], state.regs[2]);
            let mut bytes = state.mem.read_bytes(state.regs[3], state.regs[4]);
            match call_ffi(&mut fs, name, &conf, &mut bytes) {
                FfiOutcome::Return => {
                    state.mem.write_bytes(state.regs[3], &bytes);
                    state.pc = state.regs[62];
                }
                FfiOutcome::Exit(c) => {
                    state.mem.write_word(layout.exit_code_addr, u32::from(c));
                    state.pc = layout.halt_addr;
                    break ExitStatus::Exited(c);
                }
                FfiOutcome::Failed => break ExitStatus::FfiFailed(name.clone()),
            }
            continue;
        }
        state.next();
        instructions += 1;
    };
    Finished { exit, stdout: fs.stdout, stderr: fs.stderr, instructions, stats: state.stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_machine_run_matches_untraced_and_records_calls() {
        use cakeml::{compile_source, CompilerConfig, TargetLayout};
        let compiled = compile_source(
            "val _ = print \"traced\\n\";",
            TargetLayout::default(),
            &CompilerConfig::default(),
        )
        .expect("compiles");
        let image = crate::build_image(&compiled, &["prog"], b"").expect("image");
        let plain = run_to_halt(image.clone(), &compiled.layout, 50_000_000);
        let mut calls = crate::SyscallTracer::new(&image, &compiled.layout, &compiled.ffi_names);
        let traced = run_to_halt_observed(image, &compiled.layout, 50_000_000, &mut calls);
        assert_eq!(traced.exit, plain.exit);
        assert_eq!(traced.stdout, plain.stdout);
        assert_eq!(traced.instructions, plain.instructions, "tracing must not perturb the run");
        let trace = calls.into_trace();
        assert!(!trace.is_empty(), "print goes through the FFI");
        let text = trace.render();
        assert!(text.contains("write"), "{text}");
        assert!(text.contains("status 0"), "{text}");
        assert!(text.contains("stdin@0/0"), "{text}");
    }

    #[test]
    fn stream_extraction_parses_windows() {
        let mk = |id: u32, data: &[u8]| {
            let mut w = Vec::new();
            w.extend_from_slice(&id.to_le_bytes());
            w.extend_from_slice(&(data.len() as u32).to_le_bytes());
            w.extend_from_slice(data);
            w.resize(32, 0);
            IoEvent { data_out: 0, window: w }
        };
        let events = vec![mk(1, b"out1 "), mk(2, b"err"), mk(1, b"out2"), mk(9, b"ignored")];
        let (o, e) = extract_streams(&events);
        assert_eq!(o, b"out1 out2");
        assert_eq!(e, b"err");
    }
}
