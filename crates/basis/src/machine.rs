//! Machine-level execution and the `machine_sem` oracle mode.
//!
//! Two ways to run a loaded image:
//!
//! * [`run_to_halt`] — pure `Next` steps; system calls execute their real
//!   machine code; output is recovered from the `Interrupt` I/O events
//!   (what the lab setup's ARM core would print). This is the theorem-(6)
//!   level of the paper.
//! * [`run_with_oracle`] — the paper's `machine_sem`: ordinary steps use
//!   `Next`, but when the PC reaches an FFI entry point the *interference
//!   oracle* (`basis_ffi`) services the call directly on the model
//!   filesystem and execution resumes at the return address. This is the
//!   theorem-(4) level.
//!
//! The `ffi_equiv` test-suite checks the two agree — the §6 obligation
//! (theorems (11)–(13)) that lets the paper replace `installedAg` by
//! `initAg`.

use ag32::{IoEvent, Machine, State};
use cakeml::TargetLayout;

use crate::fs::FsState;
use crate::image::EXIT_UNSET;
use crate::oracle::{call_ffi, FfiOutcome};
use crate::trace::SyscallTrace;

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

/// Result of a machine-level run.
#[derive(Clone, Debug)]
pub struct MachineResult {
    /// Exit classification.
    pub exit: ExitStatus,
    /// Bytes written to standard output.
    pub stdout: Vec<u8>,
    /// Bytes written to standard error.
    pub stderr: Vec<u8>,
    /// Instructions retired.
    pub instructions: u64,
    /// Final machine state.
    pub state: State,
}

impl MachineResult {
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

/// Runs a loaded image under pure `Next` steps until it halts.
#[must_use]
pub fn run_to_halt(state: State, layout: &TargetLayout, fuel: u64) -> MachineResult {
    run_to_halt_with(state, layout, fuel, &mut ag32::NoCoverage)
}

/// [`run_to_halt`] with a [`Coverage`](ag32::Coverage) sink observing
/// every retired instruction — the campaign engine passes an
/// [`EdgeSet`](ag32::EdgeSet) here to collect PC-edge coverage.
#[must_use]
pub fn run_to_halt_with<C: ag32::Coverage>(
    state: State,
    layout: &TargetLayout,
    fuel: u64,
    cov: &mut C,
) -> MachineResult {
    run_to_halt_observed(state, layout, fuel, cov, &mut ag32::NoTrace)
}

/// [`run_to_halt_with`] plus an [`ag32::Tracer`] observing every retired
/// instruction — `silverc --trace`/`--profile` pass a retire ring or a
/// cycle profiler here. With [`ag32::NoTrace`] this compiles down to
/// [`run_to_halt_with`].
#[must_use]
pub fn run_to_halt_observed<C: ag32::Coverage, T: ag32::Tracer>(
    mut state: State,
    layout: &TargetLayout,
    fuel: u64,
    cov: &mut C,
    tracer: &mut T,
) -> MachineResult {
    let instructions = state.run_traced(fuel, cov, tracer);
    let exit = classify_exit(&state, layout, instructions < fuel);
    let (stdout, stderr) = extract_streams(&state.io_events);
    MachineResult { exit, stdout, stderr, instructions, state }
}

/// The in-memory device state, summarised the way
/// [`fd_summary`](crate::trace::fd_summary) summarises an [`FsState`]:
/// machine-level runs realise only the standard streams, whose cursor
/// lives in the stdin region (`length | cursor | contents`).
fn device_summary(state: &State, layout: &TargetLayout) -> String {
    let len = state.mem.read_word(layout.stdin_base);
    let pos = state.mem.read_word(layout.stdin_base + 4);
    format!("stdin@{}/{len}", pos.min(len))
}

/// [`run_to_halt`] with system-call tracing: execution still goes
/// through the *real* system-call machine code (pure `Next` steps), but
/// whenever the PC reaches an FFI entry point the call's name and
/// arguments are captured from the machine state, and when control
/// returns to the saved link address the protocol status byte and the
/// device state are recorded. The `exit` call never returns; its event
/// is finalised when the machine halts.
#[must_use]
pub fn run_to_halt_traced(
    mut state: State,
    layout: &TargetLayout,
    ffi_names: &[String],
    fuel: u64,
    trace: &mut SyscallTrace,
) -> MachineResult {
    let entries: Vec<(u32, String)> = ffi_names
        .iter()
        .enumerate()
        .map(|(i, n)| (state.mem.read_word(layout.ffi_entry_addr(i as u32)), n.clone()))
        .collect();
    let mut instructions = 0u64;
    // An FFI call in flight: (return address, bytes pointer, event index).
    let mut pending: Option<(u32, u32, usize)> = None;
    while instructions < fuel && !state.is_halted() {
        if let Some((ret, bytes_ptr, idx)) = pending {
            if state.pc == ret {
                let status = state.mem.read_bytes(bytes_ptr, 1).first().copied();
                let ev = &mut trace.events[idx];
                if ev.bytes_len > 0 {
                    ev.status = status;
                }
                ev.fds = device_summary(&state, layout);
                pending = None;
            }
        }
        if pending.is_none() {
            if let Some((_, name)) = entries.iter().find(|(a, _)| *a == state.pc) {
                let conf = state.mem.read_bytes(state.regs[1], state.regs[2]);
                trace.events.push(crate::trace::SyscallEvent {
                    seq: trace.events.len() as u64,
                    pc: state.pc,
                    name: name.clone(),
                    conf: String::from_utf8_lossy(&conf).into_owned(),
                    bytes_len: state.regs[4] as usize,
                    status: None,
                    outcome: "machine".to_string(),
                    fds: String::new(),
                });
                pending = Some((state.regs[62], state.regs[3], trace.events.len() - 1));
            }
        }
        state.next();
        instructions += 1;
    }
    if let Some((_, bytes_ptr, idx)) = pending {
        // `exit` (or a wedge) never came back; finalise from the final state.
        let status = state.mem.read_bytes(bytes_ptr, 1).first().copied();
        let ev = &mut trace.events[idx];
        if ev.bytes_len > 0 {
            ev.status = status;
        }
        ev.fds = device_summary(&state, layout);
    }
    let exit = classify_exit(&state, layout, instructions < fuel);
    let (stdout, stderr) = extract_streams(&state.io_events);
    MachineResult { exit, stdout, stderr, instructions, state }
}

/// Runs a loaded image under `machine_sem`: FFI entry points are serviced
/// by the `basis_ffi` oracle over `fs` instead of executing the
/// system-call machine code.
#[must_use]
pub fn run_with_oracle(
    state: State,
    layout: &TargetLayout,
    ffi_names: &[String],
    fs: FsState,
    fuel: u64,
) -> MachineResult {
    run_with_oracle_traced(state, layout, ffi_names, fs, fuel, None)
}

/// [`run_with_oracle`] with optional system-call tracing: when `trace`
/// is `Some`, every serviced FFI call appends a
/// [`SyscallEvent`](crate::trace::SyscallEvent). With `None` no event is
/// ever constructed — the untraced path stays allocation-free.
#[must_use]
pub fn run_with_oracle_traced(
    mut state: State,
    layout: &TargetLayout,
    ffi_names: &[String],
    mut fs: FsState,
    fuel: u64,
    mut trace: Option<&mut SyscallTrace>,
) -> MachineResult {
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
            let outcome = match trace.as_deref_mut() {
                Some(t) => {
                    crate::trace::call_ffi_traced(&mut fs, name, &conf, &mut bytes, state.pc, t)
                }
                None => call_ffi(&mut fs, name, &conf, &mut bytes),
            };
            match outcome {
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
    MachineResult {
        exit,
        stdout: fs.stdout.clone(),
        stderr: fs.stderr.clone(),
        instructions,
        state,
    }
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
        let mut trace = SyscallTrace::new();
        let traced = run_to_halt_traced(
            image,
            &compiled.layout,
            &compiled.ffi_names,
            50_000_000,
            &mut trace,
        );
        assert_eq!(traced.exit, plain.exit);
        assert_eq!(traced.stdout, plain.stdout);
        assert_eq!(traced.instructions, plain.instructions, "tracing must not perturb the run");
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
