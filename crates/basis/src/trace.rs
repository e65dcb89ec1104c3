//! System-call tracing — the `silverc --trace-syscalls` backend.
//!
//! A [`SyscallTrace`] records one [`SyscallEvent`] per FFI call: the
//! call name, its configuration string, the byte-array size, the
//! post-call status byte, a short result summary, and the stdin device
//! state after the call. [`SyscallTracer`], an [`ag32::Tracer`], fills
//! it while a pure-`Next` run executes the real system-call machine
//! code — the run it observes is the run that produces the result.
//! Tracing is opt-in at every call site (the untraced entry points never
//! construct events), so the differential harnesses pay nothing for it.

use std::fmt::Write as _;

use ag32::{RetireEvent, State, Tracer};
use cakeml::TargetLayout;

/// One traced FFI call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallEvent {
    /// Zero-based call index.
    pub seq: u64,
    /// PC of the FFI entry point the machine jumped to.
    pub pc: u32,
    /// Call name (e.g. `write`, `read`, `exit`).
    pub name: String,
    /// Configuration string (lossy UTF-8).
    pub conf: String,
    /// Shared byte-array size handed to the call.
    pub bytes_len: usize,
    /// `bytes[0]` after the call, when the array is non-empty — the
    /// protocol's status byte (0 = ok, 1 = fail for most calls).
    pub status: Option<u8>,
    /// How the call was serviced: `machine` (its system-call code ran
    /// on the machine).
    pub outcome: String,
    /// The stdin device after the call, `stdin@<cursor>/<length>`.
    pub fds: String,
}

impl SyscallEvent {
    /// One-line rendition:
    /// `#3 write(conf="1", bytes=21) -> machine status 0 | stdin@5/11`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "#{} {}(conf={:?}, bytes={})",
            self.seq, self.name, self.conf, self.bytes_len
        );
        let _ = write!(out, " -> {}", self.outcome);
        if let Some(s) = self.status {
            let _ = write!(out, " status {s}");
        }
        if !self.fds.is_empty() {
            let _ = write!(out, " | {}", self.fds);
        }
        out
    }
}

/// An in-order record of every FFI call a run made.
#[derive(Clone, Debug, Default)]
pub struct SyscallTrace {
    /// The events, in call order.
    pub events: Vec<SyscallEvent>,
}

impl SyscallTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        SyscallTrace::default()
    }

    /// Number of recorded calls.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no calls were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the whole trace, one line per call.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

/// An FFI call the machine entered and has not returned from, with the
/// status byte and stdin device as of the last retire — what its event
/// records once the call returns, or, for a call that never does
/// (`exit`, fuel exhaustion), once the run ends.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    /// Index of the call's event.
    idx: usize,
    /// The link address the call returns to.
    ret: u32,
    /// The call's byte array; its first byte is the protocol status.
    bytes_ptr: u32,
    status: u8,
    /// The stdin device's `(length, cursor)` words.
    stdin: (u32, u32),
}

impl InFlight {
    fn observe(&mut self, s: &State, stdin_base: u32) {
        self.status = s.mem.read_byte(self.bytes_ptr);
        self.stdin = (s.mem.read_word(stdin_base), s.mem.read_word(stdin_base + 4));
    }
}

/// System-call tracing for pure-`Next` runs, as an [`ag32::Tracer`]:
/// the calls execute their real machine code, and whenever a retire
/// leaves the PC at an FFI entry point the call's name and arguments
/// are captured from the machine state; when control returns to the
/// saved link address the protocol status byte and the device state
/// are recorded. Machine-level runs realise only the standard streams,
/// so the device state is the stdin cursor (`stdin@cursor/length`).
#[derive(Clone, Debug)]
pub struct SyscallTracer {
    /// FFI entry addresses (read from the image's jump table) and names.
    entries: Vec<(u32, String)>,
    stdin_base: u32,
    trace: SyscallTrace,
    in_flight: Option<InFlight>,
}

impl SyscallTracer {
    /// A tracer for runs of `image`, whose FFI jump table (laid out by
    /// `layout`) names the calls `ffi_names`.
    #[must_use]
    pub fn new(image: &State, layout: &TargetLayout, ffi_names: &[String]) -> Self {
        let entries = ffi_names
            .iter()
            .enumerate()
            .map(|(i, n)| (image.mem.read_word(layout.ffi_entry_addr(i as u32)), n.clone()))
            .collect();
        SyscallTracer {
            entries,
            stdin_base: layout.stdin_base,
            trace: SyscallTrace::new(),
            in_flight: None,
        }
    }

    /// The trace, with a call still in flight recorded as the run left it.
    #[must_use]
    pub fn into_trace(mut self) -> SyscallTrace {
        self.settle();
        self.trace
    }

    fn settle(&mut self) {
        if let Some(call) = self.in_flight.take() {
            let ev = &mut self.trace.events[call.idx];
            if ev.bytes_len > 0 {
                ev.status = Some(call.status);
            }
            let (len, pos) = call.stdin;
            ev.fds = format!("stdin@{}/{len}", pos.min(len));
        }
    }
}

impl Tracer for SyscallTracer {
    fn retire(&mut self, _ev: &RetireEvent, s: &State) {
        if let Some(call) = &mut self.in_flight {
            call.observe(s, self.stdin_base);
            if s.pc != call.ret {
                return;
            }
            self.settle();
        }
        if let Some((_, name)) = self.entries.iter().find(|(a, _)| *a == s.pc) {
            let conf = s.mem.read_bytes(s.regs[1], s.regs[2]);
            self.trace.events.push(SyscallEvent {
                seq: self.trace.events.len() as u64,
                pc: s.pc,
                name: name.clone(),
                conf: String::from_utf8_lossy(&conf).into_owned(),
                bytes_len: s.regs[4] as usize,
                status: None,
                outcome: "machine".to_string(),
                fds: String::new(),
            });
            let mut call = InFlight {
                idx: self.trace.events.len() - 1,
                ret: s.regs[62],
                bytes_ptr: s.regs[3],
                status: 0,
                stdin: (0, 0),
            };
            call.observe(s, self.stdin_base);
            self.in_flight = Some(call);
        }
    }
}
